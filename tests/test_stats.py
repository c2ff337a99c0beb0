import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata, spearmanr

from oniongraph.errors import DataError, ParseError
from oniongraph.graphs import ServiceGraph
from oniongraph.metrics import vertex_metrics
from oniongraph.stats import (
    LabelSet,
    _average_ranks,
    gain_report,
    info_gain,
    spearman,
    spearman_matrix,
    tag_prevalence,
)

from oracles import random_digraph, vid


class TestSpearman:
    def test_monotone_transform_is_one(self):
        x = np.array([1.0, 2.0, 5.0, 9.0, 12.0])
        assert spearman(x, x**2) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self):
        x = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert spearman(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_tied_vectors_match_rank_then_pearson_oracle(self):
        x = np.array([1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0, 7.0, 8.0, 8.0])
        y = np.array([2.0, 1.0, 4.0, 4.0, 4.0, 6.0, 5.0, 9.0, 9.0, 3.0])
        expected = spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_average_ranks_equal_scipy_rankdata_exactly(self, seed):
        # tied ranks are half-integers, so they must come out bit-identical
        x = np.random.default_rng(seed).integers(0, 12, size=60).astype(float)
        np.testing.assert_array_equal(_average_ranks(x), rankdata(x, method="average"))

    def test_constant_vector_is_nan(self):
        assert math.isnan(spearman(np.ones(5), np.arange(5.0)))

    def test_too_few_points_is_nan(self):
        assert math.isnan(spearman(np.array([1.0, 2.0]), np.array([2.0, 1.0])))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        data=st.lists(
            st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=3, max_size=40
        )
    )
    def test_matches_scipy_on_random_tied_data(self, data):
        import warnings

        x = np.array([a for a, _ in data], dtype=float)
        y = np.array([b for _, b in data], dtype=float)
        ours = spearman(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = spearmanr(x, y).statistic
        if math.isnan(ours) or (isinstance(reference, float) and math.isnan(reference)):
            assert math.isnan(ours) and math.isnan(reference)
        else:
            assert ours == pytest.approx(reference, abs=1e-12)


class TestSpearmanMatrix:
    def test_symmetric_unit_diagonal_bounded(self):
        rng = np.random.default_rng(4)
        vm = vertex_metrics(random_digraph(rng, 40, 0.1))
        mat = spearman_matrix(vm)
        assert np.allclose(mat.values, mat.values.T, equal_nan=True)
        assert np.allclose(np.diag(mat.values), 1.0)
        finite = mat.values[np.isfinite(mat.values)]
        assert np.all(finite <= 1 + 1e-12) and np.all(finite >= -1 - 1e-12)

    def test_pairwise_deletion_keeps_entries(self):
        rng = np.random.default_rng(5)
        vm = vertex_metrics(random_digraph(rng, 30, 0.15))
        mat = spearman_matrix(vm)
        i = mat.names.index("efficiency")
        j = mat.names.index("out_degree")
        # efficiency is NaN on low-degree vertices, yet the pair stays defined
        assert np.isnan(vm.efficiency).any()
        assert math.isfinite(mat.values[i, j])

    def test_monotone_invariance_on_metric(self):
        rng = np.random.default_rng(6)
        vm = vertex_metrics(random_digraph(rng, 25, 0.15))
        mat1 = spearman_matrix(vm)
        vm.pagerank = np.exp(vm.pagerank * 5.0)  # strictly monotone transform
        mat2 = spearman_matrix(vm)
        np.testing.assert_allclose(mat1.values, mat2.values, atol=1e-12, equal_nan=True)

    def test_csv_output(self):
        rng = np.random.default_rng(7)
        vm = vertex_metrics(random_digraph(rng, 15, 0.2))
        buf = io.StringIO()
        spearman_matrix(vm).write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("metric,in_degree,out_degree,degree,")
        assert len(lines) == len(spearman_matrix(vm).names) + 1


LABEL_ROWS = [
    ("h1.onion", "Hosting", "en"),
    ("h2.onion", "hosting", "en"),  # case-insensitive
    ("d1.onion", "Drugs", "en"),
    ("f1.onion", "Forum (Legal)", "de"),
    ("f2.onion", "Forum (Illegal)", "en"),
    ("u1.onion", "Empty", ""),
]


class TestLabelSet:
    def test_type_derivation_and_suffix_significance(self):
        ls = LabelSet.from_rows(LABEL_ROWS)
        assert ls.labels["h2.onion"].cls == "Hosting"
        assert ls.labels["f1.onion"].type == "Normal"
        assert ls.labels["f2.onion"].type == "Suspicious"
        assert ls.labels["u1.onion"].type == "Unknown"
        assert "u1.onion" not in ls.usable()

    def test_unknown_class_rejected(self):
        with pytest.raises(DataError, match="unknown content class"):
            LabelSet.from_rows([("x.onion", "Puppies", "en")])

    def test_csv_round(self):
        buf = io.StringIO("service,class,language\nx.onion,Drugs,en\n")
        ls = LabelSet.from_csv(buf)
        assert ls.labels["x.onion"].type == "Suspicious"

    def test_csv_header_checked(self):
        with pytest.raises(DataError, match="label CSV"):
            LabelSet.from_csv(io.StringIO("a,b,c\n"))

    @pytest.mark.parametrize("text,where", [
        ("service,klass,language\n", "line 1: label CSV must start with"),
        ("service,class,language\nx.onion,Drugs,en\n\ny.onion,Drugs\n", "line 4: bad label row"),
        ("service,class,language\nx.onion,Puppies,en\n", "line 2: unknown content class"),
        ("service,class,language\na.onion,Drugs,en\na.onion,Art,en\n",
         "line 3: service 'a.onion' listed twice"),
    ])
    def test_csv_errors_name_the_file_and_line(self, tmp_path, text, where):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with open(path, encoding="utf-8") as fh, pytest.raises(ParseError) as err:
            LabelSet.from_csv(fh)
        assert str(err.value).startswith(f"{path}: {where}")


class TestPrevalence:
    def graph_over(self, services):
        edges = [(a, b, 1) for a, b in zip(services, services[1:])]
        return ServiceGraph.from_edges(False, edges)

    def test_all_one_class(self):
        g = self.graph_over(["h1.onion", "h2.onion"])
        ls = LabelSet.from_rows([(v, "Hosting", "en") for v in g.vertices])
        prev = tag_prevalence(ls, g)
        assert prev.fractions == {"Hosting": 1.0}
        assert prev.coverage == 1.0

    def test_half_and_half(self):
        g = self.graph_over(["a.onion", "b.onion", "c.onion", "d.onion"])
        ls = LabelSet.from_rows(
            [("a.onion", "Hosting", "en"), ("b.onion", "Hosting", "en"),
             ("c.onion", "Drugs", "en"), ("d.onion", "Drugs", "en")]
        )
        prev = tag_prevalence(ls, g)
        assert prev.fractions == {"Hosting": 0.5, "Drugs": 0.5}

    def test_counting_oracle_on_random_labels(self):
        rng = np.random.default_rng(11)
        services = [vid(i) for i in range(40)]
        g = self.graph_over(services)
        pool = ["Hosting", "Drugs", "Fraud", "Personal", "Empty"]
        rows = [(v, pool[int(rng.integers(0, len(pool)))], "en") for v in services[:30]]
        ls = LabelSet.from_rows(rows)
        prev = tag_prevalence(ls, g)
        counted = {}
        for v, c, _ in rows:
            if c != "Empty":
                counted[c] = counted.get(c, 0) + 1
        n = sum(counted.values())
        assert prev.n_labeled == n
        for c, k in counted.items():
            assert prev.fractions[c] == pytest.approx(k / n)

    def test_unlabeled_graph_rejected(self):
        g = self.graph_over(["a.onion", "b.onion"])
        with pytest.raises(DataError, match="no labeled"):
            tag_prevalence(LabelSet.from_rows([]), g)


class TestInfoGain:
    def test_indicator_metric_one_bit(self):
        # metric mass entirely inside a class of prevalence 1/2
        res = info_gain(np.array([1.0, 1.0, 0.0, 0.0]), np.array([True, True, False, False]))
        assert res.p_weighted == 1.0 and res.p_uniform == 0.5
        assert res.gain_bits == pytest.approx(1.0, abs=1e-12)

    def test_constant_metric_zero_gain(self):
        res = info_gain(np.full(10, 3.0), np.arange(10) < 4)
        assert res.gain_bits == pytest.approx(0.0, abs=1e-12)

    def test_mass_outside_class_closed_form(self):
        res = info_gain(np.array([0.0, 0.0, 2.0, 2.0]), np.array([True, True, False, False]))
        # p_w = 0, p_u = 1/2: gain = log2(1/(1 - p_u)) = 1 bit
        assert res.gain_bits == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_metric_rejected(self):
        with pytest.raises(DataError, match="uninformative"):
            info_gain(np.zeros(4), np.array([True, False, True, False]))

    def test_degenerate_class_rejected(self):
        with pytest.raises(DataError, match="degenerate class"):
            info_gain(np.ones(4), np.ones(4, dtype=bool))

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.random(50)
        members = rng.random(50) < 0.3
        a = info_gain(values, members).gain_bits
        b = info_gain(values * 137.5, members).gain_bits
        assert a == pytest.approx(b, abs=1e-12)

    def test_gain_matches_two_term_kl_oracle(self):
        rng = np.random.default_rng(9)
        values = rng.random(30)
        members = rng.random(30) < 0.4
        res = info_gain(values, members)
        p_w, p_u = res.p_weighted, res.p_uniform
        expected = 0.0
        for p, q in ((p_w, p_u), (1 - p_w, 1 - p_u)):
            if p > 0:
                expected += p * math.log2(p / q)
        assert res.gain_bits == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        values=st.lists(st.floats(0.0, 100.0), min_size=4, max_size=60),
        split=st.integers(1, 3),
    )
    def test_gain_nonnegative_property(self, values, split):
        values = np.array(values)
        members = (np.arange(values.size) % (split + 1)) == 0
        if values.sum() <= 0 or members.all() or not members.any():
            return
        res = info_gain(values, members)
        assert res.gain_bits >= -1e-15
        if abs(res.p_weighted - res.p_uniform) < 1e-15:
            assert abs(res.gain_bits) < 1e-12


class TestGainReport:
    def build_vm_and_labels(self, n=60, seed=0):
        rng = np.random.default_rng(seed)
        g = random_digraph(rng, n, 0.08)
        vm = vertex_metrics(g)
        pool = ["Hosting", "Drugs", "Religion", "Fraud"]
        rows = [(v, pool[int(rng.integers(0, len(pool)))], "en") for v in g.vertices]
        return vm, LabelSet.from_rows(rows)

    def test_matrix_shape_and_macro_columns(self):
        vm, ls = self.build_vm_and_labels()
        table = gain_report(vm, ls)
        assert table.labels[-2:] == ("Normal", "Suspicious")
        assert table.values.shape == (len(table.metrics), len(table.labels))

    def test_empty_class_cell_is_nan(self):
        vm, _ = self.build_vm_and_labels()
        ls = LabelSet.from_rows([(v, "Hosting", "en") for v in vm.vertices])
        table = gain_report(vm, ls)  # single class: p_u = 1 everywhere
        assert np.all(np.isnan(table.values))

    def test_independent_labels_mean_gain_near_zero(self):
        # null oracle: labels independent of the metric
        rng = np.random.default_rng(21)
        trials = 100
        total = 0.0
        n = 1000
        values = rng.random(n)
        for _ in range(trials):
            members = rng.random(n) < 0.5
            total += info_gain(values, members).gain_bits
        assert total / trials <= 0.01

    def test_csv_output(self):
        vm, ls = self.build_vm_and_labels()
        table = gain_report(vm, ls)
        buf = io.StringIO()
        table.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("metric,")
        assert len(lines) == len(table.metrics) + 1
