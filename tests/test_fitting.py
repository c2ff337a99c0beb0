import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr, ndtri, zeta

import oniongraph
from oniongraph.errors import DataError, UsageError
from oniongraph.fitting import (
    _ALPHA_BOUNDS,
    _bounded_brent,
    _nelder_mead,
    _pl_alpha_mle,
    bootstrap_pvalue,
    compare_fits,
    fit_lognormal,
    fit_power_law,
    fit_report,
    lognormal_logpmf,
    power_law_logpmf,
    sample_lognormal,
    sample_power_law,
    _vuong,
)
from oracles import bounded_brent_oracle, nelder_mead_oracle, power_law_draw_oracle


def brute_force_ks(sample, alpha, xmin):
    """Max gap between empirical and model CDF over every integer in range."""
    tail = np.sort(sample[sample >= xmin])
    n = tail.size
    z0 = zeta(alpha, xmin)
    worst = 0.0
    for x in range(int(xmin), int(tail.max()) + 1):
        emp = np.searchsorted(tail, x, side="right") / n
        model = 1.0 - zeta(alpha, x + 1) / z0
        emp_below = np.searchsorted(tail, x, side="left") / n
        model_below = 1.0 - zeta(alpha, x) / z0
        worst = max(worst, abs(emp - model), abs(emp_below - model_below))
    return worst


def brute_force_scan(sample, min_tail=50):
    """Independent KS scan over all candidate cutoffs."""
    values = np.unique(sample)
    best = None
    for xmin in values:
        tail = sample[sample >= xmin]
        if tail.size < min_tail or np.unique(tail).size < 2:
            continue
        fit = fit_power_law(sample, xmin=int(xmin), min_tail=min_tail)
        ks = brute_force_ks(sample, fit.alpha, int(xmin))
        if best is None or ks < best[0] - 1e-15:
            best = (ks, int(xmin), fit.alpha)
    return best


class TestPowerLaw:
    def test_recovers_generating_alpha(self):
        rng = np.random.default_rng(1000)
        x = sample_power_law(2.5, 1, 10_000, rng)
        fit = fit_power_law(x)
        assert 2.4 <= fit.alpha <= 2.6
        assert fit.xmin == 1
        assert fit.tail_fraction == 1.0

    def test_constant_sample_rejected(self):
        with pytest.raises(DataError, match="degenerate tail"):
            fit_power_law(np.full(200, 7))

    def test_small_sample_rejected(self):
        with pytest.raises(DataError, match="insufficient tail"):
            fit_power_law([1, 2, 3, 4, 5])

    @pytest.mark.parametrize("seed", [4000, 4001, 4003])
    def test_planted_cutoff_found(self, seed):
        rng = np.random.default_rng(seed)
        noise = rng.integers(1, 10, size=3000)
        tail = sample_power_law(2.5, 10, 5000, rng)
        fit = fit_power_law(np.concatenate([noise, tail]))
        assert 8 <= fit.xmin <= 12

    def test_scan_matches_brute_force_oracle(self):
        rng = np.random.default_rng(77)
        x = np.concatenate(
            [rng.integers(1, 6, size=300), sample_power_law(2.2, 6, 700, rng)]
        )
        fit = fit_power_law(x)
        ks_o, xmin_o, alpha_o = brute_force_scan(x)
        assert fit.xmin == xmin_o
        assert fit.alpha == pytest.approx(alpha_o, abs=1e-9)
        assert fit.ks_distance == pytest.approx(ks_o, abs=1e-12)

    def test_ks_equals_full_range_oracle(self):
        rng = np.random.default_rng(5)
        x = sample_power_law(2.8, 3, 600, rng)
        fit = fit_power_law(x, xmin=3)
        assert fit.ks_distance == pytest.approx(brute_force_ks(x, fit.alpha, 3), abs=1e-12)

    def test_alpha_converges_with_sample_size(self):
        # mean over seeds approaches the generating exponent as n grows
        errs = []
        for n in (1000, 100_000):
            fits = []
            for seed in range(5):
                rng = np.random.default_rng(900 + seed)
                fits.append(fit_power_law(sample_power_law(2.5, 1, n, rng), xmin=1).alpha)
            errs.append(abs(np.mean(fits) - 2.5))
        assert errs[1] < 0.05

    def test_fixed_cutoff_above_sample(self):
        with pytest.raises(DataError):
            fit_power_law([1, 2] * 100, xmin=50)


class TestLognormal:
    def test_recovers_parameters(self):
        rng = np.random.default_rng(7)
        x = sample_lognormal(1.0, 0.5, 1, 10_000, rng)
        fit = fit_lognormal(x, 1)
        assert fit.mu == pytest.approx(1.0, abs=0.1)
        assert fit.sigma == pytest.approx(0.5, abs=0.1)
        assert not fit.low_confidence

    def test_two_point_tail_flagged_low_confidence(self):
        fit = fit_lognormal(np.array([3] * 40 + [4] * 60), 3)
        assert math.isfinite(fit.mu) and math.isfinite(fit.sigma)
        assert fit.low_confidence

    def test_xmin_above_sample_max_rejected(self):
        with pytest.raises(DataError, match="empty tail"):
            fit_lognormal(np.array([1, 2, 3]), 10)

    def test_degenerate_tail_rejected(self):
        with pytest.raises(DataError, match="degenerate"):
            fit_lognormal(np.array([2, 2, 2, 5]), 2 + 1)

    def test_pmf_sums_to_one(self):
        xs = np.arange(2, 20_000)
        total = np.exp(lognormal_logpmf(xs, 1.2, 0.7, 2)).sum()
        assert total == pytest.approx(1.0, abs=1e-9)


class TestCompare:
    def test_power_law_sample_favors_power_law_majority(self):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(3000 + seed)
            x = sample_power_law(2.5, 1, 10_000, rng)
            rep = fit_report(x)
            wins += rep.loglik_ratio > 0
        assert wins >= 6

    def test_lognormal_sample_decisively_favors_lognormal(self):
        rng = np.random.default_rng(2004)
        x = sample_lognormal(1.0, 0.5, 1, 10_000, rng)
        pl = fit_power_law(x, xmin=1)
        ln = fit_lognormal(x, 1)
        cmp_ = compare_fits(x, 1, pl, ln)
        assert cmp_.loglik_ratio < 0
        assert cmp_.p_value < 0.1
        assert cmp_.better == "log_normal"

    def test_identical_likelihoods_give_zero_and_one(self):
        ll = np.full(100, -2.3)
        r, p = _vuong(ll, ll.copy())
        assert r == 0.0 and p == 1.0

    def test_antisymmetric_under_role_swap(self):
        rng = np.random.default_rng(1)
        ll_a = rng.normal(-2, 0.3, size=500)
        ll_b = rng.normal(-2.1, 0.3, size=500)
        r1, p1 = _vuong(ll_a, ll_b)
        r2, p2 = _vuong(ll_b, ll_a)
        assert r1 == pytest.approx(-r2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_mismatched_tails_rejected(self):
        rng = np.random.default_rng(2)
        x = sample_power_law(2.5, 1, 500, rng)
        pl = fit_power_law(x, xmin=1)
        ln = fit_lognormal(x, 2)
        with pytest.raises(UsageError, match="mismatched"):
            compare_fits(x, 1, pl, ln)


# every (alpha, xmin) these tests draw from, plus two heavy tails
# (400 draws reach 2.5e5 and 3.2e9) and a steep tail far from xmin = 1
SAMPLER_PARAMS = [(2.5, 1), (2.5, 10), (2.2, 6), (2.8, 3), (2.0, 2), (2.2, 1), (2.3, 1),
                  (1.4, 1), (1.3, 100), (3.5, 50)]


class TestSamplers:
    def test_power_law_sampler_matches_pmf(self):
        rng = np.random.default_rng(9)
        x = sample_power_law(2.0, 2, 50_000, rng)
        assert x.min() >= 2
        # empirical frequency of the smallest value vs model pmf
        p2 = np.exp(power_law_logpmf(np.array([2.0]), 2.0, 2))[0]
        assert (x == 2).mean() == pytest.approx(p2, abs=0.01)

    def test_lognormal_sampler_respects_cutoff(self):
        rng = np.random.default_rng(10)
        x = sample_lognormal(0.0, 1.0, 3, 20_000, rng)
        assert x.min() >= 3
        p3 = np.exp(lognormal_logpmf(np.array([3.0]), 0.0, 1.0, 3))[0]
        assert (x == 3).mean() == pytest.approx(p3, abs=0.01)

    def test_lognormal_sampler_far_above_the_bulk(self):
        # the cutoff is 15.7 sigma above the median: ndtr of it rounds to 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = sample_lognormal(-1.0, 0.2, 9, 200_000, np.random.default_rng(0))
            far = sample_lognormal(0.0, 1.0, 10**6, 1000, np.random.default_rng(0))
        assert x.min() >= 9
        # the share above 9 against the survival ratio S(z(9.5)) / S(z(8.5))
        z = (np.log([8.5, 9.5]) + 1.0) / 0.2
        p_above = np.exp(log_ndtr(-z[1]) - log_ndtr(-z[0]))
        assert (x > 9).sum() == pytest.approx(p_above * x.size, rel=0.5)
        assert far.min() >= 10**6 and np.median(far) < 1.2e6
        assert len(set(far.tolist())) > 900

    def test_lognormal_survival_side_matches_the_direct_expression(self):
        # ndtr(z0) = 0.69 takes the survival side, where both are accurate
        mu, sigma, xmin = 1.0, 0.5, 4
        base = ndtr((np.log(xmin - 0.5) - mu) / sigma)
        u = np.random.default_rng(5).random(1000)
        direct = np.floor(np.exp(mu + sigma * ndtri(base + u * (1.0 - base))) + 0.5)
        x = sample_lognormal(mu, sigma, xmin, 1000, np.random.default_rng(5))
        assert x.tolist() == np.maximum(direct, xmin).astype(np.int64).tolist()

    def test_rejects_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(UsageError):
            sample_power_law(0.9, 1, 10, rng)
        with pytest.raises(UsageError):
            sample_lognormal(0.0, -1.0, 1, 10, rng)

    @pytest.mark.parametrize("alpha,xmin", SAMPLER_PARAMS)
    def test_matches_scalar_oracle(self, alpha, xmin):
        x = sample_power_law(alpha, xmin, 400, np.random.default_rng(31))
        u = np.random.default_rng(31).random(400)
        assert x.dtype == np.int64
        assert x.tolist() == [power_law_draw_oracle(alpha, xmin, v) for v in u]

    @pytest.mark.parametrize("alpha,xmin", [p for p in SAMPLER_PARAMS if p[0] >= 2.5])
    def test_oracle_matches_upward_scan(self, alpha, xmin):
        z0 = zeta(alpha, xmin)
        for u in np.random.default_rng(32).random(200):
            x = xmin
            while 1.0 - zeta(alpha, x + 1) / z0 < u:
                x += 1
            assert power_law_draw_oracle(alpha, xmin, u) == x

    def test_empty_draw(self):
        x = sample_power_law(1.5, 1, 0, np.random.default_rng(0))
        assert x.dtype == np.int64 and x.size == 0

    def test_draw_past_int64_is_data_error(self):
        with pytest.raises(DataError, match="int64"):
            sample_power_law(1.05, 1, 500, np.random.default_rng(0))


class TestBootstrap:
    def test_true_power_law_not_rejected(self):
        rng = np.random.default_rng(1)
        x = sample_power_law(2.5, 1, 3000, rng)
        fit = fit_power_law(x)
        boot = bootstrap_pvalue(x, fit, n_boot=60, seed=0)
        assert boot.p_value > 0.1
        assert boot.n_replicates == 60

    def test_exponential_tail_rejected(self):
        rng = np.random.default_rng(2)
        y = rng.geometric(0.03, size=5000)
        fit = fit_power_law(y)
        boot = bootstrap_pvalue(y, fit, n_boot=60, seed=0)
        assert boot.p_value < 0.1

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(5)
        x = sample_power_law(2.2, 1, 800, rng)
        fit = fit_power_law(x)
        a = bootstrap_pvalue(x, fit, n_boot=25, seed=3)
        b = bootstrap_pvalue(x, fit, n_boot=25, seed=3)
        assert a == b

    def test_bad_replicate_count_rejected(self):
        rng = np.random.default_rng(5)
        x = sample_power_law(2.2, 1, 200, rng)
        with pytest.raises(UsageError):
            bootstrap_pvalue(x, fit_power_law(x), n_boot=0)


def test_fit_report_fields():
    rng = np.random.default_rng(123)
    rep = fit_report(sample_power_law(2.3, 1, 5000, rng))
    d = rep.to_dict()
    assert d["alpha"] > 1 and d["xmin"] >= 1
    assert 0 <= d["ks_distance"] <= 1
    assert 0 < d["tail_fraction"] <= 1
    assert d["lognormal_sigma"] > 0
    assert d["better"] in ("power_law", "log_normal", "tie")


def random_tails(seed, count):
    """(slog, n, xmin) of `count` drawn power-law tails with two or more values."""
    rng = np.random.default_rng(seed)
    tails = []
    while len(tails) < count:
        xmin = int(rng.integers(1, 50))
        x = sample_power_law(rng.uniform(1.2, 6.0), xmin, int(rng.integers(2, 3000)), rng)
        values, counts = np.unique(x, return_counts=True)
        if values.size >= 2:
            tails.append((float(counts @ np.log(values)), int(counts.sum()), xmin))
    return tails


def alpha_oracle(slog, n, xmin):
    def nll(alpha):
        return alpha * slog + n * math.log(zeta(alpha, xmin))

    return bounded_brent_oracle(nll, _ALPHA_BOUNDS, xatol=1e-9, maxiter=500)


def lognormal_nll(sample, xmin):
    """fit_lognormal's objective and start point for the tail of sample."""
    values, counts = np.unique(sample[sample >= xmin], return_counts=True)

    def nll(params):
        mu, log_sigma = params
        sigma = math.exp(log_sigma)
        if sigma > 50.0:
            return 1e12
        return -float(counts @ lognormal_logpmf(values, mu, sigma, xmin))

    logs = np.log(sample[sample >= xmin].astype(np.float64))
    return nll, np.array([logs.mean(), math.log(max(logs.std(), 0.05))])


def wavy(x):
    return (x - 3.3) ** 4 + np.cos(5 * x)


def rosenbrock(p):
    return float((1 - p[0]) ** 2 + 100 * (p[1] - p[0] ** 2) ** 2)


class TestSolvers:
    """The in-package solvers give scipy.optimize's minimizers bit for bit."""

    def test_alpha_batch_matches_bounded_brent(self):
        tails = random_tails(11, 220)
        slog, n, xmin = (np.array(col) for col in zip(*tails))
        alphas = _pl_alpha_mle(slog, n, xmin)
        assert [a.hex() for a in alphas.tolist()] == [alpha_oracle(*t).hex() for t in tails]

    def test_brent_matches_on_random_functions(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            lo = rng.uniform(-5, 3)
            hi = lo + rng.uniform(0.01, 10)
            c = rng.normal(size=3)

            def f(x, c=c):
                return c[0] * x + c[1] * np.sin(3 * x) + c[2] ** 2 * x * x

            got = _bounded_brent(lambda x, lanes: f(x), 1, (lo, hi), 1e-9, 500)[0]
            assert got.hex() == bounded_brent_oracle(f, (lo, hi), 1e-9, 500).hex()

    @pytest.mark.parametrize("maxfun", [2, 3, 5, 8])
    def test_brent_stops_at_maxfun(self, maxfun):
        calls = []

        def f(x, lanes):
            calls.append(x.size)
            return wavy(x)

        got = _bounded_brent(f, 1, (0.0, 10.0), 1e-9, maxfun)[0]
        assert len(calls) == maxfun
        assert got.hex() == bounded_brent_oracle(wavy, (0.0, 10.0), 1e-9, maxfun).hex()
        assert got != _bounded_brent(lambda x, lanes: wavy(x), 1, (0.0, 10.0), 1e-9, 500)[0]

    @pytest.mark.parametrize("slog,n,xmin,bound", [
        (1e8, 2, 1, 0),  # log-mean far beyond any sample: alpha at the lower bound
        (math.log(2.0), 10**12, 1, 1),  # all but one value at xmin: alpha at the upper bound
    ])
    def test_alpha_at_a_bound(self, slog, n, xmin, bound):
        alpha = _pl_alpha_mle(np.array([slog]), np.array([n]), np.array([xmin]))[0]
        assert alpha == pytest.approx(_ALPHA_BOUNDS[bound], abs=1e-6)
        assert alpha.hex() == alpha_oracle(slog, n, xmin).hex()

    def test_alpha_batches_of_one_and_none(self):
        (slog, n, xmin), = random_tails(13, 1)
        alpha = _pl_alpha_mle(np.array([slog]), np.array([n]), np.array([xmin]))
        assert alpha.shape == (1,) and alpha[0].hex() == alpha_oracle(slog, n, xmin).hex()
        empty = _pl_alpha_mle(np.array([]), np.array([], dtype=np.int64),
                              np.array([], dtype=np.int64))
        assert empty.shape == (0,)

    def test_nelder_mead_matches_on_lognormal_fits(self):
        rng = np.random.default_rng(15)
        solved = 0
        while solved < 200:
            xmin = int(rng.integers(1, 10))
            size = int(rng.integers(20, 2000))
            x = np.rint(rng.lognormal(rng.uniform(-1, 3), rng.uniform(0.2, 1.5), size)) + 1
            x = x.astype(np.int64)
            if np.unique(x[x >= xmin]).size < 2:
                continue
            nll, x0 = lognormal_nll(x, xmin)
            solved += 1
            if solved % 7 == 0:
                x0[solved % 2] = 0.0  # the zero-coordinate simplex step
            got = _nelder_mead(nll, x0, 1e-8, 1e-10, 2000)
            want = nelder_mead_oracle(nll, x0, 1e-8, 1e-10, 2000)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

    @pytest.mark.parametrize("x0", [[0.0, 0.0], [0.0, 1.5], [-1.2, 0.0]])
    def test_nelder_mead_zero_coordinate(self, x0):
        x0 = np.array(x0)
        got = _nelder_mead(rosenbrock, x0, 1e-8, 1e-10, 2000)
        want = nelder_mead_oracle(rosenbrock, x0, 1e-8, 1e-10, 2000)
        assert got.tolist() == want.tolist()
        assert got == pytest.approx([1.0, 1.0], abs=1e-4)

    @pytest.mark.parametrize("maxiter", [1, 2, 5, 40])
    def test_nelder_mead_stops_at_maxiter(self, maxiter):
        x0 = np.array([-1.2, 1.0])
        got = _nelder_mead(rosenbrock, x0, 1e-8, 1e-10, maxiter)
        assert got.tolist() == nelder_mead_oracle(rosenbrock, x0, 1e-8, 1e-10, maxiter).tolist()
        assert rosenbrock(got) > 1e-6

    @pytest.mark.parametrize("seed", [77, 4000, 4001])
    def test_fixed_cutoff_at_scan_choice_gives_scan_bits(self, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([rng.integers(1, 6, size=300), sample_power_law(2.2, 6, 700, rng)])
        scan = fit_power_law(x)
        fixed = fit_power_law(x, xmin=scan.xmin)
        assert (fixed.alpha.hex(), fixed.ks_distance.hex()) == (
            scan.alpha.hex(), scan.ks_distance.hex())

    def test_no_optimizer_import(self):
        src = Path(oniongraph.__file__).resolve().parent
        for path in src.rglob("*.py"):
            assert "minimize" not in path.read_text(encoding="utf-8"), path
        # scipy.stats would add about 32 MiB to every process that imports it
        code = ("import sys, oniongraph, oniongraph.cli; "
                "sys.exit(sorted({'scipy.optimize', 'scipy.stats'} & set(sys.modules)) or 0)")
        env = {**os.environ, "PYTHONPATH": str(src.parent)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def pinned_sample(name):
    if name == "power_law":
        return sample_power_law(2.5, 1, 3000, np.random.default_rng(1))
    if name == "planted_cutoff":
        rng = np.random.default_rng(77)
        return np.concatenate([rng.integers(1, 6, size=300), sample_power_law(2.2, 6, 700, rng)])
    if name == "lognormal":
        return sample_lognormal(1.0, 0.5, 1, 2000, np.random.default_rng(7))
    return np.random.default_rng(2).geometric(0.03, size=2000)


# each fit as scipy.optimize's own solvers give it (scipy 1.17.1): xmin, then
# float.hex of alpha, ks_distance, lognormal_mu, lognormal_sigma, loglik_ratio
# and the p-value of bootstrap_pvalue(n_boot=10, seed=0), then its usable
# replicates
PINNED = {
    "power_law": (1, "0x1.415c2c6ff912ap+1", "0x1.064a294507480p-8", "-0x1.95f447df95c55p+2",
                  "0x1.2cef40b933717p+1", "0x1.cb822e4a0e700p-8", "0x1.6666666666666p-1", 10),
    "planted_cutoff": (6, "0x1.205ceadfcae6fp+1", "0x1.56f1d6428eb00p-6",
                       "0x1.122bd04ceb291p+1", "0x1.86f8b4ccd072bp-1", "0x1.be3796f167ebep+6",
                       "0x1.3333333333333p-2", 10),
    "lognormal": (5, "0x1.3ff6e3058a824p+2", "0x1.5188a90a424a0p-5", "0x1.1fcd6b237101ep+0",
                  "0x1.d4807afd8c2eap-2", "-0x1.323f410609d77p+2", "0x0.0p+0", 10),
    "geometric": (98, "0x1.4aa2f974355f5p+2", "0x1.6b7de6977e870p-5", "0x1.cadde6ca861dcp+1",
                  "0x1.2b8d80a4305b3p-1", "-0x1.7308e5388f1c0p-1", "0x1.ccccccccccccdp-1", 10),
}


@pytest.mark.parametrize("name", PINNED)
def test_fits_keep_pinned_bits(name):
    sample = pinned_sample(name)
    rep = fit_report(sample)
    pl = fit_power_law(sample)
    boot = bootstrap_pvalue(sample, pl, n_boot=10, seed=0)
    got = (rep.xmin, *(float(v).hex() for v in (rep.alpha, rep.ks_distance, rep.lognormal_mu,
                                                 rep.lognormal_sigma, rep.loglik_ratio,
                                                 boot.p_value)), boot.n_replicates)
    assert got == PINNED[name]
