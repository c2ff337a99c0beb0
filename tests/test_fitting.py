import math

import numpy as np
import pytest
from scipy.special import zeta

from oniongraph.errors import DataError, UsageError
from oniongraph.fitting import (
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
from oracles import power_law_draw_oracle


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
