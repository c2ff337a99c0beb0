"""Heavy-tail fits for degree samples: discrete power law vs log-normal.

The power law is the discrete zeta-normalized model p(x) = x^-alpha /
zeta(alpha, xmin) on integers x >= xmin; the cutoff xmin is chosen by
scanning every distinct sample value and keeping the one whose fitted
model lies closest to the empirical tail in Kolmogorov-Smirnov distance.

Degrees are integers, so the competing log-normal is discretized too
(mass of the continuous log-normal over (x-1/2, x+1/2], renormalized over
x >= xmin). Both models are then proper pmfs over the same support, which
keeps the per-point log-likelihood comparison coherent. The bundled
samplers invert these exact pmfs.

The two solvers are step-for-step ports of scipy.optimize's and give its
results bit for bit: a bounded Brent search finds alpha, in lock-step for
every candidate cutoff of a scan, and Nelder-Mead fits (mu, log sigma).
Owning them keeps scipy.optimize out of every process that imports the
package, and the fits independent of the installed scipy's optimizer.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import erfc, log_ndtr, ndtr, ndtri, ndtri_exp, zeta

from .errors import DataError, UsageError

DEFAULT_MIN_TAIL = 50
_ALPHA_BOUNDS = (1.000001, 25.0)
_LOW_CONFIDENCE_DISTINCT = 2


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float
    xmin: int
    ks_distance: float
    n_tail: int
    tail_fraction: float


@dataclass(frozen=True)
class LognormalFit:
    mu: float
    sigma: float
    xmin: int
    n_tail: int
    low_confidence: bool


@dataclass(frozen=True)
class FitComparison:
    loglik_ratio: float  # power-law total log-likelihood minus log-normal
    p_value: float
    better: str  # "power_law" | "log_normal" | "tie"


@dataclass(frozen=True)
class BootstrapResult:
    p_value: float  # share of model replicates fitting worse than the data
    n_replicates: int


@dataclass(frozen=True)
class FitReport:
    """Full report for one degree sample: both fits plus their comparison."""

    alpha: float
    xmin: int
    ks_distance: float
    tail_fraction: float
    n_tail: int
    lognormal_mu: float
    lognormal_sigma: float
    lognormal_low_confidence: bool
    loglik_ratio: float
    p_value: float
    better: str

    def to_dict(self) -> dict:
        return asdict(self)


def _as_sample(sample) -> np.ndarray:
    x = np.asarray(sample)
    if x.size == 0:
        raise DataError("empty sample")
    if not np.issubdtype(x.dtype, np.integer):
        xi = np.rint(x).astype(np.int64)
        if not np.allclose(x, xi):
            raise DataError("sample must contain integers")
        x = xi
    else:
        x = x.astype(np.int64)
    if x.min() < 1:
        raise DataError("sample values must be positive")
    return x


# -- discrete power law -----------------------------------------------------


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _bounded_brent(f, size: int, bounds, xatol: float, maxfun: int) -> np.ndarray:
    """The argmin of each of `size` scalar functions on one interval.

    Every lane runs scipy.optimize's bounded Brent method step for step, all
    in lock-step. f(x, lanes) returns the objectives of the problems `lanes`
    at the points x. A lane leaves the loop when it converges; every lane
    stops after maxfun evaluations.
    """
    lo, hi = bounds
    out = np.empty(size)
    lane = np.arange(size)
    a, b = np.full(size, float(lo)), np.full(size, float(hi))
    xf = nfc = fulc = a + _GOLDEN * (b - a)  # the best, second and third points
    fx = fnfc = ffulc = f(xf, lane)
    e = rat = np.zeros(size)  # the step before last, and the last step
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        go = np.abs(xf - xm) > tol2 - 0.5 * (b - a)
        out[lane[~go]] = xf[~go]
        if not go.any():
            return out
        lane, a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat, xm, tol1, tol2 = (
            v[go] for v in (lane, a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat, xm, tol1, tol2)
        )
        # a parabola through the three points, kept where it is acceptable;
        # golden-section lanes compute it too, and may divide by q == 0
        para = np.abs(e) > tol1
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = (para & (np.abs(p) < np.abs(0.5 * q * e))
                     & (p > q * (a - xf)) & (p < q * (b - xf)))
        e = np.where(para, rat, e)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (p + 0.0) / q
        x = xf + step
        step = np.where((x - a < tol2) | (b - x < tol2),
                        tol1 * (np.sign(xm - xf) + ((xm - xf) == 0)), step)
        e = np.where(parabolic, e, np.where(xf >= xm, a - xf, b - xf))
        rat = np.where(parabolic, step, _GOLDEN * e)
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = f(x, lane)
        num += 1
        # shrink the bracket onto the better point and rotate the points
        better = fu <= fx
        a = np.where(better & (x >= xf), xf, np.where(~better & (x < xf), x, a))
        b = np.where(better & (x < xf), xf, np.where(~better & (x >= xf), x, b))
        second = ~better & ((fu <= fnfc) | (nfc == xf))
        third = ~better & ~second & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        fulc, ffulc = (np.where(better | second, nfc, np.where(third, x, fulc)),
                       np.where(better | second, fnfc, np.where(third, fu, ffulc)))
        nfc, fnfc = (np.where(better, xf, np.where(second, x, nfc)),
                     np.where(better, fx, np.where(second, fu, fnfc)))
        xf, fx = np.where(better, x, xf), np.where(better, fu, fx)
        if num >= maxfun:
            out[lane] = xf
            return out


def _pl_alpha_mle(slog: np.ndarray, n: np.ndarray, xmin: np.ndarray) -> np.ndarray:
    """MLE alpha of the discrete power law on each of a batch of tails.

    Tail i has n[i] observations at or above xmin[i] whose logs sum to
    slog[i]. One zeta call per Brent step serves every unconverged tail.
    """
    n = n.astype(np.float64)

    def nll(alpha: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        logz = [math.log(z) for z in zeta(alpha, xmin[lanes]).tolist()]
        return alpha * slog[lanes] + n[lanes] * np.array(logz)

    return _bounded_brent(nll, slog.size, _ALPHA_BOUNDS, xatol=1e-9, maxfun=500)


def _pl_ks(values: np.ndarray, counts: np.ndarray, alpha: float, xmin: int) -> float:
    """Exact sup-distance between the empirical tail CDF and the model CDF.

    Both are step functions jumping only at integers, so the supremum is
    attained either at an observed value or just below one; comparing the
    model CDF and its left limit against the empirical steps covers both.
    """
    n = counts.sum()
    emp = np.cumsum(counts) / n
    z0 = zeta(alpha, xmin)
    model_upper = 1.0 - zeta(alpha, values + 1) / z0  # P(X <= u_j)
    model_lower = 1.0 - zeta(alpha, values) / z0  # P(X <= u_j - 1)
    emp_prev = np.concatenate([[0.0], emp[:-1]])
    gaps = np.maximum(np.abs(emp - model_upper), np.abs(emp_prev - model_lower))
    return float(gaps.max())


def fit_power_law(
    sample, min_tail: int = DEFAULT_MIN_TAIL, xmin: int | None = None
) -> PowerLawFit:
    """Clauset-style discrete fit: MLE alpha per candidate cutoff, cutoff
    chosen by minimum KS distance (ties to the smallest cutoff).

    Candidates are the distinct sample values whose tail holds at least
    min_tail observations and at least two distinct values. Passing xmin
    pins the cutoff instead of scanning (e.g. to compare models on a
    chosen tail).
    """
    x = _as_sample(sample)
    values, counts = np.unique(x, return_counts=True)
    if values.size < 2:
        raise DataError("degenerate tail: sample needs at least two distinct values")
    n = x.size

    tail_sizes = counts[::-1].cumsum()[::-1]  # tail count at each distinct value
    if xmin is not None:
        j = int(np.searchsorted(values, xmin))
        n_tail = int(tail_sizes[j]) if j < values.size else 0
        if n_tail < min_tail:
            raise DataError(f"insufficient tail: {n_tail} observations at cutoff {xmin}")
        if values.size - j < 2:
            raise DataError("degenerate tail: fixed cutoff leaves one distinct value")
        cands = np.array([j])
        xmins = np.array([int(xmin)])
    else:
        cands = np.flatnonzero(tail_sizes >= min_tail)
        if cands.size == 0:
            raise DataError(f"insufficient tail: no cutoff keeps {min_tail} observations")
        cands = cands[cands < values.size - 1]  # at least two distinct values
        if cands.size == 0:
            raise DataError("degenerate tail: no candidate cutoff with two distinct values")
        xmins = values[cands]
    # each tail logs its own slice: a slice of one shared log array may sum
    # in another order and move alpha in the last bit
    slog = np.array([float(counts[j:] @ np.log(values[j:])) for j in cands])
    alphas = _pl_alpha_mle(slog, tail_sizes[cands], xmins)
    best = None
    for j, cut, alpha in zip(cands.tolist(), xmins.tolist(), alphas.tolist()):
        ks = _pl_ks(values[j:], counts[j:], alpha, cut)
        if best is None or ks < best[0] - 1e-15:
            best = (ks, cut, alpha, int(tail_sizes[j]))
    ks, xmin, alpha, n_tail = best
    return PowerLawFit(alpha=alpha, xmin=xmin, ks_distance=ks, n_tail=n_tail,
                       tail_fraction=n_tail / n)


def power_law_logpmf(x: np.ndarray, alpha: float, xmin: int) -> np.ndarray:
    return -alpha * np.log(x) - math.log(zeta(alpha, xmin))


def sample_power_law(alpha: float, xmin: int, size: int, rng) -> np.ndarray:
    """Inverse-CDF draws from the discrete power law (exact).

    Each draw is the smallest x >= xmin with P(X <= x) >= u. All draws are
    searched at once: an upper bound doubles away from xmin until it covers
    a draw, then every draw bisects between its last two bounds. A draw
    past the int64 range is a DataError.
    """
    if alpha <= 1:
        raise UsageError("alpha must exceed 1")
    u = rng.random(size)
    z0 = zeta(alpha, xmin)

    def cdf(x):  # P(X <= x); x + 1 must fit in int64
        return 1.0 - zeta(alpha, x + 1) / z0

    top = np.iinfo(np.int64).max - 1
    lo = np.full(size, xmin, dtype=np.int64)  # each draw is >= lo ...
    hi = lo.copy()  # ... and <= hi once its bound covers it
    open_, bound, step = np.arange(size), int(xmin), 1
    while (open_ := open_[cdf(bound) < u[open_]]).size:
        if bound == top:
            raise DataError(f"power-law draw beyond the int64 range (alpha {alpha:g})")
        lo[open_] = bound + 1
        bound, step = min(bound + step, top), 2 * step
        hi[open_] = bound
    open_ = np.flatnonzero(lo < hi)
    while open_.size:
        mid = lo[open_] + (hi[open_] - lo[open_]) // 2
        covered = cdf(mid) >= u[open_]
        hi[open_[covered]] = mid[covered]
        lo[open_[~covered]] = mid[~covered] + 1
        open_ = open_[lo[open_] < hi[open_]]
    return lo


# -- discretized truncated log-normal ----------------------------------------


def _ln_z(t: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    return (np.log(t) - mu) / sigma


def lognormal_logpmf(x: np.ndarray, mu: float, sigma: float, xmin: int) -> np.ndarray:
    """log pmf of the bin-rounded log-normal truncated below xmin."""
    x = np.asarray(x, dtype=np.float64)
    upper = ndtr(_ln_z(x + 0.5, mu, sigma))
    lower = ndtr(_ln_z(x - 0.5, mu, sigma))
    norm = 1.0 - ndtr(_ln_z(xmin - 0.5, mu, sigma))
    mass = np.maximum(upper - lower, 1e-300)
    return np.log(mass) - math.log(max(norm, 1e-300))


def _nelder_mead(f, x0: np.ndarray, xatol: float, fatol: float, maxiter: int) -> np.ndarray:
    """The argmin of f from x0 by scipy.optimize's Nelder-Mead method (not
    adaptive, no bounds, no evaluation cap), step for step.

    Returns the best vertex once the simplex spans at most xatol in every
    coordinate and fatol in value, or after maxiter iterations.
    """
    n = x0.size
    sim = np.empty((n + 1, n), dtype=x0.dtype)
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([f(v) for v in sim], dtype=float)
    for _ in range(2):  # scipy sorts twice here; argsort may permute ties
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]  # reflection
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]  # expansion
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]  # outside contraction
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]  # inside contraction
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0]


def fit_lognormal(sample, xmin: int) -> LognormalFit:
    """MLE of the truncated discretized log-normal on the tail x >= xmin."""
    x = _as_sample(sample)
    tail = x[x >= xmin]
    if tail.size == 0:
        raise DataError(f"empty tail: no sample values at or above {xmin}")
    values, counts = np.unique(tail, return_counts=True)
    if values.size < 2:
        raise DataError("degenerate tail: log-normal fit needs two distinct values")

    logs = np.log(tail.astype(np.float64))
    mu0 = float(logs.mean())
    sigma0 = max(float(logs.std()), 0.05)

    def nll(params) -> float:
        mu, log_sigma = params
        sigma = math.exp(log_sigma)
        if sigma > 50.0:
            return 1e12
        ll = counts @ lognormal_logpmf(values, mu, sigma, xmin)
        return -float(ll)

    best = _nelder_mead(nll, np.array([mu0, math.log(sigma0)]),
                        xatol=1e-8, fatol=1e-10, maxiter=2000)
    mu, sigma = float(best[0]), float(math.exp(best[1]))
    return LognormalFit(mu=mu, sigma=sigma, xmin=int(xmin), n_tail=int(tail.size),
                        low_confidence=values.size <= _LOW_CONFIDENCE_DISTINCT)


def sample_lognormal(mu: float, sigma: float, xmin: int, size: int, rng) -> np.ndarray:
    """Inverse-CDF draws from the same discretized truncated log-normal."""
    if sigma <= 0:
        raise UsageError("sigma must be positive")
    u = rng.random(size)
    z0 = _ln_z(np.array([xmin - 0.5]), mu, sigma)[0]
    base = ndtr(z0)
    if base > 0.5:
        # above the median 1 - base loses digits, and far above it rounds to
        # 0, so draw on the survival side: ndtr(-z) = ndtr(-z0) * (1 - u)
        z = -ndtri_exp(log_ndtr(-z0) + np.log1p(-u))
    else:
        z = ndtri(base + u * (1.0 - base))
    y = np.exp(mu + sigma * z)
    x = np.floor(y + 0.5).astype(np.int64)  # the bin (x-1/2, x+1/2] containing y
    return np.maximum(x, xmin)


def bootstrap_pvalue(
    sample,
    fit: PowerLawFit | FitReport,
    n_boot: int = 100,
    seed: int = 0,
    min_tail: int = DEFAULT_MIN_TAIL,
) -> BootstrapResult:
    """Semi-parametric goodness-of-fit test for the power-law fit.

    Each replicate mixes draws from the fitted tail model with resamples of
    the empirical data below the cutoff, is refitted from scratch, and its
    KS distance compared with the observed one; the p-value is the share of
    replicates fitting at least as badly. Small p rejects the power law.
    Expensive (n_boot full refits), hence off by default everywhere.
    `fit` may be a FitReport: only its alpha, xmin, n_tail and ks_distance count.
    """
    if n_boot < 1:
        raise UsageError("n_boot must be >= 1")
    x = _as_sample(sample)
    rng = np.random.default_rng(seed)
    below = x[x < fit.xmin]
    n = x.size
    p_tail = fit.n_tail / n
    worse = 0
    usable = 0
    for _ in range(n_boot):
        k_tail = int((rng.random(n) < p_tail).sum()) if below.size else n
        synth = np.empty(n, dtype=np.int64)
        synth[:k_tail] = sample_power_law(fit.alpha, fit.xmin, k_tail, rng)
        if n - k_tail:
            synth[k_tail:] = rng.choice(below, size=n - k_tail, replace=True)
        try:
            refit = fit_power_law(synth, min_tail=min_tail)
        except DataError:
            continue  # degenerate replicate, drop it
        usable += 1
        if refit.ks_distance >= fit.ks_distance - 1e-15:
            worse += 1
    if usable == 0:
        raise DataError("all bootstrap replicates were degenerate")
    return BootstrapResult(p_value=worse / usable, n_replicates=usable)


# -- model comparison ----------------------------------------------------------


def _vuong(ll_a: np.ndarray, ll_b: np.ndarray) -> tuple[float, float]:
    """Normalized log-likelihood ratio test (normal approximation).

    Returns (R, p) with R = sum(ll_a - ll_b); p is the two-sided tail
    probability of |R| under the ratio's estimated variance. Identical
    per-point likelihoods give (0, 1).
    """
    diff = ll_a - ll_b
    r = float(diff.sum())
    n = diff.size
    sd = float(diff.std())
    if sd < 1e-12:
        return (r, 1.0 if abs(r) < 1e-9 else 0.0)
    z = r / (sd * math.sqrt(n))
    return r, float(erfc(abs(z) / math.sqrt(2.0)))


def compare_fits(sample, xmin: int, pl: PowerLawFit, ln: LognormalFit) -> FitComparison:
    """Per-point log-likelihood comparison of the two fitted models on the
    shared tail; positive ratio favors the power law."""
    if pl.xmin != xmin or ln.xmin != xmin:
        raise UsageError(
            f"mismatched tails: cutoffs {pl.xmin} / {ln.xmin} do not match {xmin}"
        )
    x = _as_sample(sample)
    tail = x[x >= xmin].astype(np.float64)
    if tail.size == 0:
        raise UsageError(f"no sample values at or above {xmin}")
    ll_pl = power_law_logpmf(tail, pl.alpha, xmin)
    ll_ln = lognormal_logpmf(tail, ln.mu, ln.sigma, xmin)
    r, p = _vuong(ll_pl, ll_ln)
    if abs(r) < 1e-9:
        better = "tie"
    else:
        better = "power_law" if r > 0 else "log_normal"
    return FitComparison(loglik_ratio=r, p_value=p, better=better)


def fit_report(sample, min_tail: int = DEFAULT_MIN_TAIL) -> FitReport:
    """Run both fits on the KS-selected tail and compare them."""
    pl = fit_power_law(sample, min_tail=min_tail)
    ln = fit_lognormal(sample, pl.xmin)
    cmp_ = compare_fits(sample, pl.xmin, pl, ln)
    return FitReport(
        alpha=pl.alpha,
        xmin=pl.xmin,
        ks_distance=pl.ks_distance,
        tail_fraction=pl.tail_fraction,
        n_tail=pl.n_tail,
        lognormal_mu=ln.mu,
        lognormal_sigma=ln.sigma,
        lognormal_low_confidence=ln.low_confidence,
        loglik_ratio=cmp_.loglik_ratio,
        p_value=cmp_.p_value,
        better=cmp_.better,
    )
