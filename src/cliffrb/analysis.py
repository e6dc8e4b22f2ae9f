"""Statistical analysis of randomized-benchmarking datasets.

Survival-probability data (per sequence length: mean fidelity and variance of
the mean) is fit to one of four exponential-decay models by weighted nonlinear
least squares; uncertainty comes from the Jacobian at the optimum and from
semi-parametric bootstrap resampling.  Also houses the interleaved-gate error
extraction and the depolarization-strength conversions used to compare
experiments on different numbers of qubits.

There is one Levenberg-Marquardt refiner, `_lm`, which works on R stacked
problems at once: `fit` is its R = 1 case, and `bootstrap` refits all its
replicates in one call, each bit for bit as a lone fit of that replicate
would come out.  Replicate fits skip the covariance and the chi-squared test.
The fit's separable start, `_initial_guess`, likewise solves each stage's
least-squares problems in one stacked LAPACK call, row by row as
np.linalg.lstsq would.
The bootstrap's RNG draw order (per replicate, per length: one `integers`
call, then one `binomial` call; see `_resample`) is an interface: a seed
always gives the same replicates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.special import gammaincc

from .protocol import RBDataset

VARIANCE_FLOOR = 1e-12
SIGNIFICANCE = 0.95
# chi^2 quantile at 0.95 for 2 dof, used for the confidence ellipse
_ELLIPSE_QUANTILE = 5.991464547107979


def alpha_n(n_qubits: int) -> float:
    """Depolarizing prefactor (D-1)/D relating infidelity to strength."""
    d = 2 ** n_qubits
    return (d - 1) / d


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail of the chi-squared distribution (regularized gamma)."""
    if dof <= 0:
        raise ValueError("dof must be positive")
    if x < 0:
        return 1.0
    return float(gammaincc(dof / 2.0, x / 2.0))


# -- decay models -------------------------------------------------------------


@dataclass(frozen=True)
class DecayModel:
    tag: str
    param_names: Tuple[str, ...]
    func: Callable[[np.ndarray, np.ndarray, float], np.ndarray]

    @property
    def n_params(self) -> int:
        return len(self.param_names)


def _f_main(l, th, alpha):
    eps_s, eps_m = th
    return (1 - alpha) + alpha * (1 - eps_m / alpha) * (1 - eps_s / alpha) ** l


def _f_main_app(l, th, alpha):
    eps_s, eps_m = th
    return 0.5 + 0.5 * (1 - eps_m / alpha) * (1 - eps_s / alpha) ** l


def _f_three_param(l, th, alpha):
    eps_s, eps_m, c = th
    return c * _f_main(l, (eps_s, eps_m), alpha)


def _f_magesan(l, th, alpha):
    eps_s, eps_m, a, b = th
    q = 1 - eps_s / alpha
    return a + alpha * (1 - eps_m / alpha) * q ** l + b * (l - 1) * q ** (l - 2.0)


MODELS: Dict[str, DecayModel] = {
    "main": DecayModel("main", ("eps_s", "eps_m"), _f_main),
    "main-app": DecayModel("main-app", ("eps_s", "eps_m"), _f_main_app),
    "three-param": DecayModel("three-param", ("eps_s", "eps_m", "C"),
                              _f_three_param),
    "magesan": DecayModel("magesan", ("eps_s", "eps_m", "a", "b"), _f_magesan),
}


# -- per-length statistics ----------------------------------------------------


@dataclass(frozen=True)
class LengthStats:
    length: int
    n_sequences: int
    mean: float
    var_of_mean: float  # nan when only a single sequence was measured
    single_sequence: bool


def _length_moments(p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row mean and variance of the mean of an (R, n_l) block of
    survival fractions; the variance is 0 when n_l is 1."""
    n_l = p.shape[1]
    var = (np.var(p, axis=1, ddof=1) / n_l if n_l >= 2
           else np.zeros(len(p)))
    return p.mean(axis=1), var


def length_statistics(ds: RBDataset) -> List[LengthStats]:
    """Mean survival and unbiased variance-of-the-mean per sequence length."""
    out = []
    for l in ds.lengths():
        p = ds.fidelities(l)
        mean, var = _length_moments(p[None, :])
        single = len(p) < 2
        out.append(LengthStats(l, len(p), float(mean[0]),
                               float("nan") if single else float(var[0]),
                               single))
    return out


# -- weighted nonlinear fit ---------------------------------------------------


class FitError(RuntimeError):
    def __init__(self, message: str, trace: Optional[List[float]] = None):
        super().__init__(message)
        self.trace = trace or []


@dataclass
class FitReport:
    model: str
    alpha: float
    param_names: Tuple[str, ...]
    params: np.ndarray
    covariance: np.ndarray
    chi2: float
    dof: int
    p_value: float
    significant: bool  # True when the fit fails the 0.95 goodness cut
    lengths: np.ndarray
    residuals: np.ndarray
    n_iterations: int = 0
    objective_trace: List[float] = field(default_factory=list)
    converged: bool = True  # False when no damped step lowered the objective

    @property
    def eps_s(self) -> float:
        return float(self.params[0])

    @property
    def eps_m(self) -> float:
        return float(self.params[1])

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def to_json(self) -> str:
        return json.dumps({
            "model": self.model,
            "alpha": self.alpha,
            "params": dict(zip(self.param_names, map(float, self.params))),
            "covariance": self.covariance.tolist(),
            "chi2": self.chi2,
            "dof": self.dof,
            "p_value": self.p_value,
            "significant": self.significant,
            "lengths": self.lengths.tolist(),
            "residuals": self.residuals.tolist(),
        }, indent=2)


def _design_columns(model: DecayModel, lengths: np.ndarray,
                    q: np.ndarray) -> np.ndarray:
    """(Q, L, p) basis functions multiplying the linear parameters, one
    slice per decay base in the (Q, 1) column q."""
    decay = q ** lengths
    if model.tag in ("main", "main-app"):
        return decay[:, :, None]
    ones = np.ones_like(decay)
    if model.tag == "three-param":
        return np.stack([ones, decay], axis=-1)
    return np.stack([ones, decay, (lengths - 1) * q ** (lengths - 2.0)],
                    axis=-1)


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _linear_solve(model: DecayModel, lengths, f, alpha,
                  qs) -> Tuple[np.ndarray, np.ndarray]:
    """(Q, p) linear parameters and (Q,) residual sums of squares of the
    least-squares fits at each decay base in qs.

    One stacked call of the LAPACK gelsd gufunc that np.linalg.lstsq wraps,
    with its rcond and error handling, so each row is bit for bit what
    np.linalg.lstsq gives on that q alone (numpy >= 2.0 names it `lstsq`).
    """
    asym = {"main": 1 - alpha, "main-app": 0.5}.get(model.tag, 0.0)
    design = _design_columns(model, lengths, np.asarray(qs, float)[:, None])
    y = (f - asym)[:, None]
    rcond = np.finfo(float).eps * max(design.shape[1:])  # lstsq's default
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        coef = _umath_linalg.lstsq(design, y, rcond, signature="ddd->ddid")[0]
    resid = y[:, 0] - np.matmul(design, coef)[:, :, 0]
    return coef[:, :, 0], _sumsq(resid)


def _initial_guess(model: DecayModel, lengths: np.ndarray, f: np.ndarray,
                   alpha: float) -> np.ndarray:
    """Separable start: scan the decay base q, solving the (linear) remaining
    parameters exactly at each candidate, then refine q by golden section.

    Each stage is one stacked LAPACK call (`_linear_solve`), whose rows are
    independent like `_lm`'s: the scan, each golden-section step of all local
    minima at once, the candidates' costs and the final coefficients.  The
    steps stop early once no bracket moves, as every later step would repeat.
    """
    lo, hi = 1e-6, 1 - 1e-9
    grid = np.linspace(lo, hi, 400)
    # seed the grid with a log-linear estimate when the data allows one
    y = f - (0.5 if model.tag == "main-app" else 1 - alpha)
    if np.sum(y > 1e-12) >= 2:
        mask = y > 1e-12
        slope, _ = np.polyfit(lengths[mask], np.log(y[mask]), 1)
        grid = np.append(grid, np.clip(np.exp(slope), lo, hi))
    costs = _linear_solve(model, lengths, f, alpha, grid)[1]
    order = np.argsort(grid)
    grid, costs = grid[order], costs[order]
    # the scan can expose several local minima; polish each candidate basin
    local = np.flatnonzero(np.r_[True, costs[1:] <= costs[:-1]]
                           & np.r_[costs[:-1] <= costs[1:], True])
    a = grid[np.maximum(local - 1, 0)]
    b = grid[np.minimum(local + 1, len(grid) - 1)]
    phi = (np.sqrt(5) - 1) / 2
    for _ in range(80):
        c, d = b - phi * (b - a), a + phi * (b - a)
        cost = _linear_solve(model, lengths, f, alpha, np.r_[c, d])[1]
        left = cost[:len(c)] <= cost[len(c):]
        a_next, b_next = np.where(left, a, c), np.where(left, d, b)
        if np.array_equal(a_next, a) and np.array_equal(b_next, b):
            break
        a, b = a_next, b_next
    cands = (a + b) / 2
    q, best = None, np.inf
    for cand, cost in zip(cands, _linear_solve(model, lengths, f, alpha,
                                               cands)[1]):
        if cost < best:
            q, best = cand, cost
    coef = _linear_solve(model, lengths, f, alpha, [q])[0][0]
    eps_s = alpha * (1 - q)
    if model.tag == "main":
        return np.array([eps_s, alpha - coef[0]])
    if model.tag == "main-app":
        return np.array([eps_s, alpha * (1 - 2 * coef[0])])
    if model.tag == "three-param":
        c = coef[0] / (1 - alpha)
        scale = c if abs(c) > 1e-12 else 1.0
        return np.array([eps_s, alpha - coef[1] / scale, scale])
    # magesan: coef = (a, amplitude, b)
    return np.array([eps_s, alpha - coef[1], coef[0], coef[2]])


def _residuals(m: DecayModel, lengths, f, sigma, theta, alpha) -> np.ndarray:
    """(R, L) weighted residuals of R stacked parameter rows."""
    return (f - m.func(lengths, theta.T[:, :, None], alpha)) / sigma


def _sumsq(r: np.ndarray) -> np.ndarray:
    """Row-wise r . r, reduced per row exactly as a 1-d dot product."""
    return np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0]


def _jacobian(m: DecayModel, lengths, theta, alpha) -> np.ndarray:
    """(R, L, p) central-difference Jacobians of R stacked parameter rows."""
    jac = np.empty((len(theta), len(lengths), theta.shape[1]))
    for i in range(theta.shape[1]):
        h = 1e-6 * np.maximum(np.abs(theta[:, i]), 1.0)
        up = theta.copy()
        dn = theta.copy()
        up[:, i] += h
        dn[:, i] -= h
        jac[:, :, i] = (m.func(lengths, up.T[:, :, None], alpha)
                        - m.func(lengths, dn.T[:, :, None], alpha)
                        ) / (2 * h)[:, None]
    return jac


def _solve(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked solve of a x = b; a singular slice is dropped from the mask
    instead of failing the whole stack."""
    try:
        return np.linalg.solve(a, b), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        ok = np.ones(len(a), dtype=bool)
        for k in range(len(a)):
            try:
                x[k] = np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                ok[k] = False
        return x, ok


# _lm stop reasons, per row
_CONVERGED, _STALLED, _ITERATION_LIMIT = 0, 1, 2
_MAX_ITERATIONS = 200  # accepted steps before a row stops at _ITERATION_LIMIT


@dataclass
class _LMResult:
    theta: np.ndarray    # (R, p) final parameters
    status: np.ndarray   # (R,) _CONVERGED, _STALLED or _ITERATION_LIMIT
    steps: np.ndarray    # (R,) accepted steps
    # row 0's objective at the start and after each of its accepted steps:
    # the objective trace `fit`, which passes one row, reports
    trace: List[float]


def _lm(m: DecayModel, lengths: np.ndarray, f: np.ndarray, sigma: np.ndarray,
        alpha: float, theta: np.ndarray) -> _LMResult:
    """Levenberg-Marquardt on R weighted least-squares problems at once.

    f and sigma are (R, L), theta the (R, p) starting points.  Each row keeps
    its own damping lambda: an iteration tries up to 50 damped Gauss-Newton
    steps, multiplying lambda by 10 after each that does not lower the row's
    objective, and divides it by 3 after an accepted step.  A row stops when
    the relative decrease or the largest step component falls below 1e-14
    (_CONVERGED), when no damped step lowers its objective (_STALLED), or
    after _MAX_ITERATIONS accepted steps (_ITERATION_LIMIT).

    Every product and sum (matmul for J^T J, J^T r and r . r, the stacked
    solve, elementwise powers) reduces each row exactly as the 2-d problem
    of that row alone would, so a row's result is bit for bit independent
    of the other rows; einsum or (r * r).sum(1) would not be.
    """
    theta = theta.copy()
    n_rows, n_params = theta.shape
    r = _residuals(m, lengths, f, sigma, theta, alpha)
    cost = _sumsq(r)
    lam = np.full(n_rows, 1e-3)
    status = np.full(n_rows, _ITERATION_LIMIT)
    steps = np.zeros(n_rows, dtype=int)
    trace = [float(cost[0])]
    diag = np.arange(n_params)
    active = np.arange(n_rows)
    for _ in range(_MAX_ITERATIONS):
        if not len(active):
            break
        jac = (_jacobian(m, lengths, theta[active], alpha)
               / sigma[active, :, None])
        jt = jac.transpose(0, 2, 1)
        jtj = np.matmul(jt, jac)
        g = np.matmul(jt, r[active][:, :, None])
        damp = np.zeros_like(jtj)
        damp[:, diag, diag] = np.maximum(jtj[:, diag, diag], 1e-30)
        going_on = np.zeros(n_rows, dtype=bool)
        todo = np.arange(len(active))  # positions in `active` without a step
        for _ in range(50):
            if not len(todo):
                break
            rows = active[todo]
            step, solved = _solve(
                jtj[todo] + lam[rows][:, None, None] * damp[todo], g[todo])
            step = step[:, :, 0]
            trial = theta[rows] + step
            r_trial = _residuals(m, lengths, f[rows], sigma[rows], trial,
                                 alpha)
            cost_trial = _sumsq(r_trial)
            ok = solved & np.isfinite(cost_trial) & (cost_trial <= cost[rows])
            lam[rows[~ok]] *= 10
            rows = rows[ok]
            rel = ((cost[rows] - cost_trial[ok])
                   / np.maximum(cost[rows], 1e-300))
            small = (rel < 1e-14) | (np.max(np.abs(step[ok]), axis=1) < 1e-14)
            theta[rows], r[rows], cost[rows] = (trial[ok], r_trial[ok],
                                                cost_trial[ok])
            steps[rows] += 1
            lam[rows] = np.maximum(lam[rows] / 3, 1e-12)
            status[rows[small]] = _CONVERGED
            going_on[rows[~small]] = True
            todo = todo[~ok]
        status[active[todo]] = _STALLED
        if steps[0] == len(trace):
            trace.append(float(cost[0]))
        active = np.flatnonzero(going_on)
    return _LMResult(theta, status, steps, trace)


def fit(ds: RBDataset, model: str, alpha: float) -> FitReport:
    """Weighted nonlinear least-squares fit of a decay model.

    Minimizes sum_l (F_l - model(l))^2 / sigma_l^2 with `_lm` on a single
    row.  No box constraints: unphysical parameter values are left as
    diagnostics.  Raises FitError (with the objective trace) on
    non-convergence.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    m = MODELS[model]
    stats = length_statistics(ds)
    lengths = np.array([s.length for s in stats], dtype=float)
    if len(lengths) < m.n_params + 1:
        raise ValueError("need more distinct lengths than parameters")
    f_l = np.array([s.mean for s in stats])
    var = np.array([s.var_of_mean for s in stats])
    var = np.where(np.isnan(var), 0.0, var)
    sigma = np.sqrt(np.maximum(var, VARIANCE_FLOOR))

    theta = _initial_guess(m, lengths, f_l, alpha)
    res = _lm(m, lengths, f_l[None, :], sigma[None, :], alpha, theta[None, :])
    trace = res.trace
    if res.status[0] == _ITERATION_LIMIT:
        raise FitError("fit did not converge", trace)
    theta, cost = res.theta[0], trace[-1]

    jac = _jacobian(m, lengths, theta[None, :], alpha)[0] / sigma[:, None]
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    dof = len(lengths) - m.n_params
    p = chi2_sf(cost, dof) if dof > 0 else float("nan")
    return FitReport(model=model, alpha=alpha, param_names=m.param_names,
                     params=theta, covariance=cov, chi2=cost, dof=dof,
                     p_value=p, significant=bool(p < 1 - SIGNIFICANCE),
                     lengths=lengths.astype(int), residuals=f_l - m.func(
                         lengths, theta, alpha),
                     n_iterations=len(trace) - 1, objective_trace=trace,
                     converged=bool(res.status[0] == _CONVERGED))


# -- bootstrap ----------------------------------------------------------------


@dataclass
class BootstrapReport:
    n_resamples: int
    param_names: Tuple[str, ...]
    samples: np.ndarray       # (n_ok, n_params) refit parameter vectors
    original: np.ndarray
    means: np.ndarray
    biases: np.ndarray
    standard_errors: np.ndarray
    bias_significant: np.ndarray  # |bias| > 0.25 * SE, per parameter
    ellipse_center: np.ndarray    # (eps_s, eps_m) plane
    ellipse_axes: np.ndarray      # rows are the two semi-axis vectors
    n_failures: int = 0
    lm_iterations: int = 0  # accepted LM steps summed over all replicates

    def to_json(self) -> str:
        return json.dumps({
            "n_resamples": self.n_resamples,
            "param_names": list(self.param_names),
            "original": self.original.tolist(),
            "means": self.means.tolist(),
            "biases": self.biases.tolist(),
            "standard_errors": self.standard_errors.tolist(),
            "bias_significant": self.bias_significant.tolist(),
            "ellipse_center": self.ellipse_center.tolist(),
            "ellipse_axes": self.ellipse_axes.tolist(),
            "n_failures": self.n_failures,
        }, indent=2)


def _resample(ds: RBDataset, n_resamples: int, rng: np.random.Generator
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-length statistics of n_resamples bootstrap replicates.

    For each replicate, and for each length in the order it first appears
    in ds.rows, one `rng.integers(0, n_l, size=n_l)` call picks sequences
    with replacement and one `rng.binomial` call redraws their counts about
    the picked sequences' observed rates.  This draw order is an interface.
    Returns the sorted lengths and the (R, L) means and variances of the
    mean.
    """
    by_length: Dict[int, List[Tuple[int, int]]] = {}
    for _, l, _, ns, nc in ds.rows:
        by_length.setdefault(l, []).append((ns, nc))
    blocks = {}  # length -> (columns, shots, observed rates)
    start = 0
    for l, seqs in by_length.items():
        ns, nc = (np.array(column) for column in zip(*seqs))
        blocks[l] = (slice(start, start + len(seqs)), ns, nc / ns)
        start += len(seqs)
    # compact (R, N) buffers: the picked index within the length block and
    # the drawn count, converted to survival one block at a time below
    most = max(max(ns.max(), len(ns)) for _, ns, _ in blocks.values())
    picks = np.empty((n_resamples, start), dtype=np.min_scalar_type(most))
    counts = np.empty_like(picks)
    for row_picks, row_counts in zip(picks, counts):
        for sl, ns, rate in blocks.values():
            k = rng.integers(0, len(ns), size=len(ns))
            row_picks[sl] = k
            row_counts[sl] = rng.binomial(ns[k], rate[k])
    lengths = sorted(blocks)
    f = np.empty((n_resamples, len(lengths)))
    var = np.empty_like(f)
    for j, l in enumerate(lengths):
        sl, ns, _ = blocks[l]
        f[:, j], var[:, j] = _length_moments(counts[:, sl]
                                             / ns[picks[:, sl]])
    return np.array(lengths, dtype=float), f, var


def bootstrap(ds: RBDataset, model: str, alpha: float, n_resamples: int = 1000,
              rng: Optional[np.random.Generator] = None) -> BootstrapReport:
    """Semi-parametric bootstrap of a decay fit.

    Each replicate resamples sequences with replacement within every length,
    redraws each resampled sequence's correct-count binomially about its
    observed rate, and refits.  The draws fill one (R, N) count array in the
    fixed order `_resample` documents, which is an interface.  All R
    replicates are then refit by one stacked `_lm` call started at the
    original fit; a replicate fails only when it reaches the iteration
    limit, and no replicate's covariance is computed.  Aborts if more than
    10% of replicate fits fail.  Needs at least two resamples.
    """
    if n_resamples < 2:
        raise ValueError(
            f"need at least 2 bootstrap resamples, got {n_resamples}")
    rng = np.random.default_rng() if rng is None else rng
    base = fit(ds, model, alpha)
    lengths, f, var = _resample(ds, n_resamples, rng)
    sigma = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
    res = _lm(MODELS[model], lengths, f, sigma, alpha,
              np.tile(base.params, (n_resamples, 1)))
    ok = res.status != _ITERATION_LIMIT
    failures = int(n_resamples - ok.sum())
    if failures > 0.1 * n_resamples:
        raise FitError(f"{failures}/{n_resamples} bootstrap replicates "
                       "failed to fit")

    arr = res.theta[ok]
    means = arr.mean(axis=0)
    ses = arr.std(axis=0, ddof=1)
    biases = means - base.params
    center = means[:2]
    cov2 = np.cov(arr[:, :2].T)
    vals, vecs = np.linalg.eigh(cov2)
    vals = np.clip(vals, 0.0, None)
    axes = (np.sqrt(_ELLIPSE_QUANTILE * vals)[:, None] * vecs.T)
    with np.errstate(invalid="ignore", divide="ignore"):
        flags = np.abs(biases) > 0.25 * ses
    return BootstrapReport(n_resamples=n_resamples,
                           param_names=MODELS[model].param_names,
                           samples=arr, original=base.params.copy(),
                           means=means, biases=biases, standard_errors=ses,
                           bias_significant=flags, ellipse_center=center,
                           ellipse_axes=axes, n_failures=failures,
                           lm_iterations=int(res.steps.sum()))


# -- interleaved extraction and depolarization conversions --------------------


def interleaved_gate_error(fit_primary: FitReport, fit_interleaved: FitReport,
                           printed_form: bool = False) -> Tuple[float, float]:
    """Error per interleaved gate from a reference and an interleaved fit.

    Returns (eps_g, standard error by first-order propagation).  The default
    prefactor is alpha_n; printed_form=True uses 1/alpha_n instead.
    """
    if abs(fit_primary.alpha - fit_interleaved.alpha) > 1e-12:
        raise ValueError("fits describe different system sizes")
    alpha = fit_primary.alpha
    p_e = fit_primary.eps_s / alpha
    p_ei = fit_interleaved.eps_s / alpha
    if 1 - p_e <= 0:
        raise FitError("reference decay is degenerate (1 - p_e <= 0)")
    pref = (1 / alpha) if printed_form else alpha
    eps_g = pref * (1 - (1 - p_ei) / (1 - p_e))
    # d(eps_g)/d(eps_s') and d(eps_g)/d(eps_s), in units of the fit params
    d_int = pref / (alpha * (1 - p_e))
    d_ref = -pref * (1 - p_ei) / (alpha * (1 - p_e) ** 2)
    var = (d_int ** 2 * fit_interleaved.covariance[0, 0]
           + d_ref ** 2 * fit_primary.covariance[0, 0])
    return float(eps_g), float(np.sqrt(max(var, 0.0)))


def embed_depolarizing(p_k: float, k: int, n: int) -> Tuple[float, float]:
    """Strength on n qubits of a k-qubit depolarizing channel.

    Returns (p_n, error-per-step conversion factor alpha_n p_n / alpha_k p_k).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    p_n = p_k * (4 ** k - 1) * 4 ** n / (4 ** k * (4 ** n - 1))
    if p_k == 0:
        factor = (alpha_n(n) / alpha_n(k)) * \
            (4 ** k - 1) * 4 ** n / (4 ** k * (4 ** n - 1))
    else:
        factor = alpha_n(n) * p_n / (alpha_n(k) * p_k)
    return float(p_n), float(factor)


def consistency_check(eps_g: float, eps_s1: float, eps_s2: float,
                      weights: Tuple[float, float] = (1.5, 6.5),
                      step_scale: float = 1.8) -> float:
    """Composite two-qubit error-per-step estimate from constituent parts.

    Combines the two-qubit gate error with the embedded one-qubit step errors:
    w_g * eps_g + (6/5) * w_1q * (eps_s1 + eps_s2) / (2 * step_scale).
    """
    if min(eps_g, eps_s1, eps_s2) < 0:
        raise ValueError("error rates must be nonnegative")
    w_g, w_1q = weights
    _, embed_factor = embed_depolarizing(1.0, 1, 2)
    return float(w_g * eps_g
                 + embed_factor * w_1q * (eps_s1 + eps_s2) / (2 * step_scale))
