"""Exact transient analysis of absorbed chains via uniformization.

All evolution under the sub-generator is computed as a Poisson-weighted
power series of the uniformized sub-stochastic step M = I + Q/L, with L
the largest exit rate.  The series is truncated when the remaining
Poisson tail mass drops below the constant SERIES_TOL; every term of M
is non-negative, so the truncation error in any computed vector is
bounded by SERIES_TOL times its input mass.  No matrix exponentials are
formed.  A law handed in as raw weights is checked by chain.law_weights.

The quasi-stationary law is not found by evolution: it is solved by
inverse iteration on one sparse LU of the sub-generator, at a cost that
does not grow with L the way a series does.

Measures (row vectors) and functions (column vectors) evolve through the
same series; measures push forward, functions pull back.  Either side
also takes an (n, m) block of m columns: each series term is then one
operator-times-block product, so m columns cost one pass over the
Poisson weights instead of m, and each column comes out bit for bit as
it would alone.  The operator is always CSR.  A series allocates nothing
per term: the products alternate between two preallocated buffers
(through scipy's sparsetools kernel, called directly) and the weighted
terms are added into the result in place, in the order and with the
rounding of the plain ``out + w * (M @ v)`` loop.  Conditioning on
survival is always a final normalization step, never baked into the
operator, so unnormalized survival mass stays available to callers.

A series needs about L*t terms.  Past _MAX_SERIES_TERMS terms (stiff
rates or long horizons) evolution raises ComputationError naming L, t
and the window instead of allocating the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu
from scipy.special import gammaln, pdtr, pdtrik, xlogy

from .chain import (
    REFLECT,
    AbsorbedChain,
    BirthDeathSpec,
    DistributionOnStates,
    law_weights,
    truncate,
)
from .errors import ComputationError, NonConvergenceError, ValidationError
from .textio import fmt, write_csv

SERIES_TOL = 1e-13

# Largest window compute_qsd_auto grows to, in states.
QSD_AUTO_MAX_STATES = 16384

# Longest Poisson series evolution will run, in terms (= operator
# products).  The weights alone take 8 bytes per term.
_MAX_SERIES_TERMS = 10**7

# Unnormalized mass below this is treated as a numerically null event.
_NULL_MASS = 1e-300


class _Uniformized:
    """Cached uniformized step for one chain: L, M (function side), M^T,
    both in CSR form."""

    __slots__ = ("lam", "func_op", "meas_op")

    def __init__(self, chain: AbsorbedChain):
        self.lam = chain.uniformization_rate()
        lam = self.lam if self.lam > 0 else 1.0
        M = sparse.eye(chain.n_transient, format="csr") + chain.sub_generator / lam
        self.func_op = M.tocsr()
        self.meas_op = M.T.tocsr()


def _uniformized(chain: AbsorbedChain) -> _Uniformized:
    op = chain._cache.get("uniformized")
    if op is None:
        op = _Uniformized(chain)
        chain._cache["uniformized"] = op
    return op


def _poisson_weights(mu: float, series_tol: float) -> np.ndarray:
    """Poisson(mu) pmf from 0 up to the point where the tail < series_tol.

    The truncation point is scipy.stats.poisson.isf(series_tol, mu) and
    the weights its pmf, written with the same scipy.special formulas so
    that importing the package does not load scipy.stats.
    """
    if not 0 < series_tol < 1:
        raise ValidationError(f"series_tol must lie in (0, 1), got {series_tol}")
    if not mu <= _MAX_SERIES_TERMS:
        raise ComputationError(
            f"Poisson series of mean {mu:.3e} exceeds the cap of {_MAX_SERIES_TERMS} terms"
        )
    # isf(tol) = ppf(1 - tol): the least k with P(N <= k) >= 1 - tol
    q = 1.0 - series_tol
    k = math.ceil(pdtrik(q, mu))
    below = max(k - 1, 0)
    if pdtr(below, mu) >= q:
        k = below
    kmax = k + 1
    if kmax + 1 > _MAX_SERIES_TERMS:
        raise ComputationError(
            f"Poisson series of mean {mu:.3e} needs {kmax + 1} terms, "
            f"over the cap of {_MAX_SERIES_TERMS}"
        )
    ks = np.arange(kmax + 1)
    return np.exp(xlogy(ks, mu) - gammaln(ks + 1) - mu)


def _evolve(chain: AbsorbedChain, vec: np.ndarray, t: float, side: str) -> np.ndarray:
    if t < 0 or not math.isfinite(t):
        raise ValidationError(f"time must be finite and >= 0, got {t}")
    v = np.asarray(vec, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] != chain.n_transient:
        raise ValidationError(
            f"vector shape {v.shape} does not match the {chain.n_transient} transient states"
        )
    op = _uniformized(chain)
    mu = op.lam * t
    if mu == 0.0:
        return v.copy()
    try:
        w = _poisson_weights(mu, SERIES_TOL)
    except ComputationError as exc:
        raise ComputationError(
            f"evolution over t={t} at uniformization rate L={op.lam:.3e} on the "
            f"{chain.n_transient}-state window is too long: {exc}"
        ) from None
    A = op.meas_op if side == "measure" else op.func_op
    # vk and nxt are the ping-pong buffers of the series: each step writes
    # A @ vk into nxt, and out takes wk * vk in place through tmp.  The
    # CSR kernel works on flat buffers, so the block is raveled.
    step = _csr_step(A, 1 if v.ndim == 1 else v.shape[1])
    vk = np.array(v, order="C").reshape(-1)
    nxt = np.empty_like(vk)
    tmp = np.empty_like(vk)
    out = w[0] * vk
    for k in range(1, w.size):
        step(vk, nxt)
        vk, nxt = nxt, vk
        wk = w[k]
        if wk > 0.0:
            np.multiply(vk, wk, out=tmp)
            out += tmp
    return out.reshape(v.shape)


def _csr_step(A: sparse.csr_matrix, m: int):
    """step(x, y) sets y = A @ x for flat C-ordered blocks of m columns.

    It calls the sparsetools kernel that scipy's ``A @ x`` reaches
    (csr_matvec for one column, csr_matvecs for more) directly, skipping
    the operator dispatch and the result allocation.  The kernel adds into
    y, so y is zeroed first; the sums then run in the same order, and the
    result is bit for bit that of ``A @ x``.  csr_matvecs walks each row's
    entries in the same order as csr_matvec, so column j of a block step
    is bit for bit the step of column j alone.
    """
    n = A.shape[0]
    indptr, indices, data = A.indptr, A.indices, A.data
    if m == 1:
        def step(x: np.ndarray, y: np.ndarray) -> None:
            y.fill(0.0)
            _sparsetools.csr_matvec(n, n, indptr, indices, data, x, y)
    else:
        def step(x: np.ndarray, y: np.ndarray) -> None:
            y.fill(0.0)
            _sparsetools.csr_matvecs(n, n, m, indptr, indices, data, x, y)
    return step


def evolve_measure(chain: AbsorbedChain, v, t: float) -> np.ndarray:
    """Push a (possibly unnormalized) mass vector forward for time t.

    v may be an (n,) vector or an (n, m) block of m measures; column j
    of the result equals evolve_measure on column j alone, bit for bit.
    """
    return _evolve(chain, v, t, "measure")


def evolve_function(chain: AbsorbedChain, u, t: float) -> np.ndarray:
    """Pull a function on transient states back for time t.

    u may be an (n,) vector or an (n, m) block of m functions; column j
    of the result equals evolve_function on column j alone, bit for bit.
    """
    return _evolve(chain, u, t, "function")


# -- public evolution API --------------------------------------------------


def transition_operator(chain: AbsorbedChain, mu, t: float) -> np.ndarray:
    """Unnormalized sub-probability vector: mass still alive per state at t.

    The total of the returned vector is the survival probability of the
    input law; it is strictly less than 1 for t > 0 whenever absorption
    is reachable.
    """
    return evolve_measure(chain, law_weights(chain, mu), t)


def survival_vector(chain: AbsorbedChain, t: float) -> np.ndarray:
    """P_x(T_0 and top-kill both after t) for every transient x."""
    ones = np.ones(chain.n_transient)
    return evolve_function(chain, ones, t)


def survival_probability(chain: AbsorbedChain, x: int, t: float) -> float:
    if not 1 <= x <= chain.n_transient:
        raise ValidationError(f"state {x} outside transient range 1..{chain.n_transient}")
    return float(survival_vector(chain, t)[x - 1])


def tv_distance(mu, nu) -> float:
    """Total variation as the full L1 difference, in [0, 2]."""
    a = mu.weights if isinstance(mu, DistributionOnStates) else np.asarray(mu, dtype=np.float64)
    b = nu.weights if isinstance(nu, DistributionOnStates) else np.asarray(nu, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"distributions live on different windows: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())


def _normalize_mass(v: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    total = float(v.sum())
    if not math.isfinite(total) or total < _NULL_MASS:
        raise ComputationError(
            f"{what}: surviving mass {total:.3e} is numerically null; "
            f"the conditioning event is too rare for this window or horizon"
        )
    return v / total, total


def conditional_distribution(chain: AbsorbedChain, mu, t: float) -> DistributionOnStates:
    """Law at time t conditioned on not yet being absorbed (nor killed)."""
    v = transition_operator(chain, mu, t)
    law, _ = _normalize_mass(v, f"conditional law at t={t}")
    return DistributionOnStates(law, _skip_checks=True)


def conditional_propagator(
    chain: AbsorbedChain,
    mu,
    s: float,
    t: float,
    horizon: float,
) -> DistributionOnStates:
    """Propagate a time-s law to time t under conditioning on survival
    up to the fixed later horizon.

    This is the linear action on measures obtained by tilting with the
    survival function of the remaining time: weight the input by
    1/P(survive horizon - s), run the unconditioned dynamics for t - s,
    then weight by P(survive horizon - t) and normalize.  Composing the
    map over [s, u] with the map over [u, t] reproduces the map over
    [s, t] exactly; at s == t it returns the input law unchanged.
    """
    if not (0 <= s <= t <= horizon) or not math.isfinite(horizon):
        raise ValidationError(
            f"need 0 <= s <= t <= horizon finite, got s={s}, t={t}, horizon={horizon}"
        )
    w = law_weights(chain, mu).copy()
    ones = np.ones(chain.n_transient)
    h_after_t = evolve_function(chain, ones, horizon - t)
    # survival from time s = survival from t pulled back another t - s;
    # both are only needed up to scale, so renormalize to dodge underflow
    m = float(h_after_t.max())
    if m < _NULL_MASS:
        raise ComputationError("survival to the horizon is numerically null from every state")
    h_after_t = h_after_t / m
    h_after_s = evolve_function(chain, h_after_t, t - s)

    alive = w > 0
    if np.any(alive & (h_after_s < _NULL_MASS)):
        raise ComputationError(
            "input law charges states that cannot survive to the horizon; "
            "conditioning event is null"
        )
    tilted = np.zeros_like(w)
    tilted[alive] = w[alive] / h_after_s[alive]
    moved = evolve_measure(chain, tilted, t - s)
    out = moved * h_after_t
    law, _ = _normalize_mass(out, f"conditioned propagation to t={t} under horizon {horizon}")
    return DistributionOnStates(law, _skip_checks=True)


# -- quasi-stationary distribution ------------------------------------------


@dataclass
class ConvergenceTrace:
    """Times and total-variation gaps recorded during an iteration."""

    times: np.ndarray
    tv_to_limit: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.tv_to_limit = np.asarray(self.tv_to_limit, dtype=np.float64)
        if self.times.shape != self.tv_to_limit.shape:
            raise ValidationError("trace arrays must have matching lengths")
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError("trace times must be strictly increasing")
        if np.any(self.tv_to_limit < 0) or np.any(self.tv_to_limit > 2 + 1e-12):
            raise ValidationError("TV values must lie in [0, 2]")


@dataclass
class QsdResult:
    """Quasi-stationary law of a window plus its absorption spectrum.

    decay_rate is the total loss rate under the QSD (absorption into 0
    plus any truncation killing); for reflecting windows it equals
    absorption_rate.  eigen_residual is the max-norm defect of the
    left-eigenvector identity rho Q = -decay_rate * rho.
    """

    qsd: DistributionOnStates
    absorption_rate: float
    kill_rate: float
    decay_rate: float
    eigen_residual: float
    iterations: int
    truncation_n: int
    top_mass: float
    chain: AbsorbedChain = field(repr=False)


def _require_irreducible(chain: AbsorbedChain) -> None:
    n = chain.n_transient
    if n == 1:
        return
    ncomp, _ = connected_components(chain.sub_generator, directed=True, connection="strong")
    if ncomp != 1:
        raise ValidationError(
            f"transient states are not strongly connected ({ncomp} classes); "
            f"the quasi-stationary law is not unique on this window"
        )


def _inverse_operator(chain: AbsorbedChain):
    """One sparse LU of -Q^T (or sigma I - Q^T when no mass is lost).

    On an irreducible window that loses mass, -Q is a nonsingular
    M-matrix, so its inverse is entrywise positive with dominant root
    1/decay_rate.  A window that loses nothing has the singular -Q of a
    conservative generator; shifting by sigma = L keeps the inverse
    positive and its Perron vector the stationary law.  -Q^T is column
    diagonally dominant, so diagonal pivots are the partial-pivoting
    choice anyway; forcing them keeps every Schur complement an
    M-matrix and the triangular solves free of cancellation.
    """
    A = -chain.sub_generator.T
    if not np.any(chain.absorption_rates + chain.kill_rates):
        A = A + (chain.uniformization_rate() or 1.0) * sparse.eye(chain.n_transient)
    try:
        return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise ComputationError(f"sparse LU of the sub-generator failed: {exc}") from exc


def compute_qsd(chain: AbsorbedChain, tol: float = 1e-12, max_iters: int = 100000) -> QsdResult:
    """Inverse iteration on one sparse LU of -Q^T.

    Each step solves -Q^T w = v and renormalizes: w is the law of
    expected occupation before absorption from the law v.  Its Perron
    vector is the QSD, and the iterates converge at the ratio of the two
    smallest decay rates whatever the uniformization rate L.  The start
    is the point mass at state 1: mass placed high in the window only
    shrinks by decay_rate / q(x) per step and would sit far above the
    true, exponentially small tail; started low, the tail fills only
    through the chain's own moves.

    Stops when the TV increment between successive normalized iterates
    falls below tol; raises NonConvergenceError carrying the increment
    history (iteration index as time) otherwise.
    """
    if tol <= 0:
        raise ValidationError("tol must be > 0")
    _require_irreducible(chain)
    lu = _inverse_operator(chain)
    v = np.zeros(chain.n_transient)
    v[0] = 1.0
    incs = []
    for k in range(1, max_iters + 1):
        w, _ = _normalize_mass(lu.solve(v), "QSD inverse iteration")
        inc = float(np.abs(w - v).sum())
        v = w
        incs.append(inc)
        if inc < tol and k >= 3:
            break
    else:
        raise NonConvergenceError(
            f"QSD iteration did not reach tol={tol} in {max_iters} steps "
            f"(last increment {incs[-1]:.3e})",
            trace=ConvergenceTrace(np.arange(1.0, len(incs) + 1), np.array(incs)),
        )
    rho = v
    absorb = float(rho @ chain.absorption_rates)
    kill = float(rho @ chain.kill_rates)
    decay = absorb + kill
    resid = chain.sub_generator.T @ rho + decay * rho
    return QsdResult(
        qsd=DistributionOnStates(rho, _skip_checks=True),
        absorption_rate=absorb,
        kill_rate=kill,
        decay_rate=decay,
        eigen_residual=float(np.abs(resid).max()),
        iterations=len(incs),
        truncation_n=chain.n_states,
        top_mass=float(rho[-1]),
        chain=chain,
    )


def check_qsd(chain: AbsorbedChain, rho, t_grid, tol: float) -> tuple[bool, float]:
    """Verify the fixed-point property of a candidate QSD on a time grid.

    Returns (all within tol, worst TV deviation).  Evolution along the
    grid is incremental, so later grid points reuse earlier work.
    """
    w = law_weights(chain, rho)
    ts = sorted(float(t) for t in t_grid)
    if any(t < 0 for t in ts):
        raise ValidationError("grid times must be >= 0")
    worst = 0.0
    cur = w.copy()
    t_cur = 0.0
    for t in ts:
        cur = evolve_measure(chain, cur, t - t_cur)
        cur, _ = _normalize_mass(cur, f"conditional law at t={t}")
        t_cur = t
        worst = max(worst, float(np.abs(cur - w).sum()))
    return worst < tol, worst


def compute_qsd_auto(
    source,
    tol: float = 1e-10,
    boundary_mode: str = REFLECT,
    n_start: int = 32,
) -> QsdResult:
    """Grow the window until the computed QSD stops moving in TV.

    The window size doubles from n_start up to QSD_AUTO_MAX_STATES; two
    consecutive windows whose QSDs differ by less than tol (smaller
    embedded into larger) end the search.  The result on the larger
    window is returned.  Each window's QSD is solved to min(tol/100,
    1e-12).
    """
    if isinstance(source, AbsorbedChain):
        if source.source_spec is None:
            raise ValidationError("automatic window sizing needs a parametric chain")
        spec = source.source_spec
    elif isinstance(source, BirthDeathSpec):
        spec = source
    else:
        raise ValidationError(f"cannot auto-size a window for {type(source).__name__}")
    inner_tol = min(tol * 1e-2, 1e-12)
    n = max(4, n_start)
    prev = compute_qsd(truncate(spec, n, boundary_mode), tol=inner_tol)
    gap = math.inf
    while n * 2 <= QSD_AUTO_MAX_STATES:
        n *= 2
        cur = compute_qsd(truncate(spec, n, boundary_mode), tol=inner_tol)
        gap = tv_distance(prev.qsd.embed(cur.qsd.n_states), cur.qsd)
        if gap < tol:
            return cur
        prev = cur
    raise NonConvergenceError(
        f"QSD did not stabilize below window size {QSD_AUTO_MAX_STATES} (last change {gap:.3e})"
    )


# -- long-time conditioned behaviour ----------------------------------------


def yaglom_limit(
    chain: AbsorbedChain,
    mu,
    tol: float = 1e-10,
    max_steps: int = 200,
    crosscheck: bool = True,
) -> tuple[DistributionOnStates, ConvergenceTrace]:
    """Limit of the conditional law from mu along the time grid 1, 2, 4, ...

    Convergence is declared when the TV step between consecutive grid
    points falls below tol twice in a row.  The limit is cross-checked
    against compute_qsd on the same window (inverse iteration, a route
    that shares no evolution code with this one); disagreement points at
    a window too small for the starting law and raises.
    """
    w = law_weights(chain, mu)
    cur = w / w.sum()
    t_cur = 0.0
    times, laws = [], []
    small_streak = 0
    prev = cur
    t = 1.0
    for _ in range(max_steps):
        cur = evolve_measure(chain, cur, t - t_cur)
        cur, _ = _normalize_mass(cur, f"conditional law at t={t}")
        t_cur = t
        times.append(t)
        laws.append(cur)
        inc = float(np.abs(cur - prev).sum())
        prev = cur
        small_streak = small_streak + 1 if inc < tol else 0
        if small_streak >= 2:
            break
        t *= 2.0
    else:
        raise NonConvergenceError(
            f"conditional law still moving after {max_steps} geometric steps",
            trace=ConvergenceTrace(
                np.array(times), np.abs(np.array(laws) - cur).sum(axis=1)
            ),
        )
    limit = laws[-1]
    trace = ConvergenceTrace(
        times=np.array(times),
        tv_to_limit=np.abs(np.array(laws) - limit).sum(axis=1),
    )
    if crosscheck:
        try:
            ref = compute_qsd(chain, tol=min(tol, 1e-10))
        except ValidationError:
            ref = None  # reducible window: no unique QSD to compare against
        if ref is not None:
            gap = tv_distance(limit, ref.qsd.weights)
            if gap > 10 * tol:
                raise ComputationError(
                    f"long-time conditional law disagrees with the QSD by TV {gap:.3e}; "
                    f"the window (n_states={chain.n_states}) is likely too small"
                )
    return DistributionOnStates(limit, _skip_checks=True), trace


# -- decay tables ------------------------------------------------------------


@dataclass
class DecayRow:
    t: float
    tv_mu_to_qsd: float
    tv_nu_to_qsd: float
    tv_pair: float
    certified_bound: float  # nan when no certificate was supplied


def decay_table(
    chain: AbsorbedChain,
    mu,
    nu,
    t_grid,
    certificate=None,
    rho: DistributionOnStates | None = None,
) -> list[DecayRow]:
    """Tabulate conditional-law TV gaps (to the QSD and pairwise) over time.

    certificate, when given, must expose .bound(t); its value lands in
    the last column so tables are directly checkable against the bound.
    """
    ts = sorted(float(t) for t in t_grid)
    if any(t < 0 for t in ts):
        raise ValidationError("grid times must be >= 0")
    if rho is None:
        rho = compute_qsd(chain).qsd
    r = law_weights(chain, rho)
    a = law_weights(chain, mu).copy()
    b = law_weights(chain, nu).copy()
    a = a / a.sum()
    b = b / b.sum()
    rows = []
    t_cur = 0.0
    for t in ts:
        # both laws share one series: evolve them as an (n, 2) block
        ab = evolve_measure(chain, np.column_stack((a, b)), t - t_cur)
        a, _ = _normalize_mass(ab[:, 0], f"conditional law at t={t}")
        b, _ = _normalize_mass(ab[:, 1], f"conditional law at t={t}")
        t_cur = t
        rows.append(
            DecayRow(
                t=t,
                tv_mu_to_qsd=float(np.abs(a - r).sum()),
                tv_nu_to_qsd=float(np.abs(b - r).sum()),
                tv_pair=float(np.abs(a - b).sum()),
                certified_bound=float(certificate.bound(t)) if certificate is not None else math.nan,
            )
        )
    return rows


def geometric_grid(t_min: float, t_max: float, ratio: float = 1.5) -> list[float]:
    """Strictly increasing geometric times from t_min up to and incl. t_max."""
    if not (0 < t_min <= t_max) or ratio <= 1:
        raise ValidationError("need 0 < t_min <= t_max and ratio > 1")
    ts = []
    t = t_min
    while t < t_max:
        ts.append(t)
        t *= ratio
    ts.append(t_max)
    return ts


# -- text output -------------------------------------------------------------


def distribution_to_csv(dist, target) -> None:
    w = dist.weights if isinstance(dist, DistributionOnStates) else np.asarray(dist)
    rows = ([str(i + 1), fmt(x)] for i, x in enumerate(w))
    write_csv(target, ["state", "weight"], rows)


def decay_to_csv(rows: list[DecayRow], target) -> None:
    write_csv(
        target,
        ["t", "tv_mu_to_qsd", "tv_nu_to_qsd", "tv_pair", "certified_bound"],
        (
            [fmt(r.t), fmt(r.tv_mu_to_qsd), fmt(r.tv_nu_to_qsd), fmt(r.tv_pair), fmt(r.certified_bound)]
            for r in rows
        ),
    )
