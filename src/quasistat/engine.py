"""Exact transient analysis of absorbed chains via uniformization.

All evolution under the sub-generator is computed as a Poisson-weighted
power series of the uniformized sub-stochastic step M = I + Q/L, with L
the largest exit rate.  The series is cut at the least k whose Poisson
tail P(N > k) is at most the constant SERIES_TOL; every term of M is
non-negative, so the truncation error in any computed vector is bounded
by SERIES_TOL times its input mass.  No matrix exponential
routine is called: the one dense matrix evolution forms, the walk's step
propagator below, is the series' own output squared.  A law handed in as
raw weights is checked by chain.law_weights.

The quasi-stationary law is not found by evolution: it is solved by
inverse iteration on one sparse LU of the sub-generator, at a cost that
does not grow with L the way a series does.

Measures (row vectors) and functions (column vectors) evolve through the
same series; measures push forward, functions pull back.  Either side
also takes an (n, m) block of m columns: each series term is then one
operator-times-block product, so m columns cost one pass over the
Poisson weights instead of m, and each column comes out bit for bit as
it would alone.  A window stores one operator, M in CSR form
(AbsorbedChain.uniformized): functions take M through the csr kernels,
measures take M^T through the csc kernels on the same arrays.  A block
of at most _BAND_COLUMNS columns on a window whose M is banded (see
_BAND_FILL) takes dia_matvec instead, on the interleaved block, with
the same sums in the same order (see _product); the route follows from
the band, the block width and the input alone: only inputs with no
entry above 2**960 in magnitude (so no inf or NaN) and none with its
sign bit set take it, since the zeros it stores inside the band would
turn an infinite entry into NaN and a sum at -0.0 into +0.0 (see
_band).  A series sums its terms by Horner's rule, y = w_k v + M y
from the last weight down, and allocates nothing per term: one
multiply preloads a chunk of buffer rows with w_k v, and scipy's
sparsetools kernel, called directly, adds M y into each row from the
row before it, one call per term (see _evolve).  Conditioning on
survival is always a final normalization step, never baked into the
operator, so unnormalized survival mass stays available to callers.

Every check along a time grid (check_qsd, yaglom_limit, decay_table,
conditional_distribution, conditional_propagator, and certify's
survival-ratio check) walks the grid with one generator, _walk: it
checks the grid once, evolves each step from the previous grid time
and rescales every column to mass 1, so a long grid never underflows;
a single step whose mass underflows is retaken as 2, 4, ... up to 1024
equal sub-steps, each rescaled.
A step of length dt is either one series of about L*dt terms or one
product with the dense step propagator P(dt), whichever a fitted cost
estimate finds cheaper over all the grid's steps of that length.  P(dt)
is scaling and squaring on the one series kernel: the series evolves
the identity block to dt/2**k at tolerance SERIES_TOL/2**k, and k
squarings follow.  It is formed only while its n*n entries fit the
_BLOCK_ENTRIES memory cap.  Like the truncated series it is entrywise
non-negative and below the exact step, so walked probabilities stay
lower bounds, and it loses at most SERIES_TOL of mass per step (see
_walk).

A series needs about L*t terms.  Past _MAX_SERIES_TERMS terms (stiff
rates or long horizons) evolution raises ComputationError naming L, t
and the window instead of allocating the weights.  The walk's
propagator runs about L*dt/2**k terms, so under the memory cap a grid
step of any length stays short.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools
from scipy.special import gammaln, pdtrc, xlogy

from .chain import (
    REFLECT,
    AbsorbedChain,
    BirthDeathSpec,
    DistributionOnStates,
    law_weights,
    truncate,
)
from .errors import ComputationError, NonConvergenceError, ValidationError
from .textio import write_csv

SERIES_TOL = 1e-13

# Largest window compute_qsd_auto grows to, in states.
QSD_AUTO_MAX_STATES = 16384

# Longest Poisson series evolution will run, in terms (= operator
# products).  The weights alone take 8 bytes per term.
_MAX_SERIES_TERMS = 10**7

# Largest block, in float64 entries (8 MiB), that evolution holds for
# one purpose: certify's unit step evolves its columns in pieces of at
# most this many entries, and _walk builds a dense n x n step propagator
# only while n*n fits.
_BLOCK_ENTRIES = 2**20

# A series writes its terms a chunk of rows at a time into buffers of at
# most _CHUNK_ENTRIES float64 entries (128 KiB, below glibc's default
# mmap threshold), or of one row where a row is larger.
_CHUNK_ENTRIES = 2**14

# A series term of a block of at most _BAND_COLUMNS columns runs through
# scipy's DIA kernel when the window's M is banded: the diagonals that
# hold an entry of M, laid out as rows of n, hold at most _BAND_FILL
# slots per stored entry.  On tri- and pentadiagonal windows of 63 to
# 1023 states the DIA term took 0.4 to 0.85 times the csr/csc term for 2
# to 4 columns, 0.55 to 1.1 times for one (about even below 128 states),
# 0.7 to 1.05 times at 8 and 1.0 to 1.25 times at 16 (CHANGES.md has the
# table).  Birth-death windows hold about one slot per entry; dense
# windows hold two, and windows with a full column n/3 or more.
_BAND_COLUMNS = 4
_BAND_FILL = 1.5

# The cost model of _walk, fitted on a 2-core x86-64 VM (CHANGES.md has
# the fit and the crossover table).  A series term costs _TERM_S plus
# _ENTRY_S per stored operator entry and block column.  The fit was made
# when a term took several calls; a term is now one kernel call and a
# share of one chunk fill, so _TERM_S over-states the terms of narrow
# blocks (CHANGES.md has their costs for a refit).  It is kept because
# it routes _walk, and a refit would move decay tables.  A dense n x n
# squaring through the same kernel costs _CUBE_S per n**3, as measured
# on squared propagators of logistic windows, whose subnormal products
# make it up to four times slower than on a random matrix.  The base
# step of a propagator has Poisson mean L*tau <= _BASE_MEAN, the value
# with the smallest worst-case build time over windows of 16-400 states.
_TERM_S = 3e-6
_ENTRY_S = 1e-9
_CUBE_S = 8e-10
_BASE_MEAN = 16.0

# Unnormalized mass below this is treated as a numerically null event.
_NULL_MASS = 1e-300

# _walk retakes a step whose mass is null as 2**j equal sub-steps, for
# j = 1 up to this, before it reports the null event.
_MAX_HALVINGS = 10


def _poisson_cutoff(mu: float, series_tol: float) -> int:
    """The least k >= 0 whose upper tail P(N > k) is at most series_tol,
    N ~ Poisson(mu): galloping up from ceil(mu) on pdtrc, then bisecting."""
    lo, hi, step = -1, math.ceil(mu), math.ceil(math.sqrt(mu)) + 1
    while pdtrc(hi, mu) > series_tol:
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pdtrc(mid, mu) > series_tol:
            lo = mid
        else:
            hi = mid
    return hi


def _poisson_weights(mu: float, series_tol: float) -> np.ndarray:
    """Poisson(mu) pmf from 0 up to one past _poisson_cutoff, as
    exp(k log mu - log k! - mu)."""
    if not 0 < series_tol < 1:
        raise ValidationError(f"series_tol must lie in (0, 1), got {series_tol}")
    if not mu <= _MAX_SERIES_TERMS:
        raise ComputationError(
            f"Poisson series of mean {mu:.3e} exceeds the cap of {_MAX_SERIES_TERMS} terms"
        )
    kmax = _poisson_cutoff(mu, series_tol) + 1
    if kmax + 1 > _MAX_SERIES_TERMS:
        raise ComputationError(
            f"Poisson series of mean {mu:.3e} needs {kmax + 1} terms, "
            f"over the cap of {_MAX_SERIES_TERMS}"
        )
    ks = np.arange(kmax + 1)
    return np.exp(xlogy(ks, mu) - gammaln(ks + 1) - mu)


def _as_block(chain: AbsorbedChain, vec) -> np.ndarray:
    """vec as float64, checked to be an (n,) vector or an (n, m) block."""
    v = np.asarray(vec, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] != chain.n_transient:
        raise ValidationError(
            f"vector shape {v.shape} does not match the {chain.n_transient} transient states"
        )
    return v


def _evolve(
    chain: AbsorbedChain, vec, t: float, side: str, series_tol: float = SERIES_TOL
) -> np.ndarray:
    if t < 0 or not math.isfinite(t):
        raise ValidationError(f"time must be finite and >= 0, got {t}")
    v = _as_block(chain, vec)
    lam, M = chain.uniformized
    mu = lam * t
    if mu == 0.0:
        return v.copy()
    try:
        w = _poisson_weights(mu, series_tol)
    except ComputationError as exc:
        raise ComputationError(
            f"evolution over t={t} at uniformization rate L={lam:.3e} on the "
            f"{chain.n_transient}-state window is too long: {exc}"
        ) from None
    # Horner's rule: y = w_K v, then y = w_k v + M y for k = K-1, ..., 0,
    # on v raveled as x for the sparsetools kernel.  The rows y run through
    # two chunk buffers in turn: one multiply fills a chunk with w_k v for
    # its terms, and the kernel adds M y into each row from the row before
    # it, a chunk's first row from the other buffer's last, so y is never
    # copied.
    x = np.ascontiguousarray(v).reshape(-1)
    rows = max(1, min(_CHUNK_ENTRIES // max(x.size, 1), w.size - 1))
    # each buffer with the list of its row views, made once
    this, that = ((b, list(b)) for b in (np.empty((rows, x.size)), np.empty((rows, x.size))))
    m, transpose = 1 if v.ndim == 1 else v.shape[1], side == "measure"
    product = _product(M, m, transpose, _band(M, x, m, transpose))
    y = w[-1] * x
    for k in range(w.size - 2, -1, -rows):
        (chunk, terms), this, that = this, that, this
        c = min(rows, k + 1)
        if c < rows:
            chunk, terms = chunk[:c], terms[:c]
        np.multiply(w[k + 1 - c : k + 1][::-1, None], x, out=chunk)
        for row in terms:
            product(y, row)
            y = row
    # a copy, so the result does not hold on to its chunk buffer
    return y.reshape(v.shape).copy()


def _product(A: sparse.csr_matrix, m: int, transpose: bool = False, band=None):
    """product(x, y) adds A @ x (A^T @ x if transpose) into y, for flat
    C-ordered blocks of m columns: the sparsetools kernel that scipy's
    ``@`` reaches, bound to A's CSR arrays.  A^T is read from those same
    arrays, which are the CSC layout of A^T: csc_matvec(s) in place of
    csr_matvec(s).  band, when given, is the layout _band built for this
    A, m and side, and the product runs through dia_matvec on it instead.

    The call skips the operator dispatch and the result allocation.  Each
    entry of y starts from the value it holds and adds its products one
    at a time, in the order of A's CSR row; the csc kernels scatter each
    A[j, i] x[j] into y[i] for j = 0, 1, ..., which is the order of the
    row of the CSR copy of A^T.  The block kernels walk the entries in
    the same order as the one-column ones, so column j of a block
    product is bit for bit the product of column j alone.  dia_matvec
    adds one diagonal after another in ascending offset order, so it too
    adds the products of each y entry in ascending column order, into
    the same y; the zeros it stores inside the band add 0 * x, which
    leaves a sum as it is on the inputs _band lets through.
    """
    if band is not None:
        offsets, data = band
        size = A.shape[0] * m
        return functools.partial(_sparsetools.dia_matvec, size, size, offsets.size, size, offsets, data)
    n = A.shape[0]
    kernel = ("csc_" if transpose else "csr_") + ("matvec" if m == 1 else "matvecs")
    shape = (n, n) if m == 1 else (n, n, m)
    return functools.partial(getattr(_sparsetools, kernel), *shape, A.indptr, A.indices, A.data)


def _band(M: sparse.csr_matrix, v: np.ndarray, m: int, transpose: bool):
    """The layout on which dia_matvec adds M @ x (M^T @ x if transpose)
    into y for flat C-ordered blocks of m columns, or None where the
    csr/csc kernels stay: a block of more than _BAND_COLUMNS columns, an
    M that is not banded (see _BAND_FILL), or a flat input v with an entry
    whose sign bit is set or whose magnitude is above 2**960 (-0.0,
    negative entries, inf and NaN included).

    The block of m columns is the nm x nm operator whose diagonal at
    offset d*m is M's at d with each entry repeated m times.

    The bounds on the input keep every sum of the series a finite +0.0
    or positive: M is non-negative with row sums at most 1 (up to
    rounding), so on either side no entry of a partial sum outgrows the
    input's absolute sum, at most 2**960 times its number of entries, by
    more than rounding, and every weight, entry and product is
    non-negative.  A non-finite entry would turn a stored zero into NaN
    (0 * inf), and a sum at -0.0 (a preload w_k v_i of a -0.0 or
    negative entry can be one) would turn +0.0 on a stored zero, where
    the csr/csc kernels store no zero.
    """
    if m > _BAND_COLUMNS or np.signbit(v).any() or not v.max(initial=0.0) <= 2.0**960:
        return None
    n = M.shape[0]
    rows, cols = np.repeat(np.arange(n), np.diff(M.indptr)), M.indices
    if transpose:
        rows, cols = cols, rows
    offsets, diagonal = np.unique(cols - rows, return_inverse=True)
    if offsets.size * n > _BAND_FILL * M.nnz:
        return None
    # data[i, j] is the entry of column j on diagonal i
    data = np.zeros((offsets.size, n))
    data[diagonal, cols] = M.data
    return (offsets * m).astype(np.int32), np.repeat(data, m, axis=1)


def _finite_block(chain: AbsorbedChain, vec) -> np.ndarray:
    """vec as _as_block gives it, refused if an entry is inf or NaN: the
    first such entry in row-major order is named by its state and, in a
    block, its column index.  One such entry spreads through the whole
    series, since a zero Poisson weight times inf is NaN."""
    v = _as_block(chain, vec)
    if not np.isfinite(v).all():
        i, *j = np.argwhere(~np.isfinite(v))[0]
        where = f"state {i + 1}" + (f", column {j[0]}" if j else "")
        raise ValidationError(f"evolution input must be finite, got {v[(i, *j)]} at {where}")
    return v


def evolve_measure(chain: AbsorbedChain, v, t: float) -> np.ndarray:
    """Push a (possibly unnormalized) mass vector forward for time t.

    v may be an (n,) vector or an (n, m) block of m measures; column j
    of the result equals evolve_measure on column j alone, bit for bit.
    Every entry must be finite.
    """
    return _evolve(chain, _finite_block(chain, v), t, "measure")


def evolve_function(chain: AbsorbedChain, u, t: float) -> np.ndarray:
    """Pull a function on transient states back for time t.

    u may be an (n,) vector or an (n, m) block of m functions; column j
    of the result equals evolve_function on column j alone, bit for bit.
    Every entry must be finite.
    """
    return _evolve(chain, _finite_block(chain, u), t, "function")


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


class _NullMassError(ComputationError):
    """Surviving mass that is numerically null: not finite, or in
    [0, _NULL_MASS)."""


def _normalize_mass(v: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    total = float(v.sum())
    if total < 0:
        # exact evolution never makes mass negative: rounding swamped it
        raise ComputationError(
            f"{what}: surviving mass {total:.3e} is negative; rounding error "
            f"swamped the computation on this window"
        )
    if not math.isfinite(total) or total < _NULL_MASS:
        raise _NullMassError(
            f"{what}: surviving mass {total:.3e} is numerically null; "
            f"the conditioning event is too rare for this window or horizon"
        )
    return v / total, total


def _walk_squarings(chain: AbsorbedChain, dt: float, steps: int, m: int) -> int | None:
    """How _walk takes its grid steps of length dt: the number k of
    squarings that builds their propagator, or None for the series.

    The propagator needs n*n <= _BLOCK_ENTRIES and a lower estimated
    cost than the series, both summed over the `steps` grid steps of
    length dt on an m-column walk.  The series runs about L*dt terms per
    step; the propagator runs one series of about L*dt/2**k terms on the
    n-column identity, then k dense n x n products, then one dense
    product per step.  A series past the term cap costs inf.
    """
    n = chain.n_transient
    lam, M = chain.uniformized
    mu = lam * dt
    if mu == 0.0 or not math.isfinite(mu) or n * n > _BLOCK_ENTRIES:
        return None
    k = max(0, math.ceil(math.log2(mu / _BASE_MEAN)))
    series = (
        steps * (_poisson_cutoff(mu, SERIES_TOL) + 1) * (_TERM_S + _ENTRY_S * M.nnz * m)
        if mu <= _MAX_SERIES_TERMS
        else math.inf
    )
    build = (
        (_poisson_cutoff(lam * math.ldexp(dt, -k), math.ldexp(SERIES_TOL, -k)) + 1)
        * (_TERM_S + _ENTRY_S * M.nnz * n)
        + k * n**3 * _CUBE_S
    )
    return k if build + steps * (_TERM_S + _ENTRY_S * n * n * m) < series else None


def _dense_csr(P: np.ndarray) -> sparse.csr_matrix:
    """The n x n array P as a CSR operator that stores all n*n entries,
    zeros too, its data a view of P."""
    n = P.shape[0]
    indices = np.tile(np.arange(n, dtype=np.int32), n)
    indptr = np.arange(0, n * n + 1, n, dtype=np.int32)
    return sparse.csr_matrix((P.reshape(-1), indices, indptr), shape=(n, n))


def _step_propagator(chain: AbsorbedChain, dt: float, side: str, k: int) -> sparse.csr_matrix:
    """The step of length dt on one side as a dense CSR operator:
    P(dt/2**k) from the series at SERIES_TOL/2**k, squared k times.

    The squarings run through the series' sparsetools kernel, not BLAS:
    its sums follow the index order on every machine, where BLAS's
    order depends on the processor, and walked laws are compared
    byte for byte.
    """
    n = chain.n_transient
    tau, tol = math.ldexp(dt, -k), math.ldexp(SERIES_TOL, -k)
    P = _evolve(chain, np.eye(n), tau, side, tol)
    for _ in range(k):
        # A.data is P raveled, the C-ordered n x n block to multiply
        A = _dense_csr(P)
        P = np.zeros((n, n))
        _product(A, n)(A.data, P.reshape(-1))
    return _dense_csr(P)


def _walk(chain: AbsorbedChain, v, times, side: str):
    """Yield (t, v_t) along the sorted grid, v_t rescaled to mass 1.

    v is an (n,) vector or an (n, m) block; each column of v_t has mass
    1.  Each step is evolved from the previous grid time (from 0 for
    the first), so later grid points reuse earlier work, and the
    rescaling keeps long grids clear of underflow.  The grid is checked
    when the walk starts: every time finite and >= 0.

    A single step can still underflow: its survival may fall below
    _NULL_MASS although the conditioned law exists.  Such a step (mass
    null, not negative) is taken again as 2**j equal sub-steps, for
    j = 1, 2, ... up to _MAX_HALVINGS, each rescaled to mass 1; sub-steps
    of one length share one propagator.  The walk raises the null event
    only when the 2**_MAX_HALVINGS sub-steps still underflow.  A step
    that does not underflow is taken whole.

    A step of length dt goes one of two ways, whichever _walk_squarings
    estimates cheaper for all the grid's steps of that length: the
    series of about L*dt terms, or one product with the dense step
    propagator P(dt), built once per distinct dt.  P(dt) is the series
    on the identity block to tau = dt/2**k at tolerance SERIES_TOL/2**k,
    squared k times, and is used only while its n*n entries fit
    _BLOCK_ENTRIES.  It keeps the series' guarantees.  The truncated
    P(tau) is entrywise non-negative and below the exact one, so its
    powers are too, and every walked probability stays a lower bound.
    Each factor loses at most SERIES_TOL/2**k of the mass it is handed
    (the dropped Poisson tail), and no factor adds mass, so the 2**k
    factors of one step lose at most 2**k * SERIES_TOL/2**k =
    SERIES_TOL, the same per-step bound as one series.  Rounding comes
    on top: each factor rounds its mass by about L*tau eps, and the
    squarings carry that along 2**k times, about L*dt eps in all, as
    in one series of L*dt terms.
    """
    ts = [float(t) for t in times]
    bad = [t for t in ts if not (math.isfinite(t) and t >= 0)]
    if bad:
        raise ValidationError(f"time must be finite and >= 0, got {bad[0]}")
    ts.sort()
    v = _as_block(chain, v)
    m = 1 if v.ndim == 1 else v.shape[1]
    evolve = evolve_measure if side == "measure" else evolve_function
    what = "conditional law" if side == "measure" else "survival function"
    steps = Counter(b - a for a, b in zip([0.0, *ts], ts))
    products = {}  # dt -> the propagator's product(x, y), or None for the series

    def advance(x, dt, count, where):
        # x evolved by dt, every column rescaled to mass 1
        if dt not in products:
            k = _walk_squarings(chain, dt, count, m)
            products[dt] = None if k is None else _product(_step_propagator(chain, dt, side, k), m)
        product = products[dt]
        if product is None:
            y = evolve(chain, x, dt)
        else:
            x, y = np.ascontiguousarray(x), np.zeros(x.shape)
            product(x.reshape(-1), y.reshape(-1))
        if y.ndim == 1:
            return _normalize_mass(y, where)[0]
        return np.column_stack([_normalize_mass(col, where)[0] for col in y.T])

    t_cur = 0.0
    for t in ts:
        dt, where = t - t_cur, f"{what} at t={t}"
        for j in range(_MAX_HALVINGS + 1):
            try:
                u = v
                for _ in range(2**j):
                    u = advance(u, math.ldexp(dt, -j), steps[dt] << j, where)
                break
            except _NullMassError:
                if j == _MAX_HALVINGS:
                    raise
        v, t_cur = u, t
        yield t, v


def conditional_distribution(chain: AbsorbedChain, mu, t: float) -> DistributionOnStates:
    """Law at time t conditioned on not yet being absorbed (nor killed)."""
    _, law = next(_walk(chain, law_weights(chain, mu), [t], "measure"))
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

    Both legs are walks.  The function side walks the constant 1 over
    the grid [horizon - t, horizon - s], which yields the survival to
    the horizon from t and then from s; the measure side walks the
    tilted law one step of t - s.  Each walk rescales to mass 1, which
    is harmless: only ratios of the survival functions enter, and the
    result is normalized, so every scale cancels.
    """
    if not (0 <= s <= t <= horizon) or not math.isfinite(horizon):
        raise ValidationError(
            f"need 0 <= s <= t <= horizon finite, got s={s}, t={t}, horizon={horizon}"
        )
    w = law_weights(chain, mu)
    ones = np.ones(chain.n_transient)
    (_, h_after_t), (_, h_after_s) = _walk(chain, ones, [horizon - t, horizon - s], "function")
    alive = w > 0
    if np.any(alive & (h_after_s < _NULL_MASS)):
        raise ComputationError(
            "input law charges states that cannot survive to the horizon; "
            "conditioning event is null"
        )
    tilted = np.zeros_like(w)
    tilted[alive] = w[alive] / h_after_s[alive]
    _, moved = next(_walk(chain, tilted, [t - s], "measure"))
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
    # imported here, not at the top: csgraph loads scipy.sparse.linalg and
    # scipy.linalg, which commands that solve nothing never need
    from scipy.sparse.csgraph import connected_components

    ncomp, _ = connected_components(chain.sub_generator, directed=True, connection="strong")
    if ncomp != 1:
        raise ValidationError(
            f"transient states are not strongly connected ({ncomp} classes); "
            f"the quasi-stationary law is not unique on this window"
        )


def _m_matrix_lu(A):
    """The one sparse LU of the package: SuperLU on A with diagonal pivots.

    Both callers hand it a Z-matrix, whose off-diagonal entries are <= 0.
    Such a matrix is a nonsingular M-matrix exactly when every pivot of
    its LU with diagonal pivoting is > 0 (Berman and Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, ch. 6); then every
    Schur complement is an M-matrix too, and the triangular solves add
    only non-negative terms.  A zero diagonal is never taken as a pivot,
    so where one appears SuperLU pivots off the diagonal and perm_r
    differs from perm_c.  relax=1 and panel_size=1 ask for no relaxed
    supernodes and one-column panels.  SuperLU hands its supernodes to
    BLAS, whose rounding depends on the kernel the processor picks; with
    SuperLU's default relaxation the LU of a 64-state logistic window
    already moves with that kernel, with these settings it does not
    (README's design notes give the scope).  Failure raises scipy's
    RuntimeError, which each caller names.
    """
    from scipy.sparse.linalg import splu  # imported here: see _require_irreducible

    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1, panel_size=1)


def _inverse_operator(chain: AbsorbedChain):
    """One _m_matrix_lu of -Q^T (or sigma I - Q^T when no mass is lost).

    On an irreducible window that loses mass, -Q is a nonsingular
    M-matrix, so its inverse is entrywise positive with dominant root
    1/decay_rate.  A window that loses nothing has the singular -Q of a
    conservative generator; shifting by sigma = L keeps the inverse
    positive and its Perron vector the stationary law.  -Q^T is column
    diagonally dominant, so diagonal pivots are the partial-pivoting
    choice anyway; forcing them keeps every Schur complement an M-matrix
    in exact arithmetic.  The factorization itself is not free of
    cancellation: each pivot is a diagonal entry minus the fill of the
    eliminations before it, and on a nearly closed window the pivots
    shrink toward the little mass it loses, so these differences cancel
    to rounding.  The logistic chain (3, 1, 0.02), whose decay rate is
    about 1e-19, fails this way from 256 states on: one pivot comes out
    negative, and the inverse iteration reports "surviving mass
    -4.147e+14 is negative".
    """
    A = -chain.sub_generator.T
    if not np.any(chain.absorption_rates + chain.kill_rates):
        A = A + (chain.uniformization_rate() or 1.0) * sparse.eye(chain.n_transient)
    try:
        return _m_matrix_lu(A)
    except RuntimeError as exc:
        raise ComputationError(f"sparse LU of the sub-generator failed: {exc}") from exc


def _check_tol(tol: float) -> None:
    # asked as tol > 0, which NaN fails
    if not tol > 0:
        raise ValidationError(f"tol must be > 0, got {tol}")


def _qsd_tol(tol: float) -> float:
    """The tolerance a QSD is solved to for a caller working to tol:
    min(tol/100, 1e-12).  The window search, the CLI and yaglom_limit's
    cross-check all solve to it, so a window's QSD has the same bytes
    whichever of them solved it."""
    return min(tol * 1e-2, 1e-12)


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
    _check_tol(tol)
    if max_iters < 1:
        raise ValidationError(f"max_iters must be >= 1, got {max_iters}")
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
    # fsum, not a BLAS dot, whose last bit depends on the processor's kernel
    absorb = math.fsum(rho * chain.absorption_rates)
    kill = math.fsum(rho * chain.kill_rates)
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


def _grid_past_zero(t_grid, who: str) -> list[float]:
    """The grid as floats, refused when it is empty or all zeros: a check
    read only at time 0 would pass vacuously.  Other bad times are left
    to _walk, which names them."""
    ts = [float(t) for t in t_grid]
    if not any(t != 0.0 for t in ts):
        raise ValidationError(f"{who} needs a time grid with a time > 0, got {ts}")
    return ts


def check_qsd(chain: AbsorbedChain, rho, t_grid, tol: float) -> tuple[bool, float]:
    """Verify the fixed-point property of a candidate QSD on a time grid.

    Returns (all within tol, worst TV deviation).  Evolution along the
    grid is incremental, so later grid points reuse earlier work.  The
    grid needs a time > 0: at time 0 every law is its own evolution.
    """
    _check_tol(tol)
    ts = _grid_past_zero(t_grid, "check_qsd")
    w = law_weights(chain, rho)
    worst = 0.0
    for _, cur in _walk(chain, w, ts, "measure"):
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
    window is returned.  Each window's QSD is solved to _qsd_tol(tol).
    """
    _check_tol(tol)
    if isinstance(source, AbsorbedChain):
        if source.source_spec is None:
            raise ValidationError("automatic window sizing needs a parametric chain")
        spec = source.source_spec
    elif isinstance(source, BirthDeathSpec):
        spec = source
    else:
        raise ValidationError(f"cannot auto-size a window for {type(source).__name__}")
    inner_tol = _qsd_tol(tol)
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
) -> tuple[DistributionOnStates, ConvergenceTrace]:
    """Limit of the conditional law from mu along the time grid 1, 2, 4, ...

    Convergence is declared when the TV step between consecutive grid
    points falls below tol twice in a row.  The limit is cross-checked
    against compute_qsd on the same window, solved to _qsd_tol(tol)
    (inverse iteration, a route that shares no evolution code with this
    one); disagreement points at
    a window too small for the starting law and raises.  A reducible
    window has no unique QSD and skips the cross-check.
    """
    _check_tol(tol)
    if max_steps < 1:
        raise ValidationError(f"max_steps must be >= 1, got {max_steps}")
    w = law_weights(chain, mu)
    prev = w / w.sum()
    times, laws = [], []
    small_streak = 0
    for t, cur in _walk(chain, prev, [2.0**k for k in range(max_steps)], "measure"):
        times.append(t)
        laws.append(cur)
        inc = float(np.abs(cur - prev).sum())
        prev = cur
        small_streak = small_streak + 1 if inc < tol else 0
        if small_streak >= 2:
            break
    limit = laws[-1]
    trace = ConvergenceTrace(np.array(times), np.abs(np.array(laws) - limit).sum(axis=1))
    if small_streak < 2:
        raise NonConvergenceError(
            f"conditional law still moving after {max_steps} geometric steps", trace=trace
        )
    try:
        ref = compute_qsd(chain, tol=_qsd_tol(tol))
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
    if rho is None:
        rho = compute_qsd(chain).qsd
    r = law_weights(chain, rho)
    a = law_weights(chain, mu)
    b = law_weights(chain, nu)
    rows = []
    # both laws share one series: they walk as an (n, 2) block
    for t, ab in _walk(chain, np.column_stack((a / a.sum(), b / b.sum())), t_grid, "measure"):
        a, b = ab.T
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
    # asked as ratio > 1, which NaN fails
    if not (0 < t_min <= t_max < math.inf) or not ratio > 1:
        raise ValidationError("need 0 < t_min <= t_max < inf and ratio > 1")
    ts = []
    t = t_min
    while t < t_max:
        ts.append(t)
        t *= ratio
    ts.append(t_max)
    return ts


# -- text output -------------------------------------------------------------


def distribution_to_csv(dist, target) -> None:
    w = dist.weights if isinstance(dist, DistributionOnStates) else dist
    weights = np.asarray(w, dtype=np.float64).tolist()
    write_csv(target, ["state", "weight"], (f"{i},{x:.17g}" for i, x in enumerate(weights, 1)))


def decay_to_csv(rows: list[DecayRow], target) -> None:
    write_csv(
        target,
        ["t", "tv_mu_to_qsd", "tv_nu_to_qsd", "tv_pair", "certified_bound"],
        (
            f"{r.t:.17g},{r.tv_mu_to_qsd:.17g},{r.tv_nu_to_qsd:.17g},{r.tv_pair:.17g},"
            f"{r.certified_bound:.17g}"
            for r in rows
        ),
    )
