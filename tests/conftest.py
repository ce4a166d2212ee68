"""Shared chain builders used across the test modules."""

import heapq
import math
from bisect import bisect_left

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal

from quasistat import (
    KILL,
    KILLED_STATE,
    REFLECT,
    STATUS_ABSORBED,
    STATUS_HIT_SET,
    STATUS_KILLED,
    STATUS_SURVIVED,
    ComputationError,
    DistributionOnStates,
    ParticleEnsemble,
    TrajectoryBatch,
    ValidationError,
    build_from_entries,
    compute_absorption_sup,
    compute_alpha_K,
    evolve_function,
    evolve_measure,
    geometric_grid,
)
from quasistat.bd import _inner_tail
from quasistat.engine import SERIES_TOL, _poisson_weights
from quasistat.mc import _KIND_PARTICLE, _KIND_PATH, _initial_cumulative, _initial_states
from quasistat.streams import _GOLDEN, _INV53, _MASK, _TINY, derive_key, mix64, u01

# one line per acceptance criterion, replayed after the run so the
# verdicts are visible even under pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def catastrophe_chain(n_states=8, birth=1.0, drop=3.0, absorb=1.0, boundary=REFLECT):
    """Upward drift by 1, collapse to state 1 at a fixed rate, absorption
    only out of state 1.  The closed-form moment ceiling for K={1} at
    rate C=absorb is drop/(drop-absorb).  In KILL mode the top state's
    drift leaves the window as truncation killing."""
    entries = []
    n = n_states - 1
    for x in range(1, n + 1):
        if x < n or boundary == KILL:
            entries.append((x, x + 1, birth))
        if x >= 2:
            entries.append((x, 1, drop))
    entries.append((1, 0, absorb))
    return build_from_entries(entries, n_states, boundary)


def alternating_catastrophe_chain(n_states=12, birth=1.0, drop=3.0, absorb=1.0):
    """Collapses land on 1 from odd states and on 2 from even states, so
    no single target state has a uniform inbound floor, but the pair
    {1, 2} does."""
    entries = []
    n = n_states - 1
    for x in range(1, n + 1):
        if x < n:
            entries.append((x, x + 1, birth))
        if x >= 3:
            entries.append((x, 1 if x % 2 == 1 else 2, drop))
    entries.append((1, 0, absorb))
    entries.append((2, 1, 1.0))
    return build_from_entries(entries, n_states)


def high_column_chain(n_states=6, col_rate=3.0, absorb=1.0, trickle=0.1):
    """Every state feeds the top transient state fast, which leaks back
    slowly.  The uniform-rates test passes yet no prefix core can,
    because the heavy column targets the top of the window."""
    entries = []
    n = n_states - 1
    for x in range(1, n + 1):
        if x != n:
            entries.append((x, n, col_rate))
        if x < n - 1:
            entries.append((x, x + 1, 0.3))
    entries.append((n, n - 1, trickle))
    entries.append((1, 0, absorb))
    return build_from_entries(entries, n_states)


def random_return_chain(seed: int):
    """Random bounded-rate chain built so the uniform-rates test has a
    real chance to hold: full inbound columns only on low states, sparse
    noise elsewhere, absorption from a few low states."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 16))  # transient states 1..n
    entries = []
    # sparse background rates
    for x in range(1, n + 1):
        for _ in range(int(rng.integers(1, 4))):
            y = int(rng.integers(1, n + 1))
            if y != x:
                entries.append((x, y, float(rng.uniform(0.05, 1.0))))
        if x < n:
            entries.append((x, x + 1, float(rng.uniform(0.1, 0.8))))
    # full return columns into 1..m with per-source floors
    m = int(rng.integers(1, 4))
    floors = rng.uniform(0.3, 1.5, size=m)
    for target in range(1, m + 1):
        for x in range(1, n + 1):
            if x != target:
                entries.append((x, target, float(floors[target - 1])))
    # absorption out of a couple of low states
    for x in range(1, int(rng.integers(2, 4))):
        entries.append((x, 0, float(rng.uniform(0.2, 1.2))))
    return build_from_entries(entries, n + 1)


def random_small_absorbed_chain(seed: int, max_transient=7):
    """Dense-ish random chain on few states for exact-oracle comparisons."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_transient + 1))
    entries = []
    for x in range(1, n + 1):
        for y in range(0, n + 1):
            if y != x and rng.random() < 0.6:
                entries.append((x, y, float(rng.uniform(0.05, 2.0))))
    # guarantee some absorption exists somewhere
    entries.append((1, 0, float(rng.uniform(0.1, 1.0))))
    return build_from_entries(entries, n + 1)


def bd_region_chain(spec, z: int, m: int):
    """Window chain for the region z+1..m with absorption at level z.

    Relabels level z+i as window state i, so hitting {<= z} in the full
    chain is absorption in the window.  Assembled through the public
    entry constructor on purpose: oracles built here share no code with
    the series and descent implementations they check.
    """
    entries = []
    n = m - z
    for i in range(1, n + 1):
        up, down = spec.rates_at(z + i)
        if i < n and up > 0:
            entries.append((i, i + 1, up))
        if down > 0:
            entries.append((i, i - 1, down))  # i=1 -> 0 is the absorption
    return build_from_entries(entries, n + 1)


def bd_hitting_oracle(spec, z: int, m: int) -> np.ndarray:
    """E_x(time to reach z) for x = z+1..m via a sparse linear solve."""
    from scipy.sparse.linalg import spsolve

    chain = bd_region_chain(spec, z, m)
    Q = chain.sub_generator.tocsc()
    return spsolve(-Q, np.ones(chain.n_transient))


def bd_moment_oracle(spec, z: int, lam: float, m: int) -> np.ndarray:
    """E_x exp(lam * time to reach z) for x = z+1..m on the window z..m
    with its top reflected, by a sparse linear solve.  The window cuts
    off the levels above m, so every value lies below the chain's."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import spsolve

    chain = bd_region_chain(spec, z, m)
    A = -(chain.sub_generator + lam * identity(chain.n_transient))
    return spsolve(A.tocsc(), chain.absorption_rates)


def descent_sum_oracle(spec, z: int, x: int, inner=None) -> float:
    """sum_{k=z+1}^{x} E_k T_{k-1} with one rates_at call per level,
    recursed downward from the anchor x, where the ladder tail is inner
    (by default summed upward from x).  The library fetches the rates
    in chunks and must match this bit for bit, errors included."""
    if inner is None:
        inner = _inner_tail(spec, x)
    _, down = spec.rates_at(x)
    if down <= 0:
        raise ValidationError(f"death rate at {x} must be > 0")
    total = 0.0
    k = x
    while True:
        total += inner / down
        k -= 1
        if k == z:
            return total
        up_prev, down_prev = spec.rates_at(k)
        if down_prev <= 0:
            raise ValidationError(f"death rate at {k} must be > 0")
        inner = 1.0 + (up_prev / down) * inner
        down = down_prev


def moment_descent_oracle(spec, z: int, lam: float, m: int, top: float) -> float:
    """prod_{k=z+1}^{m} phi_k descended from phi_{m+1} = top by
    phi_k = d_k/(b_k + d_k - lam - b_k phi_{k+1}), one rates_at call per
    level, in plain floats (no directed rounding)."""
    phi, prod = top, 1.0
    for k in range(m, z, -1):
        up, down = spec.rates_at(k)
        phi = down / (up + down - lam - up * phi)
        prod *= phi
    return prod


def evolve_oracle(chain, vec, t: float, side: str, series_tol: float = SERIES_TOL) -> np.ndarray:
    """The Poisson series by Horner's rule, y = w_K v and then
    y = w_k v + A y for k = K-1, ..., 0, on a fresh array per term, with
    A = M for functions and a CSR copy of M^T for measures.  Each entry
    of A y is added to w_k v one product at a time, in the order of its
    row of A: numpy adds the r-th product of every row at once, for
    r = 0, 1, ...  The library preloads w_k v into a buffer row and has
    the sparsetools kernel add into it, and must match this bit for bit
    (on a build whose kernels round each product before they add it, as
    x86-64 builds do).  Measures take their own copy of M^T here, where
    the library reads M^T through the csc kernels on M's arrays."""
    v = np.asarray(vec, dtype=np.float64)
    lam, M = chain.uniformized
    mu = lam * t
    if mu == 0.0:
        return v.copy()
    w = _poisson_weights(mu, series_tol)
    A = M.T.tocsr() if side == "measure" else M
    # the block raveled: entry (i, c) of an m-column block sits at i*m + c
    m = 1 if v.ndim == 1 else v.shape[1]
    cols = np.arange(m)
    row = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    rank = np.arange(A.nnz) - A.indptr[row]
    # where the r-th entry of every row that has one adds, what it reads, its value
    by_rank = [
        (
            (row[rank == r, None] * m + cols).ravel(),
            (A.indices[rank == r, None] * m + cols).ravel(),
            np.repeat(A.data[rank == r], m),
        )
        for r in range(rank.max(initial=-1) + 1)
    ]
    flat = np.ascontiguousarray(v).reshape(-1)
    y = w[-1] * flat
    for wk in w[-2::-1]:
        z = wk * flat
        for i, j, a in by_rank:
            z[i] = z[i] + a * y[j]
        y = z
    return y.reshape(v.shape)


def power_iteration_qsd(chain, tol=1e-12, max_iters=100000):
    """QSD by power iteration of the conditioned unit-time step from
    uniform: (law, decay rate).  Every series term is non-negative, so the
    iterates are probability vectors by construction; the cost is about
    L matvecs per step, which is why the library solves by inverse
    iteration instead and keeps this route only as an oracle."""
    v = np.full(chain.n_transient, 1.0 / chain.n_transient)
    for k in range(1, max_iters + 1):
        w = evolve_measure(chain, v, 1.0)
        w = w / w.sum()
        inc = float(np.abs(w - v).sum())
        v = w
        if inc < tol and k >= 3:
            return v, float(v @ (chain.absorption_rates + chain.kill_rates))
    raise AssertionError(f"power iteration did not reach tol={tol} in {max_iters} steps")


def assert_rate_within_gap(chain, certificate) -> tuple[float, float]:
    """(rate, gap) of a certificate on its birth-death window, failing
    when the rate -log1p(-gamma) of its bound exceeds the gap
    lambda2 - lambda1.

    On a finite irreducible window, conditioned laws approach the QSD at
    the rate lambda2 - lambda1 and no faster (Darroch-Seneta 1967,
    J. Appl. Probab. 4), so no valid bound 2(1 - gamma)^floor(t) decays
    faster.  lambda1 < lambda2 are the two least eigenvalues of -Q on
    the transient states, read from its symmetrization: diagonal q(x),
    off-diagonal sqrt(Q(x, x+1) Q(x+1, x))."""
    assert (certificate.n_states, certificate.boundary_mode) == (chain.n_states, chain.boundary_mode)
    Q = chain.sub_generator
    up, down = Q.diagonal(1), Q.diagonal(-1)
    assert Q.nnz == Q.shape[0] + 2 * up.size and np.all(up * down > 0), "not an irreducible birth-death window"
    lam1, lam2 = eigvalsh_tridiagonal(-Q.diagonal(), np.sqrt(up * down), select="i", select_range=(0, 1))
    rate, gap = -math.log1p(-certificate.gamma), lam2 - lam1
    assert rate <= gap, f"certificate rate {rate:.3e} exceeds the window's gap {gap:.3e}"
    return rate, gap


def c2_survival_ratio_oracle(chain, K, t_max=20.0, ratio=1.5):
    """Smallest ratio min/max over K of the survival probabilities
    P_x(alive at t), observed on a geometric time grid up to t_max.  Any
    floor valid for all t lies below it; the library computes only the
    proved floor, so this scan (evolution far past t = 1) is an oracle."""
    idx = np.array(sorted({int(x) - 1 for x in K}))
    h = np.ones(chain.n_transient)
    t_cur = 0.0
    worst = 1.0
    for t in geometric_grid(min(0.125, t_max), t_max, ratio):
        h = evolve_function(chain, h, t - t_cur)
        t_cur = t
        hk = h[idx]
        worst = min(worst, float(hk.min() / hk.max()))
    return worst


def alpha_uniform_oracle(chain):
    """Column floor alpha = inf_y Q(y, 0) + sum_x inf_{y != x} Q(y, x) on
    the reflecting window, read off the dense generator column by column
    (O(n^2) memory; the library works from the sparse columns)."""
    refl = chain.as_reflecting()
    n = refl.n_transient
    if n < 2:
        return float(refl.absorption_rates.min())
    Q = refl.sub_generator.toarray()
    total = float(refl.absorption_rates.min())
    for col in range(n):
        rates = Q[:, col].copy()
        rates[col] = math.inf  # skip the diagonal: inf over y != x
        total += float(rates.min())
    return total


def minimal_core_oracle(chain):
    """Smallest prefix {1..k} with alpha_K > C, one compute_alpha_K call
    per prefix (O(n * nnz); the library ranks each state's jumps once,
    in O(nnz))."""
    C, _ = compute_absorption_sup(chain)
    for k in range(1, chain.n_transient):
        alpha, _, _ = compute_alpha_K(chain, range(1, k + 1))
        if alpha > C:
            return tuple(range(1, k + 1))
    return None


class SubStream:
    """One keyed stream with an explicit draw counter: the scalar
    reference for the library's vectorised u01.

    Each method advances the counter by exactly one draw, so the k-th
    value of a stream never depends on how earlier values were used.
    """

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, *indices: int):
        self.key = derive_key(seed, *indices)
        self.counter = 0

    def next_u01(self) -> float:
        """Uniform on (0, 1): a multiple of 2**-53 below 1, with 0 replaced
        by the smallest positive double."""
        z = (self.key + self.counter * _GOLDEN) & _MASK
        self.counter += 1
        u = (mix64(z) >> 11) * _INV53
        return u if u > 0.0 else _TINY

    def next_choice(self, cumulative) -> int:
        """Index drawn from a cumulative weight array (last entry = total)."""
        u = self.next_u01() * cumulative[-1]
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) >> 1
            if cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo


def jump_rows_oracle(chain):
    """Per-state jump rows read off the dense generator: (targets, cum,
    totals), with targets[x] pairing cum[x] for states 1..n_transient
    (row 0 is empty).  Absorption (target 0) comes first, then the other
    states in increasing order, then truncation killing (KILLED_STATE);
    zero rates are left out.  cum[x] holds the running sums of the row
    and totals[x] its last entry, 0.0 for an empty row.  Shares no code
    with the library's flat tables, which must match it bit for bit."""
    Q = chain.sub_generator.toarray()
    n = chain.n_transient
    targets, cum, totals = [[]], [[]], [0.0]
    for x in range(1, n + 1):
        rates = [(0, float(chain.absorption_rates[x - 1]))]
        rates += [(y, float(Q[x - 1, y - 1])) for y in range(1, n + 1) if y != x]
        rates.append((KILLED_STATE, float(chain.kill_rates[x - 1])))
        tg, cw = [], []
        acc = 0.0
        for y, r in rates:
            if r > 0:
                acc += r
                tg.append(y)
                cw.append(acc)
        targets.append(tg)
        cum.append(cw)
        totals.append(acc)
    return targets, cum, totals


def state_number_oracle(v):
    """A state number as the checks read it: an int for an int or an
    integral float, None for anything else (a fraction, NaN, inf, a
    bool)."""
    if type(v) is bool:
        return None
    if isinstance(v, int):
        return v
    if isinstance(v, float) and v == v and abs(v) != math.inf and v == int(v):
        return int(v)
    return None


def _integer_states_oracle(x, y):
    """(x, y) as ints, or the error that names a pair whose state numbers
    are not both integers, each shown as given, a string in quotes."""
    ix, iy = state_number_oracle(x), state_number_oracle(y)
    if ix is None or iy is None:
        shown = [i if i is not None else f"'{v}'" if type(v) is str else v
                 for v, i in ((x, ix), (y, iy))]
        raise ValidationError(f"state numbers of rate ({shown[0]} -> {shown[1]}) must be integers")
    return ix, iy


def chain_oracle(n_states, off_diagonal, absorption_rates, kill_rates):
    """(sub_generator, absorption, kill) of a window assembled entry by
    entry from a {(x, y): rate} mapping, with AbsorbedChain's checks and
    messages: each entry is checked in the mapping's order, zero rates
    are skipped, and each exit rate adds the row's jump rates to
    absorption plus killing in that order.  Shares no code with the
    library's array constructor, which must match it bit for bit."""
    n = n_states - 1
    absorb = np.asarray(absorption_rates, dtype=np.float64)
    kill = np.asarray(kill_rates, dtype=np.float64)
    rows, cols, vals = [], [], []
    out_rate = absorb + kill
    for (x, y), r in off_diagonal.items():
        x, y = _integer_states_oracle(x, y)
        if not (1 <= x <= n and 1 <= y <= n):
            raise ValidationError(f"off-diagonal rate ({x} -> {y}) falls outside transient states 1..{n}")
        if x == y:
            raise ValidationError(f"diagonal entry ({x} -> {x}) may not be specified directly")
        r = float(r)
        if not math.isfinite(r) or r < 0:
            raise ValidationError(f"rate ({x} -> {y}) must be finite and >= 0, got {r}")
        if r == 0.0:
            continue
        rows.append(x - 1)
        cols.append(y - 1)
        vals.append(r)
        out_rate[x - 1] += r
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(-out_rate)
    Q = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.float64)
    Q.sum_duplicates()
    return Q, absorb, kill


def entry_checks_oracle(entries, n_states, boundary_mode):
    """Raise the error build_from_entries reports for an entry table, if
    any: the (from, to, rate) entries one at a time in the given order,
    each checked first for state numbers that are not integers, then in
    the order the messages are listed here, on Python ints and floats.
    Shares no code with the library's array checks, which must name the
    same entry by the same check."""
    n = n_states - 1
    for x, y, r in entries:
        x, y = _integer_states_oracle(x, y)
        if x == 0:
            raise ValidationError(f"state 0 is absorbing; rate ({x} -> {y}) is not allowed")
        if not 1 <= x <= n:
            raise ValidationError(f"source state {x} outside window 1..{n}")
        if x == y:
            raise ValidationError(f"self-rate ({x} -> {x}) is not allowed")
        if y < 0:
            raise ValidationError(f"target state {y} of rate ({x} -> {y}) is negative")
        if not math.isfinite(r) or r < 0:
            raise ValidationError(f"rate ({x} -> {y}) must be finite and >= 0, got {r}")
        if y > n and boundary_mode != KILL:
            raise ValidationError(
                f"target state {y} lies above the window top {n}; "
                f"use KILL boundary mode or enlarge the window"
            )


def simulate_batch_oracle(chain, mu, horizon, n_paths, seed, stop_on_set=None):
    """simulate_batch path by path: one SubStream per path, run to its
    end before the next path starts, on the rows of jump_rows_oracle.
    Valid inputs only; the library advances all paths together and must
    match this bit for bit."""
    weights = mu.weights if isinstance(mu, DistributionOnStates) else np.asarray(mu, float)
    cum_init = np.cumsum(weights).tolist()
    stop = frozenset(int(x) for x in stop_on_set) if stop_on_set is not None else None
    targets, cum, totals = jump_rows_oracle(chain)
    end = np.empty(n_paths, dtype=np.int64)
    times = np.empty(n_paths, dtype=np.float64)
    status = np.empty(n_paths, dtype=np.uint8)
    log = math.log

    for i in range(n_paths):
        s = SubStream(seed, _KIND_PATH, i)
        x = s.next_choice(cum_init) + 1
        if stop is not None and x in stop:
            end[i], times[i], status[i] = x, 0.0, STATUS_HIT_SET
            continue
        t = 0.0
        while True:
            q = totals[x]
            if q <= 0.0:
                if horizon == math.inf:
                    raise ComputationError(
                        f"path {i} reached the trap state {x} with an infinite horizon"
                    )
                end[i], times[i], status[i] = x, horizon, STATUS_SURVIVED
                break
            t -= log(s.next_u01()) / q
            if t >= horizon:
                end[i], times[i], status[i] = x, horizon, STATUS_SURVIVED
                break
            y = targets[x][s.next_choice(cum[x])]
            if y == 0:
                end[i], times[i], status[i] = 0, t, STATUS_ABSORBED
                break
            if y == KILLED_STATE:
                end[i], times[i], status[i] = KILLED_STATE, t, STATUS_KILLED
                break
            x = y
            if stop is not None and x in stop:
                end[i], times[i], status[i] = x, t, STATUS_HIT_SET
                break
    return TrajectoryBatch(
        seed=seed,
        n_paths=n_paths,
        horizon=horizon,
        n_states=chain.n_states,
        stop_set=tuple(sorted(stop)) if stop is not None else None,
        end_states=end,
        times=times,
        status=status,
    )


def fleming_viot_oracle(chain, n_particles, horizon, seed, sample_times=None, mu=None):
    """fleming_viot in its reference order: events one at a time off a
    heap keyed (time, particle index), every draw computed inline, one
    splitmix64 word at a time on Python ints, on the rows of
    jump_rows_oracle.  Valid inputs only; the library moves particles in
    numpy lockstep between respawns and must match this bit for bit."""
    if sample_times is None:
        samples = [float(horizon)]
    else:
        samples = sorted(float(t) for t in sample_times)
    if mu is None:
        mu = np.full(chain.n_transient, 1.0 / chain.n_transient)
    cum_init = _initial_cumulative(chain, mu)

    targets, cum, totals = jump_rows_oracle(chain)
    key_array = derive_key(seed, _KIND_PARTICLE, np.arange(n_particles, dtype=np.uint64))
    start = _initial_states(cum_init, u01(key_array, 0))
    exit_rates = np.array(totals)
    movable = exit_rates[start] > 0.0
    keys = key_array.tolist()
    positions = start.tolist()
    counters = np.where(movable, 2, 1).tolist()
    heap = [
        (-math.log(u) / q, int(i))
        for i, u, q in zip(
            np.flatnonzero(movable),
            u01(key_array[movable], 1).tolist(),
            exit_rates[start[movable]].tolist(),
        )
    ]
    heapq.heapify(heap)

    log = math.log
    last = n_particles - 1
    redraws = 0
    snapshots = []
    for tau in samples:
        while heap and heap[0][0] <= tau:
            t_ev, i = heap[0]
            key, c = keys[i], counters[i]
            x = positions[i]
            row = cum[x]
            u = (mix64(key + c * _GOLDEN) >> 11) * _INV53 or _TINY
            j = bisect_left(row, u * row[-1])
            y = targets[x][j if j < len(row) else -1]
            c += 1
            if y <= 0:
                u = (mix64(key + c * _GOLDEN) >> 11) * _INV53 or _TINY
                c += 1
                k = int(u * last)
                if k >= last:
                    k = last - 1
                if k >= i:
                    k += 1
                y = positions[k]
                redraws += 1
            positions[i] = y
            q = totals[y]
            if q > 0.0:
                u = (mix64(key + c * _GOLDEN) >> 11) * _INV53 or _TINY
                c += 1
                heapq.heapreplace(heap, (t_ev - log(u) / q, i))
            else:
                heapq.heappop(heap)
            counters[i] = c
        snapshots.append(
            ParticleEnsemble(
                time=tau,
                n_particles=n_particles,
                positions=np.array(positions, dtype=np.int64),
                redraw_count=redraws,
            )
        )
    return snapshots


@pytest.fixture
def tmp_chain_file(tmp_path):
    def write(text: str, name: str = "chain.txt"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write
