"""Monte Carlo cross-checks: path batches and a particle ensemble.

Randomness is counter-based: every path or particle owns a keyed stream
whose k-th draw depends only on (seed, stream id, k).  Scheduling, batch
splits, or platform thread counts therefore cannot change any output;
rerunning with the same seed reproduces results bit for bit.

Both samplers read one table per chain: every state's jump targets and
cumulative rates, the rows concatenated, from which a draw picks a jump
by bisection.

Independent paths run in lockstep: simulate_batch advances every live
path by one jump per numpy step, drawing from all path streams at once.
Each path still sees exactly the draws, jump choices and float
operations it would see run on its own, so the output equals a
path-by-path loop on scalar streams bit for bit (the test suite keeps
that loop as its reference).

The particle ensemble keeps n walkers moving under the chain dynamics;
a walker that gets absorbed is instantly respawned on the position of a
uniformly chosen other walker.  Its empirical law converges to the
quasi-stationary law as n grows, which is the cross-check used against
the exact engine.  Its events run one at a time in global time order,
but each walker's next draws are prefetched in blocks, many walkers per
numpy call; a draw's value depends only on its counter, so prefetching
changes no output.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import AbsorbedChain, DistributionOnStates, law_weights
from .errors import ComputationError, ValidationError
from .streams import derive_key, u01
from .textio import fmt, write_csv

STATUS_ABSORBED = 0
STATUS_SURVIVED = 1
STATUS_HIT_SET = 2
STATUS_KILLED = 3

# stream kinds keep path and particle draws on disjoint keys
_KIND_PATH = 1
_KIND_PARTICLE = 2

# end-state sentinel for paths killed through the window top
KILLED_STATE = -1

# stream draws each Fleming-Viot particle holds ready, and the most one
# event spends: the jump choice, a respawn choice and the holding time
_FV_DEPTH = 16
_FV_EVENT_DRAWS = 3


class _JumpTables(NamedTuple):
    """Jump targets and cumulative rates of every state, rows concatenated.

    Row x sits at start[x]:start[x + 1] of targets and cum; target 0 is
    absorption and -1 truncation killing.  cum holds the running sums of
    the row's rates, so its last entry is totals[x], the exit rate (0 for
    a state that never leaves, whose row is empty).  The particle
    ensemble bisects one row at a time and simulate_batch all rows at
    once, both on this layout, which costs O(nnz) memory whatever the
    largest row.
    """

    start: np.ndarray
    targets: np.ndarray
    cum: np.ndarray
    totals: np.ndarray
    # bisection steps that pin an index down in the longest row
    depth: int


def _jump_tables(chain: AbsorbedChain) -> _JumpTables:
    tables = chain._cache.get("jump_tables")
    if tables is not None:
        return tables
    n = chain.n_transient
    start = [0, 0]
    targets: list[int] = []
    cum: list[float] = []
    totals = [0.0] * (n + 1)
    rows = chain.sub_generator.tocsr()
    for x in range(1, n + 1):
        acc = 0.0
        a = float(chain.absorption_rates[x - 1])
        if a > 0:
            acc += a
            targets.append(0)
            cum.append(acc)
        for pos in range(rows.indptr[x - 1], rows.indptr[x]):
            y = int(rows.indices[pos]) + 1
            r = float(rows.data[pos])
            if y == x or r <= 0:
                continue
            acc += r
            targets.append(y)
            cum.append(acc)
        k = float(chain.kill_rates[x - 1])
        if k > 0:
            acc += k
            targets.append(KILLED_STATE)
            cum.append(acc)
        start.append(len(cum))
        totals[x] = acc
    widest = max(b - a for a, b in zip(start, start[1:]))
    tables = _JumpTables(
        start=np.array(start, dtype=np.int64),
        targets=np.array(targets, dtype=np.int64),
        cum=np.array(cum, dtype=np.float64),
        totals=np.array(totals),
        depth=max(widest - 1, 0).bit_length(),
    )
    chain._cache["jump_tables"] = tables
    return tables


def _initial_cumulative(chain: AbsorbedChain, mu) -> np.ndarray:
    """Cumulative weights of the initial law over states 1..n_transient
    (checked by law_weights; raw weights need not sum to 1)."""
    return np.cumsum(law_weights(chain, mu, "initial law"))


def _require_every_path_ends(jumps: _JumpTables, cum_init: np.ndarray, in_stop: np.ndarray) -> None:
    """Raise unless every path from the initial law stops in finite time.

    A path ends on absorption, killing, entry into the stop set, or in a
    state with no exit (a trap, reported after the run).  A state that
    can be reached from the support of the initial law, has a positive
    exit rate, and reaches none of those ends lies in a closed class the
    path never leaves: with an infinite horizon its paths would jump
    forever.
    """
    bounds, targets = jumps.start.tolist(), jumps.targets.tolist()
    rows = [targets[a:b] for a, b in zip(bounds, bounds[1:])]
    n = len(rows) - 1
    preds: list[list[int]] = [[] for _ in range(n + 1)]
    ends = []
    for x in range(1, n + 1):
        row = rows[x]
        if in_stop[x] or not row or min(row) <= 0:
            ends.append(x)
        for y in row:
            if y > 0:
                preds[y].append(x)
    can_end = np.zeros(n + 1, dtype=bool)
    can_end[ends] = True
    stack = ends
    while stack:
        for w in preds[stack.pop()]:
            if not can_end[w]:
                can_end[w] = True
                stack.append(w)
    # states the initial draw can pick: those that raise the cumulative law
    start = (np.flatnonzero(np.diff(cum_init, prepend=0.0) > 0) + 1).tolist()
    seen = np.zeros(n + 1, dtype=bool)
    seen[start] = True
    stack = start
    while stack:
        x = stack.pop()
        if in_stop[x]:
            continue  # paths stop on entry
        for y in rows[x]:
            if y > 0 and not seen[y]:
                seen[y] = True
                stack.append(y)
    stuck = np.flatnonzero(seen & ~can_end)
    if stuck.size:
        raise ValidationError(
            f"state {stuck[0]} is reachable from the initial law but no absorption, "
            f"killing, stop-set or trap state is reachable from it; with an infinite "
            f"horizon its paths would never end"
        )


def _initial_states(cum_init: np.ndarray, u: np.ndarray) -> np.ndarray:
    """States drawn from the initial law by uniforms u: one plus the
    count of cumulative entries below u * total, capped at the last
    state."""
    idx = np.searchsorted(cum_init, u * cum_init[-1], side="left")
    return np.minimum(idx, cum_init.size - 1) + 1


@dataclass
class TrajectoryBatch:
    """Outcome of n independent paths run to absorption, a set hit,
    killing, or the horizon; times carry the event time (horizon for
    survivors)."""

    seed: int
    n_paths: int
    horizon: float
    n_states: int
    stop_set: tuple[int, ...] | None
    end_states: np.ndarray
    times: np.ndarray
    status: np.ndarray

    def __post_init__(self):
        if self.end_states.shape != (self.n_paths,) or self.times.shape != (self.n_paths,):
            raise ValidationError("batch arrays must have one entry per path")
        if self.status.shape != (self.n_paths,):
            raise ValidationError("batch arrays must have one entry per path")

    def survivor_mask(self) -> np.ndarray:
        return self.status == STATUS_SURVIVED

    def absorption_times(self) -> np.ndarray:
        return self.times[self.status == STATUS_ABSORBED]

    def hit_times(self) -> np.ndarray:
        return self.times[self.status == STATUS_HIT_SET]

    def survival_fraction(self) -> float:
        return float(np.count_nonzero(self.survivor_mask())) / self.n_paths


def simulate_batch(
    chain: AbsorbedChain,
    mu,
    horizon: float,
    n_paths: int,
    seed: int,
    stop_on_set=None,
) -> TrajectoryBatch:
    """Run n_paths independent jump paths from law mu up to the horizon.

    Paths stop early at absorption (state 0), at truncation killing, or
    on first entry into stop_on_set when given (a start already inside
    counts as an immediate hit at time 0).  horizon may be math.inf as
    long as one of the stopping events is almost sure; a closed class of
    states that no path can leave once inside raises ValidationError
    before any draw.  States with zero
    exit rate hold forever and survive any finite horizon; with an
    infinite horizon the lowest-numbered path that reaches one is named
    in the ComputationError.  mu is a DistributionOnStates of the window
    or a raw weight array over states 1..n_transient.
    """
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    if not horizon > 0:
        raise ValidationError(f"horizon must be > 0, got {horizon}")
    cum_init = _initial_cumulative(chain, mu)
    stop = frozenset(int(x) for x in stop_on_set) if stop_on_set is not None else None
    if stop is not None and (not stop or min(stop) < 1 or max(stop) > chain.n_transient):
        raise ValidationError("stop_on_set must be non-empty transient states")

    jumps = _jump_tables(chain)
    in_stop = np.zeros(chain.n_transient + 1, dtype=bool)
    if stop is not None:
        in_stop[list(stop)] = True
    if horizon == math.inf:
        _require_every_path_ends(jumps, cum_init, in_stop)
    end = np.empty(n_paths, dtype=np.int64)
    times = np.empty(n_paths, dtype=np.float64)
    status = np.empty(n_paths, dtype=np.uint8)

    path = np.arange(n_paths)
    keys = derive_key(seed, _KIND_PATH, path.astype(np.uint64))
    x = _initial_states(cum_init, u01(keys, 0))
    hit = in_stop[x]
    end[hit], times[hit], status[hit] = x[hit], 0.0, STATUS_HIT_SET
    path, keys, x = path[~hit], keys[~hit], x[~hit]
    t = np.zeros(path.size)
    log = math.log
    # Every live path has made the same number of jumps, so all sit at
    # the same draw counter: 2 per jump after the initial choice.
    counter = 1
    while path.size:
        q = jumps.totals[x]
        # math.log, not np.log: np.log's last bit depends on the SIMD
        # code path, and the times must match the per-path loop exactly
        hold = np.fromiter(map(log, u01(keys, counter).tolist()), np.float64, path.size)
        with np.errstate(divide="ignore"):
            t = t - hold / q  # a state with q = 0 holds forever: t = inf
        out = t >= horizon
        if out.any():
            done = path[out]
            end[done], times[done], status[done] = x[out], horizon, STATUS_SURVIVED
            keep = ~out
            path, keys, x, t, q = path[keep], keys[keep], x[keep], t[keep], q[keep]
        # first row entry >= v, the row's last entry if none is
        v = u01(keys, counter + 1) * q
        lo = jumps.start[x]
        hi = jumps.start[x + 1] - 1
        for _ in range(jumps.depth):
            mid = (lo + hi) >> 1
            below = jumps.cum[mid] < v
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
        x = jumps.targets[lo]
        out = (x <= 0) | in_stop[x]
        if out.any():
            done = path[out]
            xo = x[out]
            end[done], times[done] = xo, t[out]
            status[done] = np.where(
                xo == 0, STATUS_ABSORBED, np.where(xo < 0, STATUS_KILLED, STATUS_HIT_SET)
            )
            keep = ~out
            path, keys, x, t = path[keep], keys[keep], x[keep], t[keep]
        counter += 2

    if horizon == math.inf and np.any(status == STATUS_SURVIVED):
        i = int(np.argmax(status == STATUS_SURVIVED))
        raise ComputationError(
            f"path {i} reached the trap state {end[i]} with an infinite horizon"
        )
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


def conditional_estimate(batch: TrajectoryBatch) -> tuple[DistributionOnStates, float]:
    """Empirical law of surviving paths' end states, with the survival
    fraction.  No survivors means the conditioning event was not
    observed and raises."""
    mask = batch.survivor_mask()
    n_surv = int(np.count_nonzero(mask))
    if n_surv == 0:
        raise ComputationError(
            "no path survived the horizon; increase n_paths or shorten the horizon"
        )
    counts = np.bincount(batch.end_states[mask], minlength=batch.n_states)
    law = counts[1:].astype(np.float64) / n_surv
    return DistributionOnStates(law, _skip_checks=True), n_surv / batch.n_paths


@dataclass
class ParticleEnsemble:
    """Snapshot of the interacting ensemble at one sample time."""

    time: float
    n_particles: int
    positions: np.ndarray
    redraw_count: int

    def empirical_distribution(self, n_states: int) -> DistributionOnStates:
        counts = np.bincount(self.positions, minlength=n_states)
        return DistributionOnStates(counts[1:].astype(np.float64) / self.n_particles,
                                    _skip_checks=True)


def fleming_viot(
    chain: AbsorbedChain,
    n_particles: int,
    horizon: float,
    seed: int,
    sample_times=None,
    mu=None,
) -> list[ParticleEnsemble]:
    """Interacting-particle estimate of the quasi-stationary law.

    Events run in global time order off one heap; an absorbed (or
    killed) particle adopts the position of a uniformly drawn other
    particle, the choice coming from its own stream so results do not
    depend on event interleaving across particles.  Ties in event times
    break by particle index.  Returns one snapshot per sample time
    (default: just the horizon).  The order is sequential, so the event
    loop moves one particle at a time; the stream draws it reads are
    prefetched, _FV_DEPTH per particle, by vectorised u01 calls.
    """
    if n_particles < 2:
        raise ValidationError("the ensemble needs at least 2 particles to respawn")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValidationError(f"horizon must be finite and > 0, got {horizon}")
    if sample_times is None:
        samples = [float(horizon)]
    else:
        samples = sorted(float(t) for t in sample_times)
        # every time is checked: sorted() may leave a NaN anywhere, and a
        # NaN fails both comparisons
        if not samples or not all(0.0 <= t <= horizon for t in samples):
            raise ValidationError("sample times must be finite and lie in [0, horizon]")
    if mu is None:
        mu = np.full(chain.n_transient, 1.0 / chain.n_transient)
    cum_init = _initial_cumulative(chain, mu)

    jumps = _jump_tables(chain)
    keys = derive_key(seed, _KIND_PARTICLE, np.arange(n_particles, dtype=np.uint64))[:, None]
    offsets = np.arange(_FV_DEPTH, dtype=np.uint64)
    # ready[i][p] is draw base[i] + p of particle i; used[i] of them are
    # spent.  Draw 0 picks the start state and draw 1 the first holding
    # time of a particle that can move.
    base = np.zeros(n_particles, dtype=np.uint64)
    first = u01(keys, offsets)
    initial = _initial_states(cum_init, first[:, 0])
    movable = jumps.totals[initial] > 0.0
    heap = [
        (-math.log(u) / q, int(i))
        for i, u, q in zip(
            np.flatnonzero(movable),
            first[movable, 1].tolist(),
            jumps.totals[initial[movable]].tolist(),
        )
    ]
    heapq.heapify(heap)
    # the event loop runs one particle at a time, on plain Python values
    ready = first.tolist()
    del first
    used = np.where(movable, 2, 1).tolist()
    positions = initial.tolist()
    start, targets = jumps.start.tolist(), jumps.targets.tolist()
    cum, totals = jumps.cum.tolist(), jumps.totals.tolist()

    log = math.log
    last = n_particles - 1
    redraws = 0
    snapshots: list[ParticleEnsemble] = []
    for tau in samples:
        while heap and heap[0][0] <= tau:
            # the event stays on top until replaced; entries are distinct
            # (time, index) pairs, so pop order depends only on their set
            t_ev, i = heap[0]
            p = used[i]
            if p > _FV_DEPTH - _FV_EVENT_DRAWS:
                # refill every particle that has spent half its block, i
                # among them, each from its own next counter
                spent = np.array(used)
                wave = np.flatnonzero(spent >= _FV_DEPTH // 2)
                base[wave] += spent[wave].astype(np.uint64)
                fresh = u01(keys[wave], base[wave, None] + offsets).tolist()
                for w, block in zip(wave.tolist(), fresh):
                    ready[w] = block
                    used[w] = 0
                p = 0
            draws = ready[i]
            x = positions[i]
            # first row entry >= the draw, the row's last entry if none is
            y = targets[bisect_left(cum, draws[p] * totals[x], start[x], start[x + 1] - 1)]
            p += 1
            if y <= 0:  # absorbed or killed: respawn on another particle
                k = int(draws[p] * last)
                p += 1
                if k >= last:
                    k = last - 1
                if k >= i:
                    k += 1
                y = positions[k]
                redraws += 1
            positions[i] = y
            q = totals[y]
            if q > 0.0:
                heapq.heapreplace(heap, (t_ev - log(draws[p]) / q, i))
                p += 1
            else:
                heapq.heappop(heap)
            used[i] = p
        snapshots.append(
            ParticleEnsemble(
                time=tau,
                n_particles=n_particles,
                positions=np.array(positions, dtype=np.int64),
                redraw_count=redraws,
            )
        )
    return snapshots


# -- text output ---------------------------------------------------------------


def batch_to_csv(batch: TrajectoryBatch, target) -> None:
    """One row per path; the time cell is empty for surviving paths."""

    def rows():
        for i in range(batch.n_paths):
            t = "" if batch.status[i] == STATUS_SURVIVED else fmt(batch.times[i])
            yield [str(i), str(int(batch.end_states[i])), t]

    write_csv(target, ["path", "end_state", "absorption_time"], rows())


def ensembles_to_csv(snapshots: list[ParticleEnsemble], target) -> None:
    def rows():
        for snap in snapshots:
            counts = np.bincount(snap.positions)
            for state in np.nonzero(counts)[0]:
                yield [fmt(snap.time), str(int(state)), str(int(counts[state]))]

    write_csv(target, ["t", "state", "count"], rows())
