"""Monte Carlo cross-checks: path batches and a particle ensemble.

Randomness is counter-based: every path or particle owns a keyed stream
whose k-th draw depends only on (seed, stream id, k).  Scheduling, batch
splits, or platform thread counts therefore cannot change any output;
rerunning with the same seed reproduces results bit for bit.

Both samplers read one table per chain: every state's jump targets and
cumulative rates, the rows concatenated, from which a draw picks a jump
by bisection.  One step kernel, _step, moves many walkers by one jump
each per numpy call, from draws its caller makes: the jump choice, in
depth - 1 halvings and one last compare (no halving on a birth-death
window, whose rows hold at most two jumps), then the holding time in
the new state.  Each sampler enters np.errstate(divide="ignore") once
around its loop, for the infinite holding times of states that never
leave.  Holding times take their logs in one compiled call to the C
library's log, the function math.log calls (see _log), so no draw goes
through a Python-level call.

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
the exact engine.  Its events are defined in global (time, particle
index) order, yet walkers move in lockstep between respawns, their only
coupling: an absorbed walker waits until the walker it copies has
recorded its path past the respawn, then reads the position there from
a short per-walker history.  A round resolves the respawns that can
read, takes the snapshots every walker has passed, picks the walkers
free to move, and draws for all of them in one u01 call before the
step.  The output equals the one-event-at-a-time loop bit for bit (the
test suite keeps that loop as its reference).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.special import xlogy

from .chain import AbsorbedChain, DistributionOnStates, law_weights
from .errors import ComputationError, ValidationError
from .streams import derive_key, u01
from .textio import write_csv

STATUS_ABSORBED = 0
STATUS_SURVIVED = 1
STATUS_HIT_SET = 2
STATUS_KILLED = 3

# stream kinds keep path and particle draws on disjoint keys
_KIND_PATH = 1
_KIND_PARTICLE = 2

# end-state sentinel for paths killed through the window top
KILLED_STATE = -1

# a jump's two draws, counters + _PAIR: the jump choice, then the
# holding time; laid out (2, m), which one u01 call mixes faster than
# (m, 2) or two calls
_PAIR = np.array([[0], [1]], dtype=np.uint64)

# events each Fleming-Viot particle keeps in its history ring (at least
# 2); a particle whose ring is full of entries a respawn may still read
# waits, so this bounds both memory and how far walkers drift apart
_FV_WIDTH = 32


class _JumpTables(NamedTuple):
    """Jump targets and cumulative rates of every state, rows concatenated.

    Row x sits at start[x]:last[x] + 1 of targets and cum; target 0 is
    absorption and -1 truncation killing.  cum holds the running sums of
    the row's rates, so its last entry is totals[x], the exit rate (0 for
    a state that never leaves, whose row is empty).  _step bisects many
    rows at once on this layout, which costs O(nnz) memory whatever the
    largest row.  Each sampler call builds its table from the chain's CSR
    arrays and keeps nothing on the window.
    """

    start: np.ndarray
    last: np.ndarray
    targets: np.ndarray
    cum: np.ndarray
    totals: np.ndarray
    # bisection steps that pin an index down in the longest row
    depth: int


def _jump_tables(chain: AbsorbedChain) -> _JumpTables:
    n = chain.n_transient
    # canonical CSR (the chain sums duplicates), so each row's columns ascend
    Q = chain.sub_generator
    states = np.arange(1, n + 1)
    # each row: absorption, the jumps in column order, killing; the
    # diagonal, -q(x) <= 0, drops out with the zero rates
    rows = np.concatenate((states, np.repeat(states, np.diff(Q.indptr)), states))
    targets = np.concatenate((np.zeros(n, np.int64), Q.indices + 1, np.full(n, KILLED_STATE)))
    rates = np.concatenate((chain.absorption_rates, Q.data, chain.kill_rates))
    keep = np.flatnonzero(rates > 0)
    keep = keep[np.argsort(rows[keep], kind="stable")]
    rows, targets, cum = rows[keep], targets[keep], rates[keep]
    start = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n + 1))))
    # entry r of every row adds entry r - 1, so each row sums from 0.0
    # in order; rank 0 needs no add
    rank = np.arange(rows.size) - start[rows]
    by_rank = np.argsort(rank, kind="stable")
    bounds = np.cumsum(np.bincount(rank))
    for lo, hi in zip(bounds, bounds[1:]):
        at = by_rank[lo:hi]
        cum[at] += cum[at - 1]
    width = np.diff(start)
    totals = np.zeros(n + 1)
    totals[width > 0] = cum[start[1:][width > 0] - 1]
    return _JumpTables(
        start=start,
        last=start[1:] - 1,
        targets=targets,
        cum=cum,
        totals=totals,
        depth=max(int(width.max()) - 1, 0).bit_length(),
    )


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
    # imported here, not at the top: csgraph loads scipy.sparse.linalg and
    # scipy.linalg, which finite horizons never need
    from scipy.sparse.csgraph import breadth_first_order

    n = jumps.totals.size - 1
    width = np.diff(jumps.start)
    src, dst = np.repeat(np.arange(n + 1), width), jumps.targets
    # node 0 is the root of both searches: no jump targets it
    ends = width == 0
    ends[0] = False
    ends[src[dst <= 0]] = True
    ends = np.flatnonzero(ends | in_stop)
    src, dst = src[dst > 0], dst[dst > 0]
    # states the initial draw can pick: those that raise the cumulative law
    start = np.flatnonzero(np.diff(cum_init, prepend=0.0) > 0) + 1
    moves = ~in_stop[src]  # paths stop on entry into the stop set

    def reached(heads, tails):
        graph = sparse.csr_matrix((np.ones(heads.size), (heads, tails)), shape=(n + 1, n + 1))
        seen = np.zeros(n + 1, dtype=bool)
        seen[breadth_first_order(graph, 0, return_predecessors=False)] = True
        return seen

    # the states that reach an end, searched back along the jumps
    can_end = reached(np.r_[np.zeros(ends.size, int), dst], np.r_[ends, src])
    seen = reached(np.r_[np.zeros(start.size, int), src[moves]], np.r_[start, dst[moves]])
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


def _exit_times(jumps: _JumpTables, u: np.ndarray, x: np.ndarray, t) -> np.ndarray:
    """When walkers that entered states x at times t leave them:
    t - log(u) / q(x), u being their holding-time uniforms; inf where
    q(x) = 0, a state that never leaves.  Callers hold
    np.errstate(divide="ignore"), once around their whole loop."""
    return t - _log(u) / jumps.totals[x]


def _log(u: np.ndarray) -> np.ndarray:
    """log(u) elementwise, bit for bit what math.log returns.

    xlogy(1, u) is 1 * log(u), one call to the C library's log per entry,
    the function math.log calls; np.log's last bit depends on the SIMD
    code path.  Holding times must match the one-walker reference loops,
    which use math.log, exactly."""
    return xlogy(1.0, u)


def _step(jumps: _JumpTables, u_jump: np.ndarray, u_hold: np.ndarray, x: np.ndarray, t):
    """Move walkers in states x at times t by one jump each.

    u_jump picks each jump target: the first entry of x's row whose
    cumulative rate is >= u_jump * q(x), the row's last if none is.  The
    rows are bisected in lockstep: after depth - 1 halvings at most two
    entries are left, lo and lo + 1, and one compare of cum[lo] picks
    between them (a row of one entry has cum[lo] = q(x) >= v).  On a
    birth-death window every row holds at most two entries, so depth is 1
    and no halving is made.  u_hold is the holding time in the target.
    Returns the targets and the times the walkers leave them; a target
    <= 0 (absorption or killing) has no holding time, and its time is
    meaningless.  Callers draw both uniforms and never pass a state with
    no exit, whose row is empty.
    """
    v = u_jump * jumps.totals[x]
    lo = jumps.start[x]
    if jumps.depth > 1:
        hi = jumps.last[x]
        for _ in range(jumps.depth - 1):
            mid = (lo + hi) >> 1
            below = jumps.cum[mid] < v
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
    y = jumps.targets[lo + (jumps.cum[lo] < v)]
    return y, _exit_times(jumps, u_hold, y, t)


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
    # a jump to y ends its path when ends[y]: absorption (y = 0), killing
    # (y = -1, the last entry) or entry into the stop set
    ends = np.concatenate(([True], in_stop[1:], [True]))
    end = np.empty(n_paths, dtype=np.int64)
    times = np.empty(n_paths, dtype=np.float64)
    status = np.empty(n_paths, dtype=np.uint8)

    path = np.arange(n_paths)
    keys = derive_key(seed, _KIND_PATH, path.astype(np.uint64))
    x = _initial_states(cum_init, u01(keys, 0))
    hit = in_stop[x]
    end[hit], times[hit], status[hit] = x[hit], 0.0, STATUS_HIT_SET
    path, keys, x = path[~hit], keys[~hit], x[~hit]
    # Every live path has made the same number of jumps, so all sit at
    # the same draw counter: 2 per jump after the initial choice and the
    # first holding time.
    counter = 2
    with np.errstate(divide="ignore"):
        t = _exit_times(jumps, u01(keys, 1), x, 0.0)
        while True:
            out = t >= horizon  # a state with q = 0 holds forever: t = inf
            if out.any():
                done = path[out]
                end[done], times[done], status[done] = x[out], horizon, STATUS_SURVIVED
                keep = ~out
                path, keys, x, t = path[keep], keys[keep], x[keep], t[keep]
            if not path.size:
                break
            u = u01(keys, _PAIR + counter)
            y, t_next = _step(jumps, u[0], u[1], x, t)
            out = ends[y]
            if out.any():
                done = path[out]
                yo = y[out]
                end[done], times[done] = yo, t[out]
                status[done] = np.where(
                    yo == 0, STATUS_ABSORBED, np.where(yo < 0, STATUS_KILLED, STATUS_HIT_SET)
                )
                keep = ~out
                path, keys, y, t_next = path[keep], keys[keep], y[keep], t_next[keep]
            x, t = y, t_next
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

    An absorbed (or killed) particle adopts the position of a uniformly
    drawn other particle, the choice coming from its own stream.  The
    reference order is sequential: events in global order of the key
    (time, particle index), ties in time broken by index, each respawn
    reading the other particle's position at its key.  Returns one
    snapshot per sample time (default: just the horizon), with the
    positions and the respawns up to that time.

    The loop reaches the same result in numpy lockstep.  A particle whose
    jump ends in absorption or killing draws its source k and blocks at
    its key (a, i); it stores its respawn key then, once: the next double
    after a when k < i, else a.  Each round then runs in four steps.
    Resolve: a blocked particle is ready once k's frontier time (its next
    event, or its own block time) is at least its respawn key, and takes
    k's state after k's last event timed below that key; it keeps its
    block time as its frontier, a key below the true one, until its
    holding time is drawn.  Snapshots: every sample time below the
    lowest frontier is taken, counting the resolved respawns timed at or
    before it (a blocked particle's block time lies above it, so all of
    those have resolved).  Movers: every unblocked particle within the
    horizon whose ring has room.  Draw and step: one u01 call draws each
    resolved particle's holding time (counter c), then each mover's jump
    and holding draws (c + 1 and c + 2 for a mover resolved this round);
    a resolved mover whose holding time ends past the horizon leaves the
    step, its pair never used nor drawn again.

    The blocked particle with the lowest key can always resolve, so the
    loop cannot deadlock; a round that resolves no respawn, takes no
    snapshot and moves no particle would repeat forever, and raises
    ComputationError.  Each particle records its events in a ring of
    _FV_WIDTH (time, state) entries; an absorption is recorded at its
    time, and its state written in when the respawn resolves.  An entry
    keyed at or below every frontier is read only as the last such
    entry, so the others may be overwritten; a particle whose oldest
    entry is still needed waits a round.
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
    n, width, last = n_particles, _FV_WIDTH, n_particles - 1
    ids = np.arange(n)
    keys = derive_key(seed, _KIND_PARTICLE, ids.astype(np.uint64))
    # draw 0 picks the start state, and draw 1 the first holding time
    # when the loop starts
    x = _initial_states(cum_init, u01(keys, 0))
    counter = np.full(n, 2, dtype=np.uint64)
    blocked = np.zeros(n, dtype=bool)
    source = np.zeros(n, dtype=np.int64)  # whom a blocked particle copies
    # a blocked particle at (a, i) resolves once its source's frontier
    # time reaches respawn[i]: a if k > i, the next double after a if k < i
    respawn = np.zeros(n)
    # ring of each particle's latest events: particle i owns the width
    # entries from base[i] = i * width on, the oldest at base[i] + tail[i];
    # read from there the times never decrease, and unwritten entries hold
    # the start state at -inf
    base = ids * width
    ring_t = np.full(n * width, -np.inf)
    ring_x = np.repeat(x.astype(np.int32), width)
    rows_t = ring_t.reshape(n, width)
    tail = np.zeros(n, dtype=np.int64)

    def record(i, t, y):
        at = tail[i]
        slot = base[i] + at
        ring_t[slot] = t
        ring_x[slot] = y
        tail[i] = (at + 1) % width

    def state_at(i, below):
        # particle i's state after its last event timed below `below`
        passed = (rows_t[i] < below[:, None]).sum(axis=1)
        return ring_x[base[i] + (tail[i] + passed - 1) % width]

    t_end = samples[-1]
    # resolved respawn times that no snapshot has counted yet, and the
    # count of those that one has
    respawned, redraws = [np.empty(0)], 0
    snapshots: list[ParticleEnsemble] = []
    with np.errstate(divide="ignore"):
        front = _exit_times(jumps, u01(keys, 1), x, 0.0)  # next event time, or block time
        for round_ in itertools.count():
            taken = len(snapshots)
            r = blocked.nonzero()[0]
            r = r[front[source[r]] >= respawn[r]]
            if r.size:
                # each reads its source's state below its respawn key, and
                # keeps its block time as its front until the draw below
                y = state_at(source[r], respawn[r])
                # the newest ring entry is the absorption; it takes y
                ring_x[base[r] + (tail[r] - 1) % width] = y
                x[r] = y
                blocked[r] = False
                respawned.append(front[r])
            # the lowest frontier key; no respawn or snapshot still to come
            # reads an event keyed below it
            low = int(front.argmin())
            t_low = front[low]
            while len(snapshots) < len(samples) and samples[len(snapshots)] < t_low:
                s = len(snapshots)
                # every respawn timed at or before samples[s] has resolved:
                # a blocked particle's front is its block time, >= t_low
                pending = np.concatenate(respawned)
                counted = pending <= samples[s]
                redraws += int(np.count_nonzero(counted))
                respawned = [pending[~counted]]
                at_or_before = np.nextafter([samples[s]], np.inf)
                snapshots.append(
                    ParticleEnsemble(
                        time=samples[s],
                        n_particles=n,
                        positions=state_at(ids, at_or_before).astype(np.int64),
                        redraw_count=redraws,
                    )
                )
            if len(snapshots) == len(samples):
                return snapshots
            # a particle may overwrite its oldest entry once the next one is
            # keyed at or below the lowest frontier (t_low, low)
            after = ring_t[base + (tail + 1) % width]
            free = after < t_low
            free[: low + 1] |= after[: low + 1] == t_low
            i = (free & ~blocked & (front <= t_end)).nonzero()[0]
            if not (r.size or len(snapshots) > taken or i.size):
                raise ComputationError(
                    f"Fleming-Viot round {round_} made no progress: it resolved no "
                    f"respawn, took no snapshot and moved no particle"
                )
            # one u01 call: each resolved particle's holding time (draw c),
            # then every mover's jump and holding draws, c + 1 and c + 2
            # for a mover resolved this round
            counter[r] += 1
            c = counter[i]
            u = u01(keys[np.concatenate((r, i, i))], np.concatenate((counter[r] - 1, c, c + 1)))
            front[r] = _exit_times(jumps, u[: r.size], x[r], front[r])
            u_jump, u_hold = u[r.size : r.size + i.size], u[r.size + i.size :]
            t = front[i]
            move = t <= t_end
            if not move.all():
                # resolved movers whose holding time ends past t_end; their
                # pairs go unused, and they never move again
                i, t, u_jump, u_hold = i[move], t[move], u_jump[move], u_hold[move]
            counter[i] += 2
            y, t_next = _step(jumps, u_jump, u_hold, x[i], t)
            # an absorption is recorded too; its state, like x, is read
            # only once the respawn has resolved and written it in
            record(i, t, y)
            x[i] = y
            front[i] = t_next
            gone = y <= 0
            if gone.any():
                # absorbed or killed: the holding draw, which no holding
                # time needs, picks the particle k to copy; block at (a, g)
                g, a = i[gone], t[gone]
                k = np.minimum((u_hold[gone] * last).astype(np.int64), last - 1)
                k += k >= g
                source[g] = k
                respawn[g] = np.where(k < g, np.nextafter(a, np.inf), a)
                blocked[g] = True
                front[g] = a


# -- text output ---------------------------------------------------------------


def batch_to_csv(batch: TrajectoryBatch, target) -> None:
    """One row per path; the time cell is empty for surviving paths."""

    survived = (batch.status == STATUS_SURVIVED).tolist()
    cells = zip(batch.end_states.tolist(), batch.times.tolist(), survived)
    lines = (f"{i},{y}," if s else f"{i},{y},{t:.17g}" for i, (y, t, s) in enumerate(cells))
    write_csv(target, ["path", "end_state", "absorption_time"], lines)


def ensembles_to_csv(snapshots: list[ParticleEnsemble], target) -> None:
    def lines():
        for snap in snapshots:
            counts = np.bincount(snap.positions)
            states = np.nonzero(counts)[0]
            t = f"{float(snap.time):.17g}"
            for state, count in zip(states.tolist(), counts[states].tolist()):
                yield f"{t},{state},{count}"

    write_csv(target, ["t", "state", "count"], lines())
