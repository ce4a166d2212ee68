import hashlib
import itertools
import math
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest
from conftest import SubStream, fleming_viot_oracle, jump_rows_oracle, simulate_batch_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from quasistat import (
    KILL,
    KILLED_STATE,
    REFLECT,
    STATUS_ABSORBED,
    STATUS_HIT_SET,
    STATUS_KILLED,
    STATUS_SURVIVED,
    BirthDeathSpec,
    ComputationError,
    DistributionOnStates,
    ValidationError,
    batch_to_csv,
    build_from_entries,
    build_logistic,
    check_qsd,
    compute_qsd,
    conditional_distribution,
    conditional_estimate,
    conditional_propagator,
    decay_table,
    ensembles_to_csv,
    fleming_viot,
    simulate_batch,
    tail_expected_hitting,
    transition_operator,
    tv_distance,
    yaglom_limit,
)
from quasistat import mc
from quasistat.cli import main
from quasistat.streams import _TINY, derive_key, mix64, u01


# -- keyed streams -------------------------------------------------------------


def test_stream_draws_are_pure_functions_of_key_and_counter():
    a = SubStream(42, 1, 7)
    b = SubStream(42, 1, 7)
    assert [a.next_u01() for _ in range(5)] == [b.next_u01() for _ in range(5)]
    # burn two draws on one stream: the third is the same either way
    c = SubStream(42, 1, 7)
    c.next_u01(), c.next_u01()
    third = c.next_u01()
    d = SubStream(42, 1, 7)
    d.next_u01(), d.next_u01()
    assert d.next_u01() == third


def test_stream_keys_separate_indices():
    xs = {derive_key(9, 1, i) for i in range(1000)}
    assert len(xs) == 1000
    assert derive_key(9, 1, 2) != derive_key(9, 2, 1)
    assert all(k % 2 == 1 for k in list(xs)[:10])


def _stream_draws(n, seed, *indices):
    """The first n draws of one stream, through the vectorised kernel."""
    keys = np.full(n, derive_key(seed, *indices), dtype=np.uint64)
    return u01(keys, np.arange(n, dtype=np.uint64))


def test_u01_range_and_mean():
    vals = _stream_draws(20000, 1, 3)
    assert np.all((0.0 < vals) & (vals < 1.0))
    # mean of U(0,1): 3-sigma band at n=20000 is about +-0.0061
    assert abs(vals.mean() - 0.5) < 0.0075


def test_exponential_moments():
    n = 20000
    # holding times at rate 2, as the samplers draw them
    vals = -mc._log(_stream_draws(n, 2, 4)) / 2.0
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - 0.5) < 3 * se


def test_choice_follows_weights():
    cum = np.array([0.2, 0.5, 1.0])
    n = 30000
    states = mc._initial_states(cum, _stream_draws(n, 3, 5))
    counts = np.bincount(states - 1, minlength=3)
    for got, p in zip(counts / n, [0.2, 0.3, 0.5]):
        assert abs(got - p) < 3 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("seed", [0, 7, -3, 2**64 - 1])
def test_vectorised_draws_match_substream(seed):
    ids = np.arange(300, dtype=np.uint64)
    keys = derive_key(seed, 1, ids)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [derive_key(seed, 1, i) for i in range(300)]
    counters = np.arange(300, dtype=np.uint64) * 1_000_003
    for c in (0, 5, counters):
        want = []
        for i in range(300):
            s = SubStream(seed, 1, i)
            s.counter = int(np.broadcast_to(c, (300,))[i])
            want.append(s.next_u01())
        assert u01(keys, c).tolist() == want


def test_u01_leaves_its_inputs_alone_and_broadcasts_the_counter():
    # u01 mixes in place, in buffers of its own
    keys = derive_key(5, 1, np.arange(257, dtype=np.uint64))
    counters = np.full(257, 9, dtype=np.uint64)
    keys_before, counters_before = keys.copy(), counters.copy()
    one = u01(keys, 9)
    each = u01(keys, counters)
    assert np.array_equal(keys, keys_before) and np.array_equal(counters, counters_before)
    assert one.dtype == np.float64 and one.tolist() == each.tolist()
    one[:] = 0.0
    assert np.array_equal(keys, keys_before)
    for c in (3, counters[:0]):
        none = u01(keys[:0], c)
        assert none.shape == (0,) and none.dtype == np.float64


def test_pair_draw_matches_two_single_draws():
    # simulate_batch draws each jump's choice and holding time in one u01
    # call on counters + _PAIR, a (2, m) array; uint64 casts differ across
    # numpy versions, so each row must equal its own single draw bit for bit
    keys = derive_key(13, 1, np.arange(300, dtype=np.uint64))
    counters = np.arange(300, dtype=np.uint64) * 1_000_003
    for k, c in ((keys, 6), (keys, counters), (keys[:0], 6), (keys[:0], counters[:0])):
        pair = u01(k, mc._PAIR + c)
        assert pair.shape == (2, k.size) and pair.dtype == np.float64
        assert pair[0].tolist() == u01(k, c).tolist()
        assert pair[1].tolist() == u01(k, c + 1).tolist()


def test_vectorised_log_matches_math_log_bit_for_bit():
    # The samplers' holding times must equal the scalar reference loops',
    # which take math.log.  np.log's last bit depends on the SIMD code
    # path: on an AVX-512 machine it differs on about 0.35 % of draws.
    keys = derive_key(31, 4, np.arange(1000, dtype=np.uint64))
    steps = np.arange(1000, dtype=np.uint64) * np.uint64(7919)
    draws = [u01(keys, steps + np.uint64(c)) for c in range(0, 1000 * 1_000_003, 1_000_003)]
    k = np.arange(1, 1 << 12, dtype=np.float64)
    edges = [k * 2.0**-53, 1.0 - k * 2.0**-53, np.array([_TINY, 0.5])]
    u = np.concatenate(draws + edges)
    assert u.size > 10**6
    want = np.fromiter(map(math.log, u.tolist()), np.float64, u.size)
    got = mc._log(u)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _unmix64(y: int) -> int:
    """Inverse of mix64 (each xor-shift and odd multiply is invertible)."""
    mask = (1 << 64) - 1

    def unshift(v, k):
        x = v
        for _ in range(64 // k + 1):
            x = v ^ (x >> k)
        return x

    y = unshift(y, 31)
    y = (y * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    y = unshift(y, 27)
    y = (y * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    return unshift(y, 30)


def test_zero_draw_becomes_tiny_in_both_kernels():
    # a key whose first draw mixes to a word below 2**11 has u = 0
    key = _unmix64(0x7FF)
    assert mix64(key) == 0x7FF
    s = SubStream(0)
    s.key = key
    tiny = s.next_u01()
    assert tiny == 5e-324
    assert u01(np.array([key], dtype=np.uint64), 0).tolist() == [tiny]


def test_mix64_is_deterministic_and_avalanching():
    assert mix64(0x1234) == mix64(0x1234)
    # flipping one input bit flips roughly half the output bits
    diff = mix64(0x1234) ^ mix64(0x1235)
    assert 10 < bin(diff).count("1") < 54


# -- jump tables -------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([REFLECT, KILL]))
def test_jump_tables_match_the_row_oracle(data, boundary):
    n = data.draw(st.integers(min_value=1, max_value=9), label="n")
    # in kill mode, target n + 1 lies above the window: truncation killing
    top = n + 1 if boundary == KILL else n
    # sparse entries, zero rates among them (a zero rate adds no jump)
    rate = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=50.0))
    entries = data.draw(
        st.lists(
            st.tuples(st.integers(1, n), st.integers(0, top), rate).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=30,
        ),
        label="entries",
    )
    # one dense row: every other state, absorption and (in kill mode)
    # killing, each at a positive rate
    dense = data.draw(st.integers(1, n), label="dense")
    others = [y for y in range(top + 1) if y != dense]
    rates = data.draw(
        st.lists(st.floats(min_value=1e-3, max_value=50.0),
                 min_size=len(others), max_size=len(others)),
        label="dense rates",
    )
    entries += list(zip([dense] * len(others), others, rates))
    chain = build_from_entries(entries, n + 1, boundary)
    jumps = mc._jump_tables(chain)
    targets, cum, totals = jump_rows_oracle(chain)
    lengths = [len(row) for row in cum]
    assert jumps.start.tolist() == [0, *itertools.accumulate(lengths)]
    assert jumps.targets.tolist() == [y for row in targets for y in row]
    assert jumps.cum.tolist() == [c for row in cum for c in row]
    assert jumps.totals.tolist() == totals
    # the lockstep bisection pins an index down in the longest row
    widest = max(lengths)
    assert 2**jumps.depth >= widest and (jumps.depth == 0 or 2 ** (jumps.depth - 1) < widest)


def test_jump_tables_match_the_row_oracle_on_a_wide_row():
    # 64 transient states in kill mode: row 17 jumps to absorption, every
    # other state and past the top (65 entries, so 65 ranks of adds),
    # state 40 is a trap with an empty row, and the others jump sparsely
    # at rates spread over six decades, so any other summing order shows
    n = 64
    rng = np.random.default_rng(20)
    entries = [(17, y, rng.uniform(1e-3, 50.0)) for y in range(n + 2) if y != 17]
    for x in range(1, n + 1):
        if x not in (17, 40):
            targets = rng.choice([y for y in range(n + 2) if y != x], size=4, replace=False)
            entries += [(x, int(y), 10.0 ** rng.uniform(-3, 3)) for y in targets]
    chain = build_from_entries(entries, n + 1, KILL)
    jumps = mc._jump_tables(chain)
    targets, cum, totals = jump_rows_oracle(chain)
    assert len(cum[17]) == n + 1 and cum[40] == [] and totals[40] == 0.0
    assert jumps.start.tolist() == [0, *itertools.accumulate(len(row) for row in cum)]
    assert jumps.targets.tolist() == [y for row in targets for y in row]
    assert jumps.cum.tolist() == [c for row in cum for c in row]
    assert jumps.totals.tolist() == totals
    assert jumps.depth == 7


@pytest.mark.parametrize("widest", [1, 2, 3, 4, 5, 8, 9])
def test_step_on_jump_tables_picks_the_first_entry_at_or_above_v(widest):
    # States 1..7 hold rows of 1, 2, 3, 4, 5, 8 and 9 entries, those up
    # to the widest (bisection depth 0 to 4), the others one entry each;
    # state 8, the window's last, is a trap with an empty row, on which
    # _step is never called.  Rates in sixteenths on rows that sum to
    # powers of two keep every cumulative entry and every product
    # u * q(x) exact, so u puts v exactly on each entry and one ulp to
    # either side of it.
    n = 8
    rng = np.random.default_rng(widest)
    widths = [w for w in (1, 2, 3, 4, 5, 8, 9) if w <= widest]
    entries = []
    for x in range(1, n):
        w = widths[x - 1] if x <= len(widths) else 1
        # absorption, the other states and killing (n + 1): 9 targets
        targets = rng.choice([y for y in range(n + 2) if y != x], size=w, replace=False)
        rates = rng.integers(1, 64, size=w) / 16
        rates[rng.integers(w)] += 2.0 ** math.ceil(math.log2(rates.sum())) - rates.sum()
        entries += [(x, int(y), float(r)) for y, r in zip(targets, rates)]
    chain = build_from_entries(entries, n + 1, KILL)
    jumps = mc._jump_tables(chain)
    targets, cum, totals = jump_rows_oracle(chain)
    assert jumps.depth == (widest - 1).bit_length()
    assert [len(row) for row in cum[1:n]] == widths + [1] * (n - 1 - len(widths))
    assert cum[n] == [] and totals[n] == 0.0
    xs, us, want = [], [], []
    for x in range(1, n):
        row, q = cum[x], totals[x]
        assert q == 2.0 ** math.frexp(q)[1] / 2
        # a draw is below 1, so v = u * q stays below q
        vs = [w for c in row for w in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf))]
        u = [w / q for w in vs if w < q] + [_TINY, 1 - 2**-53]
        assert [ui * q for ui in u[:-2]] == [w for w in vs if w < q]
        for ui in u:
            # the oracle: the first entry >= u * q(x), the row's last if none
            j = bisect_left(row, ui * q)
            want.append(targets[x][min(j, len(row) - 1)])
        xs += [x] * len(u)
        us += u
    hold = np.full(len(us), 0.5)
    # as in the samplers: absorption's holding time divides by q(0) = 0
    with np.errstate(divide="ignore"):
        y, t_next = mc._step(jumps, np.array(us), hold, np.array(xs), np.ones(len(us)))
    assert y.tolist() == want
    # the holding time in the target; the trap holds forever
    inner = y > 0
    hold_times = [1.0 - math.log(0.5) / totals[v] if v < n else math.inf for v in y[inner]]
    assert t_next[inner].tolist() == hold_times


def test_sampling_leaves_nothing_on_the_window():
    # each sampler call builds its own jump table from the CSR arrays
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    simulate_batch(chain, DistributionOnStates.delta(1, 16), 1.0, 50, seed=3)
    fleming_viot(chain, 8, 1.0, seed=3)
    assert vars(chain).keys() == vars(build_logistic(1.0, 1.0, 1.0, 16)).keys()


# -- path batches ----------------------------------------------------------------


def test_single_state_absorption_is_exponential():
    chain = build_from_entries([(1, 0, 1.0)], 2)
    mu = DistributionOnStates.delta(1, 2)
    batch = simulate_batch(chain, mu, horizon=1.0, n_paths=20000, seed=101)
    # survival at t=1 should track exp(-1)
    p = math.exp(-1.0)
    se = math.sqrt(p * (1 - p) / batch.n_paths)
    assert abs(batch.survival_fraction() - p) < 3 * se
    times = batch.absorption_times()
    # conditional mean of Exp(1) given < 1
    want = (1 - 2 * math.exp(-1)) / (1 - math.exp(-1))
    assert abs(times.mean() - want) < 3 * times.std(ddof=1) / math.sqrt(times.size)


def test_batch_is_bit_reproducible_and_prefix_stable():
    chain = build_logistic(1.0, 1.0, 1.0, 32)
    mu = DistributionOnStates.delta(3, 32)
    a = simulate_batch(chain, mu, horizon=2.0, n_paths=2000, seed=55)
    b = simulate_batch(chain, mu, horizon=2.0, n_paths=2000, seed=55)
    assert np.array_equal(a.end_states, b.end_states)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.status, b.status)
    wider = simulate_batch(chain, mu, horizon=2.0, n_paths=2600, seed=55)
    assert np.array_equal(a.end_states, wider.end_states[:2000])
    assert np.array_equal(a.times, wider.times[:2000])
    other = simulate_batch(chain, mu, horizon=2.0, n_paths=2000, seed=56)
    assert not np.array_equal(a.end_states, other.end_states)


def test_status_partition_and_kill_mode():
    chain = build_logistic(1.0, 1.0, 1.0, 8, "kill")
    mu = DistributionOnStates.delta(7, 8)
    batch = simulate_batch(chain, mu, horizon=3.0, n_paths=4000, seed=9)
    counts = np.bincount(batch.status, minlength=4)
    assert counts.sum() == 4000
    assert counts[STATUS_KILLED] > 0  # the top kill rate is active
    assert np.all(batch.end_states[batch.status == STATUS_KILLED] == KILLED_STATE)
    assert np.all(batch.end_states[batch.status == STATUS_ABSORBED] == 0)
    surv = batch.end_states[batch.status == STATUS_SURVIVED]
    assert np.all((1 <= surv) & (surv <= 7))


def test_trap_state_survives_finite_horizon_only():
    chain = build_from_entries([(1, 2, 1.0), (1, 0, 1.0)], 3)  # state 2 has no exit
    mu = DistributionOnStates.delta(1, 3)
    batch = simulate_batch(chain, mu, horizon=50.0, n_paths=500, seed=3)
    trapped = batch.end_states[batch.survivor_mask()]
    assert trapped.size > 0 and np.all(trapped == 2)
    with pytest.raises(ComputationError, match="trap"):
        simulate_batch(chain, mu, horizon=math.inf, n_paths=500, seed=3)


def test_infinite_horizon_closed_class_is_rejected_before_any_draw():
    # {2, 3} is a closed class with positive exit rates: a path that enters
    # it jumps forever, so an infinite horizon would never end
    chain = build_from_entries([(1, 0, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 2, 1.0)], 4)
    mu = DistributionOnStates.delta(1, 4)
    with pytest.raises(ValidationError, match="state 2 is reachable"):
        simulate_batch(chain, mu, horizon=math.inf, n_paths=100, seed=1)
    # a stop state inside the class, a finite horizon, or a start that
    # cannot reach the class each make every path end
    batch = simulate_batch(chain, mu, horizon=math.inf, n_paths=100, seed=1, stop_on_set=[3])
    assert set(batch.status.tolist()) <= {STATUS_ABSORBED, STATUS_HIT_SET}
    simulate_batch(chain, mu, horizon=5.0, n_paths=100, seed=1)
    wide = build_from_entries([(1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)], 4)
    batch = simulate_batch(wide, DistributionOnStates.delta(1, 4), horizon=math.inf, n_paths=50, seed=1)
    assert np.all(batch.status == STATUS_ABSORBED)


def test_cli_rejects_never_ending_infinite_horizon(tmp_chain_file, tmp_path, capsys):
    path = tmp_chain_file("states 4\nrate 1 0 1\nrate 1 2 1\nrate 2 3 1\nrate 3 2 1\n")
    argv = ["simulate", "--chain", path, "--mu", "1", "--horizon", "inf",
            "--n-paths", "100", "--seed", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "never end" in capsys.readouterr().err


def test_stop_set_hits():
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    spec = BirthDeathSpec.logistic(1.0, 1.0, 1.0)
    mu = DistributionOnStates.delta(5, 64)
    batch = simulate_batch(chain, mu, horizon=math.inf, n_paths=20000, seed=11, stop_on_set=[1])
    # skip-free downward: every path must touch 1 before absorbing
    assert np.all(batch.status == STATUS_HIT_SET)
    ht = batch.hit_times()
    want = tail_expected_hitting(spec, 1, 5)
    se = ht.std(ddof=1) / math.sqrt(ht.size)
    assert abs(ht.mean() - want) < 3 * se


def test_stop_set_immediate_hit():
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    mu = DistributionOnStates.delta(4, 16)
    batch = simulate_batch(chain, mu, horizon=5.0, n_paths=100, seed=2, stop_on_set=[4, 9])
    assert np.all(batch.status == STATUS_HIT_SET)
    assert np.all(batch.times == 0.0)
    assert np.all(batch.end_states == 4)


def test_simulate_validates_arguments():
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    mu = DistributionOnStates.delta(4, 16)
    with pytest.raises(ValidationError):
        simulate_batch(chain, mu, horizon=0.0, n_paths=10, seed=1)
    with pytest.raises(ValidationError):
        simulate_batch(chain, mu, horizon=1.0, n_paths=0, seed=1)
    with pytest.raises(ValidationError):
        simulate_batch(chain, mu, horizon=1.0, n_paths=10, seed=1, stop_on_set=[99])
    with pytest.raises(ValidationError):
        simulate_batch(chain, DistributionOnStates.delta(1, 8), horizon=1.0, n_paths=10, seed=1)


# every function that takes a law as raw weights, on a 16-state window;
# Monte Carlo names it the initial law
_delta = DistributionOnStates.delta(1, 16)
_LAW_USERS = {
    "simulate": lambda chain, w: simulate_batch(chain, w, horizon=1.0, n_paths=10, seed=1),
    "fv": lambda chain, w: fleming_viot(chain, n_particles=10, horizon=1.0, seed=1, mu=w),
    "transition_operator": lambda chain, w: transition_operator(chain, w, 1.0),
    "conditional_distribution": lambda chain, w: conditional_distribution(chain, w, 1.0),
    "conditional_propagator": lambda chain, w: conditional_propagator(chain, w, 0.0, 1.0, 2.0),
    "check_qsd": lambda chain, w: check_qsd(chain, w, [1.0], tol=1e-6),
    "yaglom_limit": lambda chain, w: yaglom_limit(chain, w),
    "decay_table-mu": lambda chain, w: decay_table(chain, w, _delta, [1.0], rho=_delta),
    "decay_table-nu": lambda chain, w: decay_table(chain, _delta, w, [1.0], rho=_delta),
    "decay_table-rho": lambda chain, w: decay_table(chain, _delta, _delta, [1.0], rho=w),
}


@pytest.mark.parametrize("run", _LAW_USERS)
@pytest.mark.parametrize(
    "weights",
    [np.ones(5), np.zeros(15), -np.ones(15), np.full(15, np.nan), np.full(15, np.inf),
     np.r_[2.0, np.zeros(13), -1.0]],
    ids=["wrong-length", "all-zero", "negative", "nan", "inf", "one-negative"],
)
def test_raw_initial_law_is_validated(run, weights):
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    with pytest.raises(ValidationError, match="initial law" if run in ("simulate", "fv") else "law"):
        _LAW_USERS[run](chain, weights)



def test_raw_initial_law_need_not_be_normalised():
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    raw = np.zeros(15)
    raw[2] = 3.0
    batch = simulate_batch(chain, raw, horizon=1.0, n_paths=200, seed=4, stop_on_set=[3])
    assert np.all(batch.status == STATUS_HIT_SET) and np.all(batch.end_states == 3)


def _assert_same_batch(got, want):
    assert np.array_equal(got.end_states, want.end_states)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.status, want.status)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([REFLECT, KILL]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.5, 3.0, math.inf]),
)
def test_lockstep_batch_matches_per_path_oracle(seed, boundary, use_stop, use_trap, horizon):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    trap = n if use_trap else None  # a state with no exit
    entries = [(1, 0, 0.5)]
    for x in range(1, n + 1):
        if x == trap:
            continue
        # in kill mode, target n + 1 lies above the window: truncation killing
        for y in range(0, n + 2 if boundary == KILL else n + 1):
            if y != x and rng.random() < 0.5:
                entries.append((x, y, float(rng.uniform(0.05, 2.0))))
        if horizon == math.inf:
            entries.append((x, 0, 0.1))  # every path ends unless trapped
    chain = build_from_entries(entries, n + 1, boundary)
    weights = rng.uniform(0.0, 1.0, size=n)
    stop = None
    if use_stop:
        size = int(rng.integers(1, n + 1))
        stop = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=size, replace=False))
    args = (chain, weights, horizon, 300, seed)
    try:
        want = simulate_batch_oracle(*args, stop_on_set=stop)
    except ComputationError as exc:
        with pytest.raises(ComputationError) as got:
            simulate_batch(*args, stop_on_set=stop)
        assert str(got.value) == str(exc)
        return
    _assert_same_batch(simulate_batch(*args, stop_on_set=stop), want)


def test_lockstep_batch_matches_oracle_on_acceptance_window():
    chain = build_logistic(2.0, 1.0, 0.25, 64)
    mu = DistributionOnStates.delta(5, 64)
    got = simulate_batch(chain, mu, horizon=10.0, n_paths=3000, seed=20260815)
    _assert_same_batch(got, simulate_batch_oracle(chain, mu, 10.0, 3000, 20260815))


def test_infinite_horizon_trap_names_the_oracle_path():
    # state 3 traps; paths wander 1 <-> 2 first, so the lowest trapped
    # path is not the first one to be trapped in lockstep time
    chain = build_from_entries([(1, 2, 1.0), (2, 1, 2.0), (2, 3, 0.3), (1, 0, 1.0)], 4)
    mu = DistributionOnStates.delta(1, 4)
    with pytest.raises(ComputationError) as want:
        simulate_batch_oracle(chain, mu, math.inf, 500, 3)
    with pytest.raises(ComputationError, match="trap state 3") as got:
        simulate_batch(chain, mu, horizon=math.inf, n_paths=500, seed=3)
    assert str(got.value) == str(want.value)


def test_conditional_estimate_tracks_exact_law():
    chain = build_logistic(1.0, 1.0, 1.0, 32)
    mu = DistributionOnStates.delta(2, 32)
    t = 3.0
    batch = simulate_batch(chain, mu, horizon=t, n_paths=20000, seed=77)
    est, frac = conditional_estimate(batch)
    exact = conditional_distribution(chain, mu, t)
    assert 0.05 < frac < 0.5
    assert tv_distance(est, exact) < 0.12


def test_conditional_estimate_needs_survivors():
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    mu = DistributionOnStates.delta(1, 16)
    batch = simulate_batch(chain, mu, horizon=500.0, n_paths=50, seed=13)
    assert batch.survival_fraction() == 0.0
    with pytest.raises(ComputationError, match="no path survived"):
        conditional_estimate(batch)


# -- interacting particles ---------------------------------------------------------


def test_fleming_viot_snapshots_and_determinism():
    chain = build_logistic(1.0, 1.0, 1.0, 32)
    snaps = fleming_viot(chain, n_particles=200, horizon=5.0, seed=21,
                         sample_times=[1.0, 3.0, 5.0])
    assert [s.time for s in snaps] == [1.0, 3.0, 5.0]
    assert all(s.positions.shape == (200,) for s in snaps)
    assert all(np.all((1 <= s.positions) & (s.positions <= 31)) for s in snaps)
    redraws = [s.redraw_count for s in snaps]
    assert redraws == sorted(redraws)
    again = fleming_viot(chain, n_particles=200, horizon=5.0, seed=21,
                         sample_times=[1.0, 3.0, 5.0])
    for a, b in zip(snaps, again):
        assert np.array_equal(a.positions, b.positions)
        assert a.redraw_count == b.redraw_count


def test_fleming_viot_empirical_law_sums_to_one():
    chain = build_logistic(1.0, 1.0, 1.0, 32)
    snap = fleming_viot(chain, n_particles=500, horizon=4.0, seed=5)[-1]
    law = snap.empirical_distribution(chain.n_states)
    assert law.weights.sum() == pytest.approx(1.0)
    assert law.n_states == 32


def test_fleming_viot_accepts_initial_law():
    chain = build_logistic(1.0, 1.0, 1.0, 32)
    mu = DistributionOnStates.delta(9, 32)
    snap = fleming_viot(chain, n_particles=300, horizon=0.0001, seed=1, mu=mu)[-1]
    # essentially no time has passed: nearly everyone still sits at 9
    assert np.count_nonzero(snap.positions == 9) > 290


def test_fleming_viot_validates_arguments():
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    with pytest.raises(ValidationError):
        fleming_viot(chain, n_particles=1, horizon=1.0, seed=1)
    with pytest.raises(ValidationError):
        fleming_viot(chain, n_particles=10, horizon=math.inf, seed=1)
    with pytest.raises(ValidationError):
        fleming_viot(chain, n_particles=10, horizon=1.0, seed=1, sample_times=[2.0])
    with pytest.raises(ValidationError):
        fleming_viot(chain, n_particles=10, horizon=1.0, seed=1,
                     mu=DistributionOnStates.delta(1, 8))


@pytest.mark.parametrize(
    "times", [[math.nan], [1.0, math.nan, 2.0], [math.inf], [-math.inf, 1.0], []]
)
def test_fleming_viot_rejects_non_finite_sample_times(times):
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    with pytest.raises(ValidationError, match="sample times"):
        fleming_viot(chain, n_particles=10, horizon=5.0, seed=1, sample_times=times)


def _assert_same_snapshots(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.time == w.time
        assert np.array_equal(g.positions, w.positions)
        assert g.redraw_count == w.redraw_count


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([REFLECT, KILL]),
    st.booleans(),
    st.sampled_from([2, 3, 17, 200]),
    st.sampled_from([2.0, 25.0]),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
)
def test_fleming_viot_matches_inline_draw_oracle(
    seed, boundary, use_trap, n_particles, horizon, fractions
):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    trap = int(rng.integers(2, n + 1)) if use_trap else None  # a state with no exit
    entries = [(1, 0, float(rng.uniform(0.05, 2.0)))]
    for x in range(1, n + 1):
        if x == trap:
            continue
        # in kill mode, target n + 1 lies above the window: truncation killing
        for y in range(0, n + 2 if boundary == KILL else n + 1):
            if y != x and rng.random() < 0.5:
                # slow entry into the trap: once a few particles sit there,
                # respawns land on it, yet the ensemble does not collapse
                scale = 0.01 if y == trap else 1.0
                entries.append((x, y, scale * float(rng.uniform(0.05, 2.0))))
    chain = build_from_entries(entries, n + 1, boundary)
    weights = rng.uniform(0.0, 1.0, size=n) * (rng.random(n) < 0.8)
    weights[0] += 0.1
    if trap is not None:
        weights[trap - 1] = 0.0
    times = [f * horizon for f in fractions] or None
    args = (chain, n_particles, horizon, seed, times, weights)
    _assert_same_snapshots(fleming_viot(*args), fleming_viot_oracle(*args))


def test_fleming_viot_respawns_through_one_particle_pair_match_oracle():
    # State 2 leaves for state 1 at once; state 1 is only absorbed.  With
    # two particles both start on 2 (draws 0 and 1) and jump to 1 (draws
    # 2 and 3); from then on every event is an absorption that respawns
    # the particle onto the other one, at state 1.  Each respawn reads
    # the only other particle's path, so the pair alternates between
    # blocking and copying through 58 respawns.
    chain = build_from_entries([(2, 1, 1e6), (1, 0, 1.0)], 3)
    mu = DistributionOnStates.delta(2, 3)
    args = (chain, 2, 30.0, 4, [1e-3, 30.0], mu)
    got = fleming_viot(*args)
    _assert_same_snapshots(got, fleming_viot_oracle(*args))
    # both particles made their 2-draw jump before any respawn; then
    # 58 respawns (rate 1 each over 30 time units) run through the edge
    assert got[0].redraw_count == 0 and np.all(got[0].positions == 1)
    assert got[1].redraw_count == 58


@pytest.mark.parametrize(
    "args",
    [
        (build_from_entries([(2, 1, 1e6), (1, 0, 1.0)], 3), 2, 30.0, 4, [1e-3, 30.0],
         DistributionOnStates.delta(2, 3)),
        (build_logistic(1.0, 1.0, 1.0, 16, KILL), 50, 10.0, 11, [0.0, 2.5, 10.0], None),
        # the fv-kill-window golden: 2708 dense late respawns, so many
        # resolved particles draw a pair for a jump past the horizon
        (build_logistic(1.0, 1.0, 1.0, 16, KILL), 200, 20.0, 5, [0.0, 5.0, 10.0, 15.0, 20.0],
         None),
    ],
    ids=["one-particle-pair", "logistic-16-kill", "fv-kill-window"],
)
def test_fleming_viot_makes_each_draw_once(args, monkeypatch):
    # an absorbed particle picks the particle to copy with its jump's
    # holding draw, which it never holds, and a resolved particle whose
    # holding time ends past the horizon never moves again, so no draw
    # of any stream is made twice
    drawn = []

    def recording(keys, counters):
        k, c = np.broadcast_arrays(np.asarray(keys, np.uint64), np.asarray(counters, np.uint64))
        drawn.extend(zip(k.ravel().tolist(), c.ravel().tolist()))
        return u01(keys, counters)

    monkeypatch.setattr(mc, "u01", recording)
    got = fleming_viot(*args)
    _assert_same_snapshots(got, fleming_viot_oracle(*args))
    assert got[-1].redraw_count > 0
    assert len(set(drawn)) == len(drawn)


def test_fleming_viot_matches_oracle_on_a_large_ensemble():
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    args = (chain, 1500, 20.0, 7, [0.0, 5.0, 12.5, 20.0], None)
    _assert_same_snapshots(fleming_viot(*args), fleming_viot_oracle(*args))


@pytest.mark.parametrize("width", [2, 3, 4])
def test_fleming_viot_matches_oracle_with_narrow_history(width, monkeypatch):
    # a narrow ring fills in nearly every round, so particles wait on the
    # lowest frontier and respawns read entries just before overwriting
    monkeypatch.setattr(mc, "_FV_WIDTH", width)
    chain = build_logistic(1.0, 1.0, 1.0, 16, KILL)
    args = (chain, 50, 10.0, 11, [0.0, 2.5, 10.0], None)
    _assert_same_snapshots(fleming_viot(*args), fleming_viot_oracle(*args))


@pytest.mark.parametrize("width", [2, mc._FV_WIDTH])
def test_fleming_viot_same_time_events_match_oracle(width, monkeypatch):
    # State 2 leaves at rate 1e300: t - log(u)/q rounds back to t, so a
    # particle makes several events at one float time; in a width-2 ring
    # the lowest particle must overwrite entries keyed at its own frontier
    monkeypatch.setattr(mc, "_FV_WIDTH", width)
    chain = build_from_entries(
        [(2, 3, 5e299), (2, 1, 5e299), (3, 2, 1.0), (3, 0, 0.5), (1, 0, 1.0), (1, 2, 1.0)], 4
    )
    args = (chain, 40, 20.0, 3, [0.0, 5.0, 20.0], None)
    got = fleming_viot(*args)
    _assert_same_snapshots(got, fleming_viot_oracle(*args))
    assert got[-1].redraw_count > 0


@pytest.mark.parametrize("width", [2, mc._FV_WIDTH])
def test_fleming_viot_ties_across_particles_match_oracle(width, monkeypatch):
    # Holding times rounded up to half units, over exit rates 2 and 4, put
    # every event on a grid of 1/8: events of different particles share
    # float times, so respawns, snapshots and the overwrite rule see ties
    # broken by particle index.  The oracle takes its logs from math.log,
    # the library from its vectorised hook; both get the same rounding.
    log, hook = math.log, mc._log
    monkeypatch.setattr(math, "log", lambda u: -math.ceil(-log(u) * 2) / 2)
    monkeypatch.setattr(mc, "_log", lambda u: -np.ceil(-hook(u) * 2) / 2)
    monkeypatch.setattr(mc, "_FV_WIDTH", width)
    chain = build_from_entries(
        [(1, 0, 1.0), (1, 2, 1.0), (2, 1, 2.0), (2, 3, 2.0), (3, 2, 1.0), (3, 0, 1.0)], 4
    )
    args = (chain, 30, 12.0, 5, [0.0, 3.0, 12.0], None)
    got = fleming_viot(*args)
    _assert_same_snapshots(got, fleming_viot_oracle(*args))
    assert got[-1].redraw_count > 100


def test_fleming_viot_round_without_progress_raises(monkeypatch):
    # A NaN event time compares false with every key: the particle that
    # holds it never moves again, the lowest frontier becomes NaN, so no
    # ring entry may be overwritten, no respawn copying that particle
    # resolves and no snapshot is taken.  The loop would spin; it raises.
    step = mc._step

    def nan_past_two(jumps, u_jump, u_hold, x, t):
        y, t_next = step(jumps, u_jump, u_hold, x, t)
        return y, np.where(t_next > 2.0, np.nan, t_next)

    monkeypatch.setattr(mc, "_step", nan_past_two)
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    with pytest.raises(ComputationError, match=r"Fleming-Viot round \d+ made no progress"):
        fleming_viot(chain, 20, 10.0, 3)


def test_fleming_viot_peak_memory_stays_small():
    # a 32-event history ring per particle peaks near 1.1 MiB for 1500
    # particles; a ring wide enough for every event (about 240 here)
    # peaks near 8 MiB
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    tracemalloc.start()
    try:
        fleming_viot(chain, 1500, 20.0, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_fleming_viot_error_shrinks_with_ensemble_size():
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    rho = compute_qsd(chain, tol=1e-12).qsd

    def avg_tv(n):
        tvs = []
        for seed in (1, 2, 3):
            snap = fleming_viot(chain, n_particles=n, horizon=10.0, seed=seed)[-1]
            tvs.append(tv_distance(snap.empirical_distribution(64), rho))
        return float(np.mean(tvs))

    small = avg_tv(250)
    big = avg_tv(4000)
    # a 16x ensemble should cut the error around 4x; demand at least 40%
    assert big < 0.6 * small


# -- text output ---------------------------------------------------------------------


def test_batch_csv(tmp_path):
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    mu = DistributionOnStates.delta(3, 16)
    batch = simulate_batch(chain, mu, horizon=2.0, n_paths=50, seed=19)
    p = tmp_path / "batch.csv"
    batch_to_csv(batch, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "path,end_state,absorption_time"
    assert len(lines) == 51
    for i, line in enumerate(lines[1:]):
        path, end, t = line.split(",")
        assert int(path) == i
        if batch.status[i] == STATUS_SURVIVED:
            assert t == ""
        else:
            assert float(t) <= 2.0


def test_ensembles_csv(tmp_path):
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    snaps = fleming_viot(chain, n_particles=120, horizon=2.0, seed=4, sample_times=[1.0, 2.0])
    p = tmp_path / "fv.csv"
    ensembles_to_csv(snaps, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "t,state,count"
    by_time: dict = {}
    for line in lines[1:]:
        t, state, count = line.split(",")
        by_time.setdefault(float(t), 0)
        by_time[float(t)] += int(count)
        assert 1 <= int(state) <= 15
    assert by_time == {1.0: 120, 2.0: 120}


# -- golden bytes ----------------------------------------------------------------------
#
# sha256 of the artifacts the CLI writes, recorded with the scalar
# per-path loop; any change to draws, jump choice or time arithmetic
# moves them.

TRAP_CHAIN = """\
states 5
rate 1 2 1.0
rate 1 0 0.5
rate 2 3 0.7
rate 2 1 0.3
rate 3 4 0.2
"""

GOLDEN_ARTIFACTS = {
    "reflect-logistic-2-1-0.25-64": (
        ["simulate", "--logistic", "2", "1", "0.25", "--states", "64", "--mu", "5",
         "--horizon", "10", "--n-paths", "400", "--seed", "20261018"],
        "35b9f4b8bf5a6cc016f09a325ec261467b4cdfedabebc9971941a7c11e9fb2dc",
        401,
    ),
    "kill-logistic-1-1-1-8": (
        ["simulate", "--logistic", "1", "1", "1", "--states", "8", "--boundary", "kill",
         "--mu", "7", "--horizon", "3", "--n-paths", "400", "--seed", "9"],
        "b7a97d473f87726a42a002209203f032c466ee50e85ce25298156d9a495e5bd4",
        401,
    ),
    "stop-set-infinite-horizon": (
        ["simulate", "--logistic", "1", "1", "1", "--states", "64", "--mu", "uniform",
         "--stop-set", "1..3", "--horizon", "inf", "--n-paths", "400", "--seed", "11"],
        "ee4d4beb3d934106bf256b6b27bcff7e6fbc9f66dc2eb35bed95b54c169e6954",
        401,
    ),
    "trap-state-finite-horizon": (
        ["simulate", "--chain", "trap.chain", "--mu", "1", "--horizon", "5",
         "--n-paths", "400", "--seed", "3"],
        "55816277fc84a6d102af52209f1a5cdcc7f85d4c5063f2cf696c5fdc71344377",
        401,
    ),
    "fv-sample-times": (
        ["fv", "--logistic", "1", "1", "1", "--states", "32", "--horizon", "5",
         "--n-particles", "300", "--seed", "21", "--sample-times", "0:5:1.25"],
        "b01f3ab244ee637dafd774812c4bf7bf38f73975df48ff48e67322852811c444",
        50,
    ),
    # kill respawns land on many particles, each running through many
    # draws: 2708 redraws by t = 20
    "fv-kill-window": (
        ["fv", "--logistic", "1", "1", "1", "--states", "16", "--boundary", "kill",
         "--horizon", "20", "--n-particles", "200", "--seed", "5", "--sample-times", "0:20:5"],
        "01560141877fbac82ad565abb57783eed339f20e07604c2192d98a01abbb2f93",
        32,
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ARTIFACTS))
def test_mc_artifacts_are_golden(case, tmp_path, monkeypatch, capsys):
    argv, digest, n_lines = GOLDEN_ARTIFACTS[case]
    (tmp_path / "trap.chain").write_text(TRAP_CHAIN, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == 0
    capsys.readouterr()
    name = "fv.csv" if argv[0] == "fv" else "batch.csv"
    data = (tmp_path / "out" / name).read_bytes()
    assert len(data.splitlines()) == n_lines
    assert hashlib.sha256(data).hexdigest() == digest
