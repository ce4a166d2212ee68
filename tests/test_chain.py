import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasistat import (
    KILL,
    REFLECT,
    BirthDeathSpec,
    DistributionOnStates,
    ValidationError,
    build_from_entries,
    build_logistic,
    load_chain_file,
    parse_chain_text,
    truncate,
)
from quasistat.chain import AbsorbedChain

from conftest import catastrophe_chain, chain_oracle, entry_checks_oracle


# -- parametric rates ------------------------------------------------------


def test_logistic_rates():
    spec = BirthDeathSpec.logistic(2.0, 1.0, 0.5)
    assert spec.rates_at(1) == (2.0, 1.0)
    assert spec.rates_at(4) == (8.0, 4.0 + 0.5 * 12)
    assert spec.params == (2.0, 1.0, 0.5)


def test_logistic_rejects_degenerate():
    with pytest.raises(ValidationError):
        BirthDeathSpec.logistic(1.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        BirthDeathSpec.logistic(-1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        BirthDeathSpec.logistic(math.inf, 1.0, 0.0)


def test_rates_at_rejects_bad_state():
    spec = BirthDeathSpec.logistic(1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        spec.rates_at(0)


def test_custom_spec_negative_rate_rejected():
    spec = BirthDeathSpec(birth_rate=lambda x: -x, death_rate=lambda x: x)
    with pytest.raises(ValidationError):
        spec.rates_at(3)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=1e-4, max_value=10.0),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=300),
)
def test_rates_on_gives_the_floats_of_rates_at(b, d, c, lo, span):
    spec = BirthDeathSpec.logistic(b, d, c)
    up, down = spec.rates_on(lo, lo + span)
    want = [spec.rates_at(x) for x in range(lo, lo + span + 1)]
    assert list(zip(up.tolist(), down.tolist())) == want


def test_rates_on_broadcasts_constant_callables():
    spec = BirthDeathSpec(birth_rate=lambda x: 1.0, death_rate=lambda x: 2.0)
    up, down = spec.rates_on(3, 7)
    assert up.tolist() == [1.0] * 5 and down.tolist() == [2.0] * 5


def test_rates_on_names_the_lowest_bad_level_like_rates_at():
    # birth goes negative from 5 up, death turns infinite from 4 up
    spec = BirthDeathSpec(
        birth_rate=lambda x: 5.0 - x, death_rate=lambda x: np.where(x >= 4, math.inf, 1.0)
    )
    with pytest.raises(ValidationError) as want:
        for x in range(2, 9):
            spec.rates_at(x)
    with pytest.raises(ValidationError) as got:
        spec.rates_on(2, 8)
    assert str(got.value) == str(want.value) == "death rate at x=4 must be finite and >= 0, got inf"
    with pytest.raises(ValidationError, match="x >= 1, got 0"):
        spec.rates_on(0, 3)


# -- window truncation -----------------------------------------------------


def test_truncate_reflect_drops_top_birth():
    chain = build_logistic(1.0, 1.0, 1.0, 6, REFLECT)
    n = chain.n_transient
    assert chain.rate(n, n - 1) > 0
    assert chain.kill_rates[n - 1] == 0.0
    # top exit rate only contains the death rate
    assert chain.exit_rate(n) == pytest.approx(n + n * (n - 1))


def test_truncate_kill_keeps_top_birth_as_killing():
    chain = build_logistic(1.0, 1.0, 1.0, 6, KILL)
    n = chain.n_transient
    assert chain.kill_rates[n - 1] == pytest.approx(1.0 * n)
    assert chain.exit_rate(n) == pytest.approx(n + n * (n - 1) + n)


def test_truncate_absorption_only_from_state_one():
    chain = build_logistic(1.0, 1.0, 1.0, 8)
    # death at x=1 is d*1 + c*1*0 = d; deaths from x >= 2 stay in the window
    assert chain.absorption_rates[0] == pytest.approx(1.0)
    assert np.all(chain.absorption_rates[1:] == 0.0)


def test_row_sums_vanish():
    chain = build_logistic(1.5, 0.7, 0.3, 12, KILL)
    chain.validate_conservation()
    rows = np.asarray(chain.sub_generator.sum(axis=1)).ravel()
    total = rows + chain.absorption_rates + chain.kill_rates
    assert np.max(np.abs(total)) < 1e-12


def test_as_reflecting_strips_kill():
    chain = build_logistic(1.0, 1.0, 1.0, 6, KILL)
    refl = chain.as_reflecting()
    assert refl.boundary_mode == REFLECT
    assert not np.any(refl.kill_rates)
    n = chain.n_transient
    assert refl.exit_rate(n) == pytest.approx(chain.exit_rate(n) - chain.kill_rates[n - 1])
    # already-reflecting chains are returned as-is
    assert refl.as_reflecting() is refl


def test_regrow_preserves_interior_rates():
    small = build_logistic(1.0, 1.0, 1.0, 6)
    big = small.regrow(12)
    for x in range(1, 5):
        assert big.rate(x, x + 1) == small.rate(x, x + 1)
        if x > 1:
            assert big.rate(x, x - 1) == small.rate(x, x - 1)
    assert big.n_states == 12


def test_regrow_without_spec_fails():
    chain = catastrophe_chain()
    with pytest.raises(ValidationError):
        chain.regrow(20)


# -- explicit entry tables ---------------------------------------------------


def test_entries_accumulate_duplicates():
    chain = build_from_entries([(1, 2, 0.5), (1, 2, 0.25), (2, 0, 1.0), (2, 1, 1.0), (1, 0, 0.1)], 3)
    assert chain.rate(1, 2) == pytest.approx(0.75)
    assert chain.rate(2, 0) == pytest.approx(1.0)


def test_entries_reject_bad_rows():
    with pytest.raises(ValidationError):
        build_from_entries([(0, 1, 1.0)], 3)  # 0 is absorbing
    with pytest.raises(ValidationError):
        build_from_entries([(1, 1, 1.0)], 3)  # self rate
    with pytest.raises(ValidationError):
        build_from_entries([(1, 2, -1.0)], 3)
    with pytest.raises(ValidationError):
        build_from_entries([(5, 1, 1.0)], 3)  # source above window


def test_entries_above_window_target():
    with pytest.raises(ValidationError):
        build_from_entries([(2, 3, 1.0), (1, 0, 1.0)], 3, REFLECT)
    chain = build_from_entries([(2, 3, 1.0), (2, 1, 0.5), (1, 2, 1.0), (1, 0, 1.0)], 3, KILL)
    assert chain.kill_rates[1] == pytest.approx(1.0)


@pytest.mark.parametrize("mode", [REFLECT, KILL])
def test_entries_reject_negative_target(mode):
    # a target below 0 is no state at all: neither truncation killing in
    # kill mode nor a target above the window top in reflect mode
    msg = r"target state -1 of rate \(3 -> -1\) is negative"
    with pytest.raises(ValidationError, match=msg):
        build_from_entries([(1, 0, 1.0), (3, -1, 2.0)], 4, mode)
    with pytest.raises(ValidationError, match="<string>: " + msg):
        parse_chain_text(f"states 4\nboundary {mode}\nrate 1 0 1.0\nrate 3 -1 2.0\n")


def test_constructor_rejects_short_window():
    with pytest.raises(ValidationError):
        build_from_entries([], 1)


# -- distributions -----------------------------------------------------------


def test_distribution_normalizes():
    mu = DistributionOnStates([1.0, 3.0])
    assert mu.weights.sum() == pytest.approx(1.0)
    assert mu.mass_on(2) == pytest.approx(0.75)
    assert mu.mass_on(7) == 0.0


def test_distribution_rejects_junk():
    for bad in ([], [0.0, 0.0], [1.0, -0.5], [np.nan, 1.0], [np.inf]):
        with pytest.raises(ValidationError):
            DistributionOnStates(bad)


def test_delta_and_uniform():
    d = DistributionOnStates.delta(3, 8)
    assert d.support() == [3]
    u = DistributionOnStates.uniform(5)
    assert np.allclose(u.weights, 0.25)
    with pytest.raises(ValidationError):
        DistributionOnStates.delta(8, 8)  # top window state is 7


def test_embed_zero_pads():
    mu = DistributionOnStates([0.5, 0.5])
    wide = mu.embed(10)
    assert wide.n_states == 10
    assert wide.mass_on(1) == 0.5
    assert wide.mass_on(5) == 0.0
    with pytest.raises(ValidationError):
        wide.embed(3)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30).filter(
        lambda ws: sum(ws) > 0
    )
)
def test_distribution_weights_sum_to_one(ws):
    mu = DistributionOnStates(ws)
    assert abs(float(mu.weights.sum()) - 1.0) < 1e-12


# -- chain files -------------------------------------------------------------

GOOD_FILE = """\
# small test chain
states 4
boundary kill
rate 1 2 1.0   # up
rate 2 3 1.0
rate 3 4 2.0   # leaves the window, counts as killing
rate 2 1 0.5
rate 3 2 0.5
rate 1 0 0.25
"""


def test_parse_good_file(tmp_chain_file):
    path = tmp_chain_file(GOOD_FILE)
    chain = load_chain_file(path)
    assert chain.n_states == 4
    assert chain.boundary_mode == KILL
    assert chain.kill_rates[2] == pytest.approx(2.0)
    assert chain.rate(1, 2) == 1.0
    assert chain.absorption_rates[0] == 0.25


def test_parse_logistic_directive():
    chain = parse_chain_text("states 6\nlogistic 1 1 1\n")
    direct = build_logistic(1.0, 1.0, 1.0, 6)
    assert (chain.sub_generator != direct.sub_generator).nnz == 0
    assert chain.source_spec is not None


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValidationError, match=r"chain\.txt:3: unknown directive"):
        parse_chain_text("states 4\nrate 1 2 1.0\nbogus 1 2\n", name="chain.txt")
    with pytest.raises(ValidationError, match=r":2: usage: rate"):
        parse_chain_text("states 4\nrate 1 2\n")
    with pytest.raises(ValidationError, match=r":1: bad state count"):
        parse_chain_text("states four\n")
    with pytest.raises(ValidationError, match="missing required 'states'"):
        parse_chain_text("rate 1 2 1.0\n")
    with pytest.raises(ValidationError, match="cannot be mixed"):
        parse_chain_text("states 4\nlogistic 1 1 1\nrate 1 2 1.0\n")
    with pytest.raises(ValidationError, match="no rates"):
        parse_chain_text("states 4\n")
    # a repeated one-off directive is refused, not overwritten by its last line
    with pytest.raises(ValidationError, match=r"c\.txt:3: 'states' may appear only once"):
        parse_chain_text("states 4\nrate 1 0 1.0\nstates 8\n", name="c.txt")
    with pytest.raises(ValidationError, match=r":3: 'boundary' may appear only once"):
        parse_chain_text("states 4\nboundary kill\nboundary reflect\nrate 1 0 1.0\n")
    with pytest.raises(ValidationError, match=r":3: 'logistic' may appear only once"):
        parse_chain_text("states 4\nlogistic 1 1 1\nlogistic 2 1 1\n")


def test_parse_rejects_window_violation_with_file_name():
    with pytest.raises(ValidationError, match="mychain"):
        parse_chain_text("states 3\nrate 2 3 1.0\nrate 1 0 1.0\n", name="mychain")


def _assert_same_window(got, want):
    """Two chains with the same window, sub-generator arrays, absorption
    and killing, byte for byte."""
    assert (got.n_states, got.boundary_mode) == (want.n_states, want.boundary_mode)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got.sub_generator, name), getattr(want.sub_generator, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.absorption_rates.tobytes() == want.absorption_rates.tobytes()
    assert got.kill_rates.tobytes() == want.kill_rates.tobytes()


_HALF = [(1, 2, 0.5)]
_USAGE = "usage: rate FROM TO VALUE"


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "line, want",
    [
        ("rate 1 2 0.5   # up", _HALF),
        ("rate 1 2 0.5#up", _HALF),
        ("rate\t1\t2\t0.5", _HALF),
        ("RATE 1 2 0.5", _HALF),
        ("Rate 1 2 0.5", _HALF),
        ("   rate 1 2 0.5", _HALF),
        ("\t rate 1 2 0.5 \t", _HALF),
        # characters that str.splitlines breaks at are blanks inside a line
        ("rate 1\x0c2 0.5", _HALF),
        ("rate\x0b1 2\x1c0.5\x1d", _HALF),
        ("\x1erate 1\x852\u20280.5\u2029", _HALF),
        ("\x0c", []),
        ("", []),
        ("   \t", []),
        ("# a comment", []),
        ("   # rate 1 2 0.5", []),
        ("rate 1 2", _USAGE),
        ("RATE 1 2", _USAGE),
        ("rate", _USAGE),
        ("rate 1 2 0.5 7", _USAGE),
        ("rate 1 2 # 0.5", _USAGE),
        ("rate 1 x 1.0", "bad rate entry 'rate 1 x 1.0'"),
        ("rate 1 2 half", "bad rate entry 'rate 1 2 half'"),
        ("rate 1.0 2 0.5", "bad rate entry 'rate 1.0 2 0.5'"),
        ("\tRATE 1 two 0.5  # c", "bad rate entry 'RATE 1 two 0.5'"),
    ],
)
def test_rate_line_shapes_parse_like_their_entries_or_name_their_line(line, want, eol):
    # the line under test is line 6, below a comment, a blank line and
    # three directives: it gives the window of the entries it lists, or
    # its message at line 6
    lines = ["# a chain", "", "states 4", "boundary kill", "rate 1 0 1.0", line, "rate 2 1 0.25"]
    text = eol.join(lines) + eol
    if isinstance(want, str):
        with pytest.raises(ValidationError) as got:
            parse_chain_text(text)
        assert str(got.value) == f"<string>:6: {want}"
    else:
        built = build_from_entries([(1, 0, 1.0), *want, (2, 1, 0.25)], 4, KILL)
        _assert_same_window(parse_chain_text(text), built)


def test_cr_cr_lf_lines_are_numbered_as_open_reads_them(tmp_path):
    # open() reads CR CR LF as a lone CR and then a CR LF: two line ends,
    # so the bad entry is on line 5 both as text and as a file
    raw = "states 4\r\r\nrate 1 0 1.0\r\r\nrate 1 x 1.0\r\r\n"
    path = tmp_path / "crcrlf.chain"
    path.write_bytes(raw.encode())
    want = "5: bad rate entry 'rate 1 x 1.0'"
    with pytest.raises(ValidationError) as got:
        parse_chain_text(raw)
    assert str(got.value) == f"<string>:{want}"
    with pytest.raises(ValidationError) as got:
        load_chain_file(path)
    assert str(got.value) == f"{path}:{want}"


# -- jump arrays against the entry-by-entry constructor ----------------------


def _assert_matches_chain_oracle(chain, off, absorb, kill):
    """The window and its reflecting twin against chain_oracle, byte for byte."""
    for built, kill_rates in ((chain, kill), (chain.as_reflecting(), np.zeros_like(kill))):
        Q, want_absorb, want_kill = chain_oracle(chain.n_states, off, absorb, kill_rates)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(built.sub_generator, name), getattr(Q, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert built.absorption_rates.tobytes() == want_absorb.tobytes()
        assert built.kill_rates.tobytes() == want_kill.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=1e-4, max_value=10.0),
    st.integers(min_value=2, max_value=300),
    st.sampled_from([REFLECT, KILL]),
)
def test_logistic_windows_match_chain_oracle(b, d, c, n_states, mode):
    spec = BirthDeathSpec.logistic(b, d, c)
    # the walk over levels that built the rate mapping of a window
    n = n_states - 1
    off, absorb, kill = {}, np.zeros(n), np.zeros(n)
    for x in range(1, n + 1):
        up, down = spec.rates_at(x)
        if down > 0:
            if x == 1:
                absorb[0] = down
            else:
                off[(x, x - 1)] = down
        if up > 0:
            if x < n:
                off[(x, x + 1)] = up
            elif mode == KILL:
                kill[n - 1] = up
    _assert_matches_chain_oracle(truncate(spec, n_states, mode), off, absorb, kill)


@st.composite
def _entry_tables(draw):
    n_states = draw(st.integers(min_value=2, max_value=8))
    n = n_states - 1
    mode = draw(st.sampled_from([REFLECT, KILL]))
    top = n + 2 if mode == KILL else n
    rate = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))
    entries = draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(0, top), rate), max_size=30
    ))
    return n_states, mode, [(x, y, r) for x, y, r in entries if x != y]


@settings(max_examples=200, deadline=None)
@given(_entry_tables())
# row 2 lists targets 4, 1, 3 out of column order, 4 twice, a zero rate
# to 3 and a kill target above the window; 3 -> 4 is a lone zero
@example((5, KILL, [(2, 4, 1.0), (2, 1, 0.5), (2, 3, 0.0), (2, 4, 0.1), (2, 6, 2.0),
                    (2, 3, 0.3), (3, 4, 0.0), (1, 0, 1.0), (4, 3, 0.7)]))
def test_entry_tables_match_chain_oracle(table):
    n_states, mode, entries = table
    # the accumulation that built the rate mapping of an entry table
    n = n_states - 1
    off, absorb, kill = {}, np.zeros(n), np.zeros(n)
    for x, y, r in entries:
        if y == 0:
            absorb[x - 1] += r
        elif y <= n:
            off[(x, y)] = off.get((x, y), 0.0) + r
        else:
            kill[x - 1] += r
    _assert_matches_chain_oracle(build_from_entries(entries, n_states, mode), off, absorb, kill)


# 2**63 + 1 next to an int64 makes a float64 column, which rounds it
_PAST_INT64 = [2**63, 2**63 + 1, 2**64, -(2**63) - 1]


@st.composite
def _checked_entry_tables(draw):
    """Small windows whose entries may fail any check, several at once:
    source 0 or past the window, self-rates, negative targets, negative,
    infinite or NaN rates, targets above the top, and state numbers past
    int64; good entries come in between."""
    n_states = draw(st.integers(min_value=2, max_value=6))
    n = n_states - 1
    mode = draw(st.sampled_from([REFLECT, KILL]))
    good = st.tuples(st.integers(1, n), st.integers(0, n), st.floats(0.0, 1e3)).filter(
        lambda e: e[0] != e[1]
    )
    # sources mostly in the window, so the later checks get their turn
    source = st.one_of(st.integers(0, n + 1), st.integers(1, n), st.sampled_from(_PAST_INT64))
    target = st.one_of(st.integers(-2, n + 2), st.sampled_from(_PAST_INT64))
    rate = st.one_of(
        st.floats(0.0, 1e3), st.sampled_from([-1.0, -0.0, math.inf, -math.inf, math.nan])
    )
    entries = draw(st.lists(st.one_of(good, st.tuples(source, target, rate)), min_size=1, max_size=12))
    return n_states, mode, entries


@settings(max_examples=300, deadline=None)
@given(_checked_entry_tables())
# each bad entry fails several checks; the first one listed names it
@example((4, REFLECT, [(1, 2, 1.0), (0, 0, math.nan), (2, 2, -1.0)]))
@example((4, REFLECT, [(9, 9, -1.0), (0, 1, 1.0)]))
@example((4, KILL, [(1, 0, 1.0), (2, 2, math.nan), (3, -1, math.inf)]))
@example((4, REFLECT, [(3, -1, math.inf), (2, 7, 1.0)]))
@example((4, REFLECT, [(2, 7, math.nan)]))
@example((4, REFLECT, [(1, 2, 1.0), (2**63, 2**63, 1.0)]))
@example((4, REFLECT, [(1, 2, 1.0), (2**63 + 1, 1, 1.0)]))
@example((4, REFLECT, [(2, 2**64, 1.0)]))
@example((4, KILL, [(1, 2, 1.0), (-(2**63) - 1, 0, -1.0)]))
# no bad entry: kill targets past int64
@example((4, KILL, [(1, 2**64, 1.0), (2, 2**63, 0.5), (1, 0, 1.0), (2, 1, -0.0)]))
def test_entry_checks_name_the_first_bad_entry_like_the_oracle(table):
    n_states, mode, entries = table
    text = f"states {n_states}\nboundary {mode}\n" + "".join(
        f"rate {x} {y} {r!r}\n" for x, y, r in entries
    )
    try:
        entry_checks_oracle(entries, n_states, mode)
    except ValidationError as e:
        want = str(e)
    else:
        built = build_from_entries(entries, n_states, mode)
        _assert_same_window(parse_chain_text(text), built)
        return
    with pytest.raises(ValidationError) as got:
        build_from_entries(entries, n_states, mode)
    assert str(got.value) == want
    with pytest.raises(ValidationError) as got:
        parse_chain_text(text)
    assert str(got.value) == "<string>: " + want


# state numbers that are not integers, and integral floats, which are
_NOT_INTEGER_STATES = [1.9, -0.5, 2.5, math.nan, math.inf, -math.inf, True, False, "3"]
_INTEGRAL_FLOATS = [1.0, 2.0, 0.0, -1.0, 9.0]


@st.composite
def _non_integer_entry_tables(draw):
    """Small windows whose state numbers may be fractions, +-inf, NaN,
    bools, strings or integral floats, among ints in and out of the
    window and past int64.  A chain file spells a state only as an int,
    so these tables are checked through build_from_entries alone."""
    n_states = draw(st.integers(min_value=2, max_value=6))
    n = n_states - 1
    mode = draw(st.sampled_from([REFLECT, KILL]))
    state = st.one_of(
        st.integers(-1, n + 1), st.sampled_from(_PAST_INT64 + _NOT_INTEGER_STATES + _INTEGRAL_FLOATS)
    )
    rate = st.one_of(st.floats(0.0, 1e3), st.sampled_from([-1.0, math.inf, math.nan]))
    entries = draw(st.lists(st.tuples(state, state, rate), min_size=1, max_size=8))
    return n_states, mode, entries


@settings(max_examples=300, deadline=None)
@given(_non_integer_entry_tables())
# a fraction truncated to state 1 and 2 -> 1.7 truncated to 2 -> 1
@example((3, REFLECT, [(1.9, 0, 1.0), (2, 1.7, 1.0)]))
# a bool read as state 1; an integral float is its int
@example((3, REFLECT, [(1, 0, 1.0), (True, 2, 0.5)]))
@example((3, REFLECT, [(2.0, 1.0, 0.5), (0.0, 1, 1.0)]))
@example((4, KILL, [(1, 2, 1.0), (2, math.inf, 1.0), (0, 1, -1.0)]))
@example((4, REFLECT, [(2**64, 1, 1.0), (math.nan, 1, 1.0)]))
# a string reads quoted, not as the state it spells
@example((4, REFLECT, [(1, 0, 1.0), ("3", 1, 1.0)]))
def test_non_integer_states_are_named_like_the_oracle(table):
    n_states, mode, entries = table
    try:
        entry_checks_oracle(entries, n_states, mode)
    except ValidationError as e:
        with pytest.raises(ValidationError) as got:
            build_from_entries(entries, n_states, mode)
        assert str(got.value) == str(e)
    else:
        # integral floats build the window of their ints
        as_ints = [(int(x), int(y), r) for x, y, r in entries]
        _assert_same_window(build_from_entries(entries, n_states, mode),
                            build_from_entries(as_ints, n_states, mode))


_JUMP_CASES = {
    "outside": {(2, 3): 1.0, (1, 5): 1.0, (2, 2): 1.0},
    "diagonal-before-rate": {(1, 2): 1.0, (3, 3): -1.0, (0, 1): 1.0},
    "rate-before-outside": {(2, 3): math.nan, (1, 5): 1.0},
    "negative": {(3, 1): 0.0, (2, 1): -2.0},
    "fraction": {(1.9, 2.2): 1.0},
    "bool": {(2, 3): 1.0, (True, 2): 0.5},
    # the string '3', not the state 3
    "string": {("3", 1): 1.0, (1, 2): 1.0},
    "fraction-before-outside": {(1, 2): 1.0, (2.0, 1.5): 1.0, (0, 1): 1.0},
    "nan": {(3, math.nan): 1.0},
    "past-uint64": {(2**64, 1): 1.0},
    "rate-before-past-int64": {(1, 2): -1.0, (2**63, 1): 1.0},
    "integral-floats": {(1.0, 2.0): 1.0, (3.0, 3.0): 1.0},
}


# the state numbers as lists, as given, and as the arrays the window
# builders pass, save a bool, which numpy reads as 1 among ints
@pytest.mark.parametrize(
    "jumps, to_column",
    [pytest.param(jumps, list, id=name) for name, jumps in _JUMP_CASES.items()]
    + [pytest.param(jumps, np.asarray, id=f"{name}-array") for name, jumps in _JUMP_CASES.items()
       if not any(type(v) is bool for pair in jumps for v in pair)],
)
def test_jump_checks_name_the_first_bad_entry_like_chain_oracle(jumps, to_column):
    with pytest.raises(ValidationError) as want:
        chain_oracle(4, jumps, np.ones(3), np.zeros(3))
    src, dst = (to_column([pair[i] for pair in jumps]) for i in (0, 1))
    with pytest.raises(ValidationError) as got:
        AbsorbedChain(
            n_states=4, boundary_mode=REFLECT, jumps=(src, dst, list(jumps.values())),
            absorption_rates=np.ones(3),
        )
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "src, dst, message",
    [
        (np.array([1.0, 2.5]), np.array([2, 1]), "state numbers of rate (2.5 -> 1) must be integers"),
        (np.array([1, 2]), np.array([2.0, np.inf]), "state numbers of rate (2 -> inf) must be integers"),
        (np.array([True]), np.array([2]), "state numbers of rate (True -> 2) must be integers"),
        (np.array([1, 2**64], dtype=object), np.array([2, 1]),
         "off-diagonal rate (18446744073709551616 -> 1) falls outside transient states 1..3"),
        (np.array([2**63], dtype=np.uint64), np.array([1]),
         "off-diagonal rate (9223372036854775808 -> 1) falls outside transient states 1..3"),
    ],
    ids=["float", "inf", "bool", "object", "uint64"],
)
def test_jump_arrays_are_checked_as_given(src, dst, message):
    with pytest.raises(ValidationError) as got:
        AbsorbedChain(
            n_states=4, boundary_mode=REFLECT, jumps=(src, dst, np.ones(src.size)),
            absorption_rates=np.ones(3),
        )
    assert str(got.value) == message


def test_integral_float_jump_states_build_the_int_window():
    def window(src, dst):
        return AbsorbedChain(n_states=4, boundary_mode=REFLECT, jumps=(src, dst, [1.0, 0.5, 2.0]),
                             absorption_rates=np.ones(3))

    _assert_same_window(window(np.array([1.0, 2.0, 3.0]), (2.0, 3, 1.0)), window([1, 2, 3], [2, 3, 1]))


# -- rate accessors ----------------------------------------------------------


def test_rate_accessor_roundtrip():
    chain = catastrophe_chain(n_states=6)
    assert chain.rate(3, 1) == 3.0
    assert chain.rate(3, 4) == 1.0
    assert chain.rate(3, 2) == 0.0
    assert chain.rate(1, 0) == 1.0
    with pytest.raises(ValidationError):
        chain.rate(2, 2)


def test_uniformization_rate_is_max_exit():
    chain = catastrophe_chain(n_states=6)
    assert chain.uniformization_rate() == pytest.approx(max(chain.exit_rate(x) for x in chain.transient_states))
