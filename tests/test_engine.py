import math
import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm

from quasistat import (
    BirthDeathSpec,
    ComputationError,
    DistributionOnStates,
    NonConvergenceError,
    ValidationError,
    build_from_entries,
    build_logistic,
    certify,
    check_qsd,
    check_ratio_inequality,
    compute_qsd,
    compute_qsd_auto,
    conditional_distribution,
    conditional_propagator,
    decay_table,
    decay_to_csv,
    distribution_to_csv,
    evolve_function,
    evolve_measure,
    geometric_grid,
    parse_chain_text,
    survival_probability,
    survival_vector,
    transition_operator,
    truncate,
    tv_distance,
    yaglom_limit,
)

import quasistat
from quasistat import engine
from quasistat.engine import (
    _MAX_SERIES_TERMS,
    SERIES_TOL,
    _poisson_weights,
    _step_propagator,
    _walk,
    _walk_squarings,
)

from conftest import (
    catastrophe_chain,
    evolve_oracle,
    power_iteration_qsd,
    random_small_absorbed_chain,
)

# Matrix-exponential reference for small windows.  The production path is
# the scaled Poisson series, which never forms e^{tQ}; agreement across
# routes is the whole point of these checks, so keep them independent.


def dense_evolve(chain, v, t, side):
    Q = chain.sub_generator.toarray()
    E = expm(Q * t)
    return v @ E if side == "measure" else E @ v


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_series_matches_dense_exponential(seed, t):
    chain = random_small_absorbed_chain(seed)
    rng = np.random.default_rng(1000 + seed)
    v = rng.uniform(0.0, 1.0, size=chain.n_transient)
    got = evolve_measure(chain, v, t)
    want = dense_evolve(chain, v, t, "measure")
    assert np.max(np.abs(got - want)) < 1e-9
    u = rng.uniform(-1.0, 1.0, size=chain.n_transient)
    got_f = evolve_function(chain, u, t)
    want_f = dense_evolve(chain, u, t, "function")
    assert np.max(np.abs(got_f - want_f)) < 1e-9


def test_large_window_sparse_path_matches_dense():
    # a window too large for the random small chains above
    chain = build_logistic(1.0, 1.0, 1.0, 129)
    mu = DistributionOnStates.uniform(129)
    got = transition_operator(chain, mu, 2.0)
    want = dense_evolve(chain, mu.weights, 2.0, "measure")
    assert np.max(np.abs(got - want)) < 1e-9


def test_evolve_zero_time_is_identity():
    chain = catastrophe_chain()
    v = np.linspace(0.1, 1.0, chain.n_transient)
    out = evolve_measure(chain, v, 0.0)
    assert np.array_equal(out, v)
    assert out is not v


def test_evolve_rejects_bad_time_and_shape():
    chain = catastrophe_chain()
    v = np.ones(chain.n_transient)
    with pytest.raises(ValidationError):
        evolve_measure(chain, v, -1.0)
    with pytest.raises(ValidationError):
        evolve_measure(chain, v, math.inf)
    with pytest.raises(ValidationError):
        evolve_measure(chain, np.ones(3), 1.0)
    with pytest.raises(ValidationError):
        evolve_function(chain, np.ones((3, 2)), 1.0)
    with pytest.raises(ValidationError):
        evolve_function(chain, np.ones((chain.n_transient, 2, 1)), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(min_value=0, max_value=10**6), st.sampled_from([64, 128, 368])),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from(["measure", "function"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_evolution_equals_column_by_column(which, m, t, side, seed):
    # small integers pick a random small chain, the rest a logistic window
    # of that many states; columns are indicators, ones and random
    # non-negative vectors, the inputs callers evolve
    if which in (64, 128, 368):
        chain = build_logistic(1.0, 1.0, 0.01, which)
    else:
        chain = random_small_absorbed_chain(which)
    n = chain.n_transient
    rng = np.random.default_rng(seed)
    block = rng.uniform(0.0, 1.0, size=(n, m))
    block[:, 0] = 1.0
    if m > 1:
        block[:, 1] = 0.0
        block[rng.integers(n), 1] = 1.0
    evolve = evolve_measure if side == "measure" else evolve_function
    got = evolve(chain, block, t)
    assert got.shape == (n, m)
    for j in range(m):
        assert np.array_equal(got[:, j], evolve(chain, block[:, j], t))


def _layout(rng, n, kind):
    if kind == "1d":
        return rng.uniform(0.0, 1.0, size=n)
    if kind == "F":
        return np.asfortranarray(rng.uniform(0.0, 1.0, size=(n, 3)))
    if kind == "strided":
        return rng.uniform(0.0, 1.0, size=(n, 6))[:, ::2]
    return rng.uniform(0.0, 1.0, size=(n, kind))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([8, 63, 64, 65, 130, 368]),
    st.sampled_from(["reflect", "kill"]),
    st.sampled_from(["measure", "function"]),
    st.sampled_from(["1d", 1, 2, 7, "F", "strided"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_evolution_matches_the_matmul_oracle_bit_for_bit(n_states, boundary, side, kind, t, seed):
    chain = truncate(BirthDeathSpec.logistic(2.0, 1.0, 0.25), n_states, boundary)
    v = _layout(np.random.default_rng(seed), chain.n_transient, kind)
    before = v.copy()
    evolve = evolve_measure if side == "measure" else evolve_function
    got = evolve(chain, v, t)
    want = evolve_oracle(chain, v, t, side)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.array_equal(v, before)


# The series runs Horner's rule on chunks of rows: one multiply preloads
# a chunk with w_k v, and the kernel adds M y into each row.  The cases
# below pin it to the plain Horner loop's bits, signed zeros and special
# values included (np.array_equal would take -0.0 for 0.0).


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _signed(rng, shape):
    """Entries of both signs, a -0.0 in every column."""
    v = rng.standard_normal(shape)
    v[1] = -0.0
    return v


def _series_terms(chain, t, series_tol=SERIES_TOL) -> int:
    return _poisson_weights(chain.uniformized[0] * t, series_tol).size - 1


@pytest.mark.parametrize("side", ["measure", "function"])
@pytest.mark.parametrize("columns", [None, 2])
@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_chunked_series_matches_the_matmul_oracle_bit_for_bit(rows, columns, side, monkeypatch):
    # chunks of a few rows: every series crosses many chunk boundaries
    chain = truncate(BirthDeathSpec.logistic(2.0, 1.0, 0.25), 64, "reflect")
    n = chain.n_transient
    monkeypatch.setattr(engine, "_CHUNK_ENTRIES", rows * n * (columns or 1))
    v = _signed(np.random.default_rng(rows), n if columns is None else (n, columns))
    evolve = evolve_measure if side == "measure" else evolve_function
    times = [0.01, 0.3, 1.0]
    # and at least one ends in a short chunk
    assert rows == 1 or any(_series_terms(chain, t) % rows for t in times)
    for t in times:
        assert _same_bits(evolve(chain, v, t), evolve_oracle(chain, v, t, side))


@pytest.mark.parametrize("rows", [None, 3, 7])
def test_zero_weight_prefix_matches_the_matmul_oracle_across_chunks(rows, monkeypatch):
    # at t = 1 on a 368-state window the Poisson mean is in the thousands
    # and the pmf underflows to 0 over a long prefix, the last terms
    # Horner's rule takes, which ends inside a chunk.  Zero weights are
    # not skipped: they preload 0 * v, which is -0.0 on a negative entry
    # and NaN on the +inf one, which only the private series takes
    chain = truncate(BirthDeathSpec.logistic(2.0, 1.0, 0.25), 368, "reflect")
    n = chain.n_transient
    w = _poisson_weights(chain.uniformized[0], SERIES_TOL)
    zeros = int(np.count_nonzero(w == 0.0))
    assert np.all(w[zeros:] > 0.0)
    if rows is not None:
        monkeypatch.setattr(engine, "_CHUNK_ENTRIES", rows * n)
    per_chunk = engine._CHUNK_ENTRIES // n
    # chunks run down from term w.size - 2
    assert zeros > 2 * per_chunk and (w.size - 1 - zeros) % per_chunk
    finite = _signed(np.random.default_rng(368), n)
    infinite = finite.copy()
    infinite[5] = math.inf
    for side, evolve in [("measure", evolve_measure), ("function", evolve_function)]:
        assert _same_bits(evolve(chain, finite, 1.0), evolve_oracle(chain, finite, 1.0, side))
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN
            got = engine._evolve(chain, infinite, 1.0, side)
            want = evolve_oracle(chain, infinite, 1.0, side)
        assert np.isnan(got).any()
        assert _same_bits(got, want)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("columns", [None, 2])
@pytest.mark.parametrize("side", ["measure", "function"])
def test_public_evolution_refuses_non_finite_input(side, columns, bad):
    # one inf or NaN entry would turn the whole result NaN on this window
    # at t = 1, where zero Poisson weights multiply it; -0.0 and negative
    # entries are finite and keep the bits of the private series
    chain = truncate(BirthDeathSpec.logistic(2.0, 1.0, 0.25), 368, "reflect")
    n = chain.n_transient
    evolve = evolve_measure if side == "measure" else evolve_function
    v = _signed(np.random.default_rng(35), n if columns is None else (n, columns))
    got = evolve(chain, v, 1.0)
    assert _same_bits(got, engine._evolve(chain, v, 1.0, side))
    assert _same_bits(got, evolve_oracle(chain, v, 1.0, side))
    # the first bad entry in row-major order is named, 1-based state and
    # 0-based block column
    v[200] = bad
    if columns is None:
        where = "state 201"
    else:
        v[6, 1] = bad
        where = "state 7, column 1"
    with pytest.raises(ValidationError, match=f"must be finite, got {bad} at {where}$"):
        evolve(chain, v, 1.0)


@pytest.mark.parametrize("side", ["measure", "function"])
def test_one_entry_rows_match_the_matmul_oracle_bit_for_bit(side):
    # a 2-state window has one transient state, so a term is one entry.
    # The window's own step 1 - q/L is 0, so the cached step is swapped
    # for 0.97 to keep every term nonzero
    chain = truncate(BirthDeathSpec.logistic(2.0, 1.0, 0.25), 2, "reflect")
    assert chain.n_transient == 1
    chain.uniformized = (chain.uniformized[0], sparse.csr_matrix(np.array([[0.97]])))
    rng = np.random.default_rng(2)
    evolve = evolve_measure if side == "measure" else evolve_function
    for t in [0.3, 20.0, 150.0]:
        for v in [rng.uniform(0.5, 1.0, 1), np.array([-0.0]), -rng.uniform(0.5, 1.0, (1, 1))]:
            assert _same_bits(evolve(chain, v, t), evolve_oracle(chain, v, t, side))


@pytest.mark.parametrize("side", ["measure", "function"])
def test_identity_block_matches_the_matmul_oracle_bit_for_bit(side):
    # the 63 x 63 identity _step_propagator evolves, a wide block of four
    # terms per chunk, at the propagator's tolerances and beyond
    chain = truncate(BirthDeathSpec.logistic(1.0, 1.0, 1.0), 64, "reflect")
    eye = np.eye(chain.n_transient)
    assert engine._CHUNK_ENTRIES // eye.size == 4
    lam = chain.uniformized[0]
    for k, t in [(0, 0.05), (4, 1.0), (7, 2.0), (0, 300 / lam)]:
        tau, tol = math.ldexp(t, -k), math.ldexp(SERIES_TOL, -k)
        got = engine._evolve(chain, eye, tau, side, tol)
        assert _same_bits(got, evolve_oracle(chain, eye, tau, side, tol))


@pytest.mark.parametrize("side", ["measure", "function"])
@pytest.mark.parametrize("columns", [None, 1, 2, 5])
@pytest.mark.parametrize("n_states", [8, 64, 130, 368])
def test_signed_input_matches_the_matmul_oracle_bit_for_bit(n_states, columns, side):
    # negative entries and -0.0: entries that underflow keep the sign of
    # zero the plain loop gives them
    chain = truncate(BirthDeathSpec.logistic(2.0, 1.0, 0.25), n_states, "reflect")
    n = chain.n_transient
    v = _signed(np.random.default_rng(n_states), n if columns is None else (n, columns))
    evolve = evolve_measure if side == "measure" else evolve_function
    for t in [0.01, 0.3, 1.0]:
        assert _same_bits(evolve(chain, v, t), evolve_oracle(chain, v, t, side))


def _dense_kill_chain(n_states, seed):
    """Every ordered pair of states joined at a random rate, absorption
    out of every state, and killing out of the top three."""
    rng = np.random.default_rng(seed)
    n = n_states - 1
    entries = [
        (x, y, float(rng.uniform(0.05, 2.0))) for x in range(1, n + 1) for y in range(n + 1) if y != x
    ]
    entries += [(x, n + 1, float(rng.uniform(0.1, 1.0))) for x in range(n - 2, n + 1)]
    return build_from_entries(entries, n_states, "kill")


@pytest.mark.parametrize("side", ["measure", "function"])
@pytest.mark.parametrize("columns", [None, 1, 3, 64])
@pytest.mark.parametrize("window", ["catastrophe", "dense-kill"])
def test_long_rows_match_the_matmul_oracle_bit_for_bit(window, columns, side):
    # a logistic window holds at most three entries per row of M and of
    # M^T; here M^T has full rows: every state of the catastrophe chain
    # drops to state 1, and the dense window joins every pair.  Measures
    # read M^T through the csc kernels on M's own arrays, which scatter
    # each row's products where csr_matvec(s) on a copy of M^T would sum
    # them in a register; the oracle takes that copy.  64 columns make a
    # wide block, of one to five terms per chunk
    chain = catastrophe_chain(130, drop=5.0) if window == "catastrophe" else _dense_kill_chain(48, 7)
    n = chain.n_transient
    assert np.bincount(chain.uniformized[1].indices).max() == n
    v = _signed(np.random.default_rng(n), n if columns is None else (n, columns))
    evolve = evolve_measure if side == "measure" else evolve_function
    for t in [0.01, 0.3, 1.0]:
        assert _same_bits(evolve(chain, v, t), evolve_oracle(chain, v, t, side))


# A narrow block on a banded window takes each term through dia_matvec
# on the column-interleaved block, everything else the csr/csc kernels.
# The cases below pin the DIA route to the matmul oracle's bits, and the
# routing to the band, the block width and the sign and size of the
# input's entries.


def _skip_two_chain_text(n_states):
    """A ladder with jumps of length 1 and 2 both ways, absorbed out of 1
    and 2 and killed out of the top two, as a chain file."""
    n = n_states - 1
    lines = [f"states {n_states}", "boundary kill"]
    for x in range(1, n + 1):
        for step, rate in [(-2, 0.3 * x), (-1, 1.0 + x), (1, 2.0), (2, 0.7)]:
            if x + step >= 0:
                lines.append(f"rate {x} {x + step} {rate!r}")
    return "\n".join(lines) + "\n"


def _spy_products(monkeypatch):
    """The band argument of every _product call, as 'dia' or 'csr'."""
    seen = []
    product = engine._product

    def spy(A, m, transpose=False, band=None):
        seen.append("csr" if band is None else "dia")
        return product(A, m, transpose, band)

    monkeypatch.setattr(engine, "_product", spy)
    return seen


_BANDED_WINDOWS = {
    "reflect": lambda: truncate(BirthDeathSpec.logistic(3.0, 1.0, 0.0505), 368, "reflect"),
    "kill": lambda: truncate(BirthDeathSpec.logistic(2.0, 1.0, 0.25), 130, "kill"),
    "skip-two-chain": lambda: parse_chain_text(_skip_two_chain_text(64)),
}


@pytest.mark.parametrize("side", ["measure", "function"])
@pytest.mark.parametrize("columns", [None, 0, 1, 2, 3])
@pytest.mark.parametrize("window", sorted(_BANDED_WINDOWS))
def test_banded_window_matches_the_matmul_oracle_bit_for_bit(window, columns, side, monkeypatch):
    # each window's M is banded, and at its uniformization rate one state
    # leaves M a zero on the diagonal that the DIA layout stores and the
    # CSR arrays do not.  Non-negative inputs take the DIA route; signed
    # ones, with a -0.0 in every column, keep csr/csc (an empty block has
    # no entry with its sign bit set)
    chain = _BANDED_WINDOWS[window]()
    n = chain.n_transient
    assert 0.0 in chain.uniformized[1].diagonal()
    shape = n if columns is None else (n, columns)
    rng = np.random.default_rng(n)
    evolve = evolve_measure if side == "measure" else evolve_function
    seen = _spy_products(monkeypatch)
    for v, route in [(rng.uniform(0.0, 1.0, shape), "dia"), (_signed(rng, shape), "csr")]:
        seen.clear()
        for t in [0.01, 0.3, 1.0]:
            assert _same_bits(evolve(chain, v, t), evolve_oracle(chain, v, t, side))
        assert set(seen) == {route if columns != 0 else "dia"}


def test_dia_route_is_taken_only_by_narrow_blocks_on_banded_windows(monkeypatch):
    banded = _BANDED_WINDOWS["kill"]()
    n = banded.n_transient
    seen = _spy_products(monkeypatch)
    for m in range(1, engine._BAND_COLUMNS + 2):
        for evolve in (evolve_measure, evolve_function):
            seen.clear()
            evolve(banded, np.ones((n, m)), 0.1)
            assert seen == ["dia" if m <= engine._BAND_COLUMNS else "csr"], m
    # every state of the catastrophe chain drops to state 1: M has a full
    # column, n diagonals for about 3n entries
    catastrophe = catastrophe_chain(130, drop=5.0)
    for evolve in (evolve_measure, evolve_function):
        seen.clear()
        evolve(catastrophe, np.ones(catastrophe.n_transient), 0.1)
        assert seen == ["csr"]


@pytest.mark.parametrize("side", ["measure", "function"])
def test_dia_route_leaves_the_identity_block_on_csr(side, monkeypatch):
    # the step propagator evolves the n-column identity, then squares it
    chain = truncate(BirthDeathSpec.logistic(1.0, 1.0, 1.0), 64, "reflect")
    seen = _spy_products(monkeypatch)
    _step_propagator(chain, 1.0, side, 3)
    assert seen == ["csr"] * 4


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0**961, -0.0, -1.0])
@pytest.mark.parametrize("side", ["measure", "function"])
def test_dia_route_refuses_inputs_that_could_leave_a_term_non_finite(side, bad, monkeypatch):
    # 0 * inf is NaN where a zero in the band meets an infinite entry, and
    # a sum preloaded with -0.0 (w_k times a -0.0 or negative entry) turns
    # +0.0 on it; the csr/csc kernels store no such zero, so those inputs
    # keep them.  The same input with a finite non-negative entry there,
    # up to 2**960, takes the DIA route.  The public calls refuse inf and
    # NaN, so those run through the private series
    chain = _BANDED_WINDOWS["reflect"]()
    # at the state that sets the uniformization rate, where M's diagonal is 0
    fastest = int(np.argmax(chain.total_exit_rates()))
    assert chain.uniformized[1].diagonal()[fastest] == 0.0
    evolve = evolve_measure if side == "measure" else evolve_function
    seen = _spy_products(monkeypatch)
    for entry, route in [(bad, "csr"), (0.0, "dia"), (2.0**960, "dia")]:
        v = np.ones(chain.n_transient)
        v[fastest] = entry
        seen.clear()
        with np.errstate(invalid="ignore", over="ignore"):
            if math.isfinite(entry):
                got = evolve(chain, v, 0.01)
            else:
                got = engine._evolve(chain, v, 0.01, side)
            want = evolve_oracle(chain, v, 0.01, side)
        assert seen == [route]
        assert _same_bits(got, want)


def _exact_series(chain, block, t, side):
    """sum_k w_k M^k v (M^T for measures) for every column v of block, as
    Fractions: the same float weights and the same float M, with every
    product and sum exact.  A float is an integer over a power of two, so
    the sums run on integer numerators over one power of two."""
    lam, M = chain.uniformized
    w = _poisson_weights(lam * t, SERIES_TOL)
    A = M.toarray().T if side == "measure" else M.toarray()

    def numerators(xs):
        # integers p and an exponent e with xs = p / 2**e, exactly
        ratios = [float(x).as_integer_ratio() for x in xs]
        e = max(d for _, d in ratios).bit_length() - 1
        return [p << (e + 1 - d.bit_length()) for p, d in ratios], e

    a, e_m = numerators(A.ravel())
    n = A.shape[0]
    rows = [a[i * n : (i + 1) * n] for i in range(n)]
    out = []
    for v in block.T:
        term, e = numerators(v)  # M^k v = term / 2**e
        sums, e_sums = [0] * n, 0  # the partial sum is sums / 2**e_sums
        for k, wk in enumerate(w.tolist()):
            if k:
                term, e = [sum(r * x for r, x in zip(row, term)) for row in rows], e + e_m
            p, d = wk.as_integer_ratio()
            shift = e + d.bit_length() - 1 - e_sums
            if shift > 0:
                sums, e_sums = [s << shift for s in sums], e_sums + shift
            sums = [s + ((p * x) << -shift if shift < 0 else p * x) for s, x in zip(sums, term)]
        out.append([Fraction(s, 2**e_sums) for s in sums])
    return out


@pytest.mark.parametrize("side", ["measure", "function"])
@pytest.mark.parametrize("boundary", ["reflect", "kill"])
@pytest.mark.parametrize("params", [(1.0, 1.0, 1.0), (2.0, 1.0, 0.25), (0.5, 1.0, 0.2)])
def test_series_matches_the_exact_oracle(params, boundary, side):
    # the rounding of the float series, against its exact value on 3 to 6
    # transient states: the constant 1, the indicator of state 1 and a
    # random non-negative column, each within 2e-15 relative
    evolve = evolve_measure if side == "measure" else evolve_function
    worst = 0.0
    for n_states in range(4, 8):
        chain = truncate(BirthDeathSpec.logistic(*params), n_states, boundary)
        n = chain.n_transient
        block = np.column_stack(
            (np.ones(n), np.eye(n)[0], np.random.default_rng(n).uniform(0.0, 1.0, n))
        )
        for t in [0.3, 1.0, 2.5]:
            got = evolve(chain, block, t)
            for col, exact in zip(got.T.tolist(), _exact_series(chain, block, t, side)):
                for g, x in zip(col, exact):
                    assert x > 0
                    worst = max(worst, float(abs(Fraction(g) - x) / x))
    assert worst <= 2e-15


def _assert_cut_on_the_upper_tail(mu, tol):
    # the cutoff k is the least one whose upper tail P(N > k) is at most
    # tol, and the weights run one term past it
    from scipy.stats import poisson  # the oracle; the library avoids scipy.stats

    w = _poisson_weights(mu, tol)
    k = w.size - 2
    assert poisson.sf(k, mu) <= tol
    assert k == 0 or poisson.sf(k - 1, mu) > tol
    assert np.array_equal(w, poisson.pmf(np.arange(w.size), mu))


# 3.2 and 10.734 at 1e-13: an isf-form cutoff (1 - tol inverted through
# the lower tail) stops at 23 and 42, whose upper tails are 1.00065e-13
# and 1.00084e-13
@pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-6])
@pytest.mark.parametrize(
    "mu", [1e-6, 1e-3, 0.1, 1.0, 3.2, 7.5, 10.734, 42.0, 1e3, 8.2e3, 1e5, 3e6]
)
def test_poisson_weights_match_scipy_stats(mu, tol):
    _assert_cut_on_the_upper_tail(mu, tol)


@pytest.mark.parametrize("tol", [1e-17, 5e-17, 1e-18, 1e-19, 1e-20])
@pytest.mark.parametrize("mu", [1e-6, 1e-3, 0.1, 1.0, 3.9, 7.5, 30.0, 42.0, 1e3, 8.2e3, 1e5, 3e6])
def test_poisson_weights_below_double_resolution_cut_on_the_upper_tail(mu, tol):
    # 1 - tol rounds to 1 here: the cut must be read off the upper tail
    _assert_cut_on_the_upper_tail(mu, tol)


@pytest.mark.parametrize("mu", [2.0 * _MAX_SERIES_TERMS, 1e20, math.inf, math.nan])
def test_poisson_weights_cap_raises(mu):
    with pytest.raises(ComputationError, match="cap"):
        _poisson_weights(mu, 1e-13)


def test_evolution_past_the_series_cap_names_rate_time_and_window():
    chain = build_from_entries([(1, 2, 1e12), (2, 1, 1.0), (1, 0, 1.0)], 3)
    with pytest.raises(ComputationError, match=r"t=1\.0 .*L=1\.000e\+12 .*2-state window"):
        evolve_function(chain, np.ones(2), 1.0)


# the library never calls scipy.stats; the solvers (sparse LU, spsolve,
# connected components) load only when a command solves something
@pytest.mark.parametrize("module", ["scipy.stats", "scipy.linalg", "scipy.sparse.linalg"])
def test_import_does_not_load(module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(quasistat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, quasistat.cli; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_semigroup_property():
    chain = build_logistic(1.0, 1.0, 1.0, 40)
    v = DistributionOnStates.uniform(40).weights
    onestep = evolve_measure(chain, v, 3.0)
    twostep = evolve_measure(chain, evolve_measure(chain, v, 1.25), 1.75)
    assert np.max(np.abs(onestep - twostep)) < 1e-12


def test_survival_is_adjoint_of_mass_evolution():
    chain = catastrophe_chain()
    t = 2.5
    surv = survival_vector(chain, t)
    for x in chain.transient_states:
        mass = transition_operator(chain, DistributionOnStates.delta(x, chain.n_states), t)
        assert float(mass.sum()) == pytest.approx(surv[x - 1], abs=1e-12)
    assert survival_probability(chain, 1, t) == pytest.approx(surv[0])
    with pytest.raises(ValidationError):
        survival_probability(chain, 0, t)


def test_survival_decreases_and_stays_in_unit_interval():
    chain = build_logistic(1.0, 1.0, 1.0, 30)
    prev = np.ones(chain.n_transient)
    for t in [0.1, 0.5, 1.0, 4.0]:
        s = survival_vector(chain, t)
        assert np.all(s >= 0) and np.all(s <= 1 + 1e-12)
        assert np.all(s <= prev + 1e-12)
        prev = s


# -- total variation ---------------------------------------------------------


def test_tv_distance_known_values():
    a = DistributionOnStates([1.0, 0.0])
    b = DistributionOnStates([0.0, 1.0])
    assert tv_distance(a, b) == pytest.approx(2.0)
    assert tv_distance(a, a) == 0.0
    assert tv_distance([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        tv_distance(a, [0.2, 0.3, 0.5])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_evolution_contracts_signed_mass(seed, t):
    # the sub-Markov flow never increases an L1 difference
    rng = np.random.default_rng(seed)
    chain = catastrophe_chain()
    n = chain.n_transient
    a = rng.uniform(0, 1, n)
    b = rng.uniform(0, 1, n)
    before = float(np.abs(a - b).sum())
    after = float(np.abs(evolve_measure(chain, a, t) - evolve_measure(chain, b, t)).sum())
    assert after <= before + 1e-12 * max(1.0, before)


# -- conditioning ------------------------------------------------------------


def test_conditional_distribution_normalizes():
    chain = build_logistic(1.0, 1.0, 1.0, 30)
    law = conditional_distribution(chain, DistributionOnStates.delta(5, 30), 2.0)
    assert float(law.weights.sum()) == pytest.approx(1.0, abs=1e-14)


def test_conditional_distribution_null_event_raises():
    # at t = 1000 each of the walk's 1024 sub-steps survives with
    # e^(-1953), which underflows
    chain = build_from_entries([(1, 0, 2000.0)], 2)
    with pytest.raises(ComputationError, match="null"):
        conditional_distribution(chain, DistributionOnStates.delta(1, 2), 1000.0)


def test_a_step_whose_mass_underflows_is_split():
    # e^(-2000) and e^(-1000) fall below 1e-300, e^(-500) does not: the
    # step to t = 1 is taken as 4 sub-steps, and a one-state window's
    # conditioned law is δ₁
    chain = build_from_entries([(1, 0, 2000.0)], 2)
    mu = DistributionOnStates.delta(1, 2)
    assert conditional_distribution(chain, mu, 1.0).weights.tolist() == [1.0]
    assert conditional_propagator(chain, mu, 0.0, 0.5, horizon=1.0).weights.tolist() == [1.0]


def test_a_long_step_reaches_the_qsd():
    # the 64-state (1,1,1) window decays at rate 0.703: survival to
    # t = 1100 is about 1e-336, below the smallest double
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    mu = DistributionOnStates.delta(3, 64)
    rho = compute_qsd(chain).qsd
    assert tv_distance(conditional_distribution(chain, mu, 1100.0), rho) < 1e-10
    direct = conditional_propagator(chain, mu, 0.0, 1100.0, 1200.0)
    mid = conditional_propagator(chain, mu, 0.0, 600.0, 1200.0)
    chained = conditional_propagator(chain, mid, 600.0, 1100.0, 1200.0)
    assert tv_distance(direct, chained) < 1e-10
    assert check_qsd(chain, rho, [1100.0], 1e-10)[0]


def test_propagator_identity_at_equal_times():
    chain = build_logistic(1.0, 1.0, 1.0, 30)
    mu = DistributionOnStates.uniform(30)
    out = conditional_propagator(chain, mu, 2.0, 2.0, horizon=8.0)
    assert tv_distance(out, mu) < 1e-14


def test_propagator_composes_exactly():
    chain = build_logistic(1.0, 1.0, 1.0, 30)
    mu = DistributionOnStates.delta(3, 30)
    horizon = 9.0
    direct = conditional_propagator(chain, mu, 0.0, 6.0, horizon)
    mid = conditional_propagator(chain, mu, 0.0, 2.5, horizon)
    chained = conditional_propagator(chain, mid, 2.5, 6.0, horizon)
    assert tv_distance(direct, chained) < 1e-10


def test_propagator_at_horizon_matches_plain_conditioning():
    chain = build_logistic(1.0, 1.0, 1.0, 30)
    mu = DistributionOnStates.delta(2, 30)
    t = 3.0
    via_prop = conditional_propagator(chain, mu, 0.0, t, horizon=t)
    via_cond = conditional_distribution(chain, mu, t)
    assert tv_distance(via_prop, via_cond) < 1e-12


def test_propagator_rejects_bad_time_triples():
    chain = build_logistic(1.0, 1.0, 1.0, 10)
    mu = DistributionOnStates.uniform(10)
    for s, t, h in [(2.0, 1.0, 5.0), (0.0, 6.0, 5.0), (-1.0, 1.0, 5.0), (0.0, 1.0, math.inf)]:
        with pytest.raises(ValidationError):
            conditional_propagator(chain, mu, s, t, h)


def test_propagator_null_horizon_raises():
    chain = build_from_entries([(1, 0, 2000.0)], 2)
    mu = DistributionOnStates.delta(1, 2)
    with pytest.raises(ComputationError):
        conditional_propagator(chain, mu, 0.0, 500.0, horizon=1000.0)


def test_propagator_refuses_a_start_that_cannot_reach_the_horizon():
    # state 2 is absorbed at rate 1000: its survival to the horizon,
    # 0.5 away, is about e^-500, below the null-mass floor, so the
    # conditioning event is null for a law that charges it
    chain = build_from_entries([(1, 0, 1.0), (1, 2, 1.0), (2, 0, 1000.0)], 3)
    with pytest.raises(ComputationError, match="cannot survive to the horizon"):
        conditional_propagator(chain, DistributionOnStates.delta(2, 3), 0.0, 0.5, 1.0)


def test_propagator_walks_a_long_horizon():
    # both legs go through _walk, so a long horizon takes the dense step
    # propagator instead of one series of about L * horizon terms
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    mu = DistributionOnStates.delta(3, 64)
    horizon = 300.0
    with propagator_builds() as builds:
        direct = conditional_propagator(chain, mu, 0.0, 150.0, horizon)
    assert len(builds) >= 1
    mid = conditional_propagator(chain, mu, 0.0, 60.0, horizon)
    chained = conditional_propagator(chain, mid, 60.0, 150.0, horizon)
    assert tv_distance(direct, chained) < 1e-10


@pytest.mark.parametrize(
    "s, t", [(0.0, 2.5), (0.0, 100.0), (40.0, 130.0), (150.0, 190.0), (0.0, 200.0)]
)
@pytest.mark.parametrize("boundary", ["reflect", "kill"])
def test_propagator_matches_dense_expm_tilt(s, t, boundary):
    # the tilt formula with dense matrix exponentials: weight by
    # 1 / h(horizon - s), push forward t - s, weight by h(horizon - t)
    chain = build_logistic(1.0, 1.0, 1.0, 31, boundary)
    n = chain.n_transient
    horizon = 200.0
    w = np.random.default_rng(7).uniform(0.0, 1.0, n)
    w /= w.sum()
    Q = chain.sub_generator.toarray()
    h_t = expm(Q * (horizon - t)) @ np.ones(n)
    h_s = expm(Q * (t - s)) @ h_t
    want = ((w / h_s) @ expm(Q * (t - s))) * h_t
    got = conditional_propagator(chain, w, s, t, horizon)
    assert tv_distance(got, want / want.sum()) < 1e-10


# -- quasi-stationary law ----------------------------------------------------


def test_qsd_two_state_closed_form():
    # unit birth at 1, death rate x at x, window {0,1,2}: the decay rate
    # is the smallest eigenvalue of [[2,-1],[-2,2]], i.e. 2 - sqrt(2)
    chain = build_logistic(1.0, 1.0, 0.0, 3)
    res = compute_qsd(chain, tol=1e-14)
    assert res.decay_rate == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
    want = np.array([2.0 - math.sqrt(2.0), math.sqrt(2.0) - 1.0])
    assert np.max(np.abs(res.qsd.weights - want)) < 1e-12
    assert res.kill_rate == 0.0
    assert res.eigen_residual < 1e-12


def test_qsd_is_fixed_point_of_conditioning():
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    res = compute_qsd(chain, tol=1e-13)
    ok, worst = check_qsd(chain, res.qsd, [0.5, 1.0, 2.0, 5.0], tol=1e-10)
    assert ok, f"worst TV {worst}"


def test_qsd_decay_rate_matches_eigen_identity():
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    res = compute_qsd(chain, tol=1e-13)
    # theta equals the absorbed mass flux under the QSD by construction;
    # the residual certifies the left-eigenvector identity independently
    assert res.eigen_residual < 1e-11
    assert res.decay_rate == pytest.approx(res.absorption_rate + res.kill_rate)
    assert res.decay_rate == pytest.approx(0.7027998935821936, abs=1e-9)


def test_qsd_kill_mode_accounts_killing():
    chain = build_logistic(1.0, 1.0, 1.0, 16, "kill")
    res = compute_qsd(chain, tol=1e-13)
    assert res.kill_rate > 0
    assert res.decay_rate == pytest.approx(res.absorption_rate + res.kill_rate)


def test_qsd_rejects_reducible_window():
    chain = build_from_entries([(1, 2, 1.0), (2, 3, 1.0), (1, 0, 1.0)], 4)
    with pytest.raises(ValidationError, match="strongly connected"):
        compute_qsd(chain)


def test_qsd_nonconvergence_carries_trace():
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    with pytest.raises(NonConvergenceError) as ei:
        compute_qsd(chain, tol=1e-13, max_iters=4)
    trace = ei.value.trace
    assert trace is not None
    assert trace.times.size == 4
    assert np.all(np.diff(trace.times) > 0)
    # no iteration at all leaves no trace to carry: refused up front
    for max_iters in (0, -1):
        with pytest.raises(ValidationError, match="max_iters"):
            compute_qsd(chain, max_iters=max_iters)


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_logistic(1.0, 1.0, 1.0, 3),
        lambda: build_logistic(1.0, 1.0, 1.0, 48),
        lambda: build_logistic(1.0, 1.0, 1.0, 64),
        lambda: build_logistic(1.0, 1.0, 1.0, 256),
        lambda: build_logistic(1.0, 1.0, 1.0, 16, "kill"),
        lambda: catastrophe_chain(128),
        lambda: build_from_entries([(1, 2, 1.0), (2, 1, 2.0), (2, 3, 1.0), (3, 2, 1.0)], 4),
    ],
    ids=["logistic3", "logistic48", "logistic64", "logistic256", "kill16", "catastrophe128", "loss_free"],
)
def test_qsd_matches_power_iteration_oracle(make):
    chain = make()
    res = compute_qsd(chain)
    rho, decay = power_iteration_qsd(chain)
    assert tv_distance(res.qsd, rho) <= 1e-10
    assert res.decay_rate == pytest.approx(decay, rel=1e-10)


def test_qsd_of_loss_free_window_is_stationary_law():
    chain = build_from_entries([(1, 2, 1.0), (2, 1, 2.0), (2, 3, 1.0), (3, 2, 1.0)], 4)
    res = compute_qsd(chain, tol=1e-13)
    assert res.decay_rate == 0.0
    assert np.max(np.abs(res.qsd.weights - [0.5, 0.25, 0.25])) < 1e-12


def test_check_qsd_flags_perturbation():
    chain = build_logistic(1.0, 1.0, 1.0, 40)
    res = compute_qsd(chain, tol=1e-13)
    w = res.qsd.weights.copy()
    w[0] += 0.05
    w /= w.sum()
    ok, worst = check_qsd(chain, w, [1.0, 2.0], tol=1e-6)
    assert not ok and worst > 1e-3


@pytest.mark.parametrize("grid", [[], [0.0], [0.0, 0.0]])
def test_check_qsd_needs_a_positive_time(grid):
    # at time 0 every law is its own evolution, so a grid without a
    # positive time would pass a point mass as a QSD
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    with pytest.raises(ValidationError, match="needs a time grid with a time > 0"):
        check_qsd(chain, DistributionOnStates.delta(3, 16), grid, tol=1e-6)


def test_negative_mass_is_named_negative_not_null():
    # (3, 1, 0.02) is nearly closed: the inverse iteration's pivots
    # cancel to rounding on 256 states and the iterate's mass goes
    # negative (ROADMAP item 11)
    with pytest.raises(ComputationError, match=r"surviving mass -\S+ is negative"):
        compute_qsd(build_logistic(3.0, 1.0, 0.02, 256))
    with pytest.raises(ComputationError, match=r"mass -1\.000e\+00 is negative"):
        engine._normalize_mass(np.array([0.5, -1.5]), "test")
    # a tiny positive mass keeps the null message
    with pytest.raises(ComputationError, match=r"mass 1\.000e-310 is numerically null"):
        engine._normalize_mass(np.array([1e-310]), "test")


def test_qsd_auto_grows_window():
    res = compute_qsd_auto(build_logistic(1.0, 1.0, 1.0, 8), tol=1e-10)
    assert res.truncation_n >= 32
    assert res.top_mass < 1e-12
    assert res.eigen_residual < 1e-10


def test_qsd_auto_needs_parametric_chain():
    with pytest.raises(ValidationError):
        compute_qsd_auto(catastrophe_chain())


# -- long-time conditional behaviour ------------------------------------------


def test_yaglom_limit_agrees_with_qsd():
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    res = compute_qsd(chain, tol=1e-13)
    lim, trace = yaglom_limit(chain, DistributionOnStates.delta(1, 64), tol=1e-10)
    assert tv_distance(lim, res.qsd) < 1e-8
    assert trace.tv_to_limit[-1] == 0.0
    assert trace.times.size >= 3


def test_yaglom_limit_start_independent():
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    a, _ = yaglom_limit(chain, DistributionOnStates.delta(1, 64), tol=1e-11)
    b, _ = yaglom_limit(chain, DistributionOnStates.delta(40, 64), tol=1e-11)
    assert tv_distance(a, b) < 1e-9


def test_yaglom_limit_skips_the_cross_check_on_a_reducible_window():
    # a pure-death window: mass only moves down, so the transient states
    # are not strongly connected and compute_qsd refuses the window; the
    # conditioned law from 5 still settles on state 1
    chain = build_logistic(0.0, 1.0, 0.1, 12)
    with pytest.raises(ValidationError, match="not strongly connected"):
        compute_qsd(chain)
    lim, _ = yaglom_limit(chain, DistributionOnStates.delta(5, 12))
    assert lim.weights[0] == 1.0
    assert lim.weights[1:].max() < 1e-60


def test_yaglom_nonconvergence_raises():
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    with pytest.raises(NonConvergenceError):
        yaglom_limit(chain, DistributionOnStates.delta(1, 64), tol=1e-12, max_steps=2)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10])
def test_tolerances_must_be_positive(tol):
    # NaN fails every comparison: each entry asks tol > 0, so NaN is
    # refused at once instead of iterating to max_iters or null mass
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    rho = DistributionOnStates.uniform(16)
    calls = [
        lambda: compute_qsd(chain, tol=tol),
        lambda: compute_qsd_auto(BirthDeathSpec.logistic(1.0, 1.0, 1.0), tol=tol),
        lambda: yaglom_limit(chain, DistributionOnStates.delta(1, 16), tol=tol),
        lambda: check_qsd(chain, rho, [1.0], tol=tol),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="tol must be > 0"):
            call()


@pytest.mark.parametrize("max_steps", [0, -1])
def test_yaglom_rejects_an_empty_grid(max_steps):
    # an empty walk has no law to report, not even a non-convergence trace
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    with pytest.raises(ValidationError, match="max_steps"):
        yaglom_limit(chain, DistributionOnStates.delta(1, 16), max_steps=max_steps)


# -- decay tables and grids ----------------------------------------------------


def test_geometric_grid_shape():
    g = geometric_grid(0.5, 10.0, ratio=2.0)
    assert g[0] == 0.5 and g[-1] == 10.0
    assert all(b > a for a, b in zip(g, g[1:]))
    with pytest.raises(ValidationError):
        geometric_grid(0.0, 1.0)
    with pytest.raises(ValidationError):
        geometric_grid(1.0, 2.0, ratio=1.0)
    with pytest.raises(ValidationError):
        geometric_grid(1.0, 10.0, ratio=math.nan)
    with pytest.raises(ValidationError):
        geometric_grid(1.0, math.inf)


def test_decay_table_without_certificate():
    chain = build_logistic(1.0, 1.0, 1.0, 40)
    mu = DistributionOnStates.delta(1, 40)
    nu = DistributionOnStates.delta(20, 40)
    rows = decay_table(chain, mu, nu, [0.5, 1.0, 2.0, 4.0, 8.0])
    assert len(rows) == 5
    for r in rows:
        assert 0.0 <= r.tv_pair <= 2.0
        assert math.isnan(r.certified_bound)
    assert rows[-1].tv_pair < rows[0].tv_pair
    assert rows[-1].tv_mu_to_qsd < 1e-6


_GRID_WALKS = {
    "check_qsd": lambda chain, grid: check_qsd(chain, compute_qsd(chain).qsd, grid, 1e-6),
    "decay_table": lambda chain, grid: decay_table(
        chain, DistributionOnStates.delta(1, chain.n_states),
        DistributionOnStates.delta(3, chain.n_states), grid,
    ),
    "check_ratio_inequality": lambda chain, grid: check_ratio_inequality(
        chain, certify(chain, K=[1], x0=1), grid
    ),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
@pytest.mark.parametrize("walk", _GRID_WALKS)
def test_time_grids_reject_nan_inf_and_negative_times(walk, bad):
    # a bad time alone is named as bad, not as a grid without a time > 0
    chain = catastrophe_chain()
    for grid in ([1.0, bad, 2.0], [bad], [0.0, bad]):
        with pytest.raises(ValidationError, match=f"time must be finite and >= 0, got {bad}"):
            _GRID_WALKS[walk](chain, grid)


def test_csv_writers(tmp_path):
    chain = build_logistic(1.0, 1.0, 1.0, 20)
    res = compute_qsd(chain)
    p = tmp_path / "qsd.csv"
    distribution_to_csv(res.qsd, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "state,weight"
    assert len(lines) == 1 + chain.n_transient
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-12)

    rows = decay_table(chain, DistributionOnStates.delta(1, 20), DistributionOnStates.delta(5, 20), [1.0, 2.0])
    d = tmp_path / "decay.csv"
    decay_to_csv(rows, d)
    got = d.read_text().strip().splitlines()
    assert got[0].startswith("t,") and len(got) == 3


# -- the walk's step propagator ------------------------------------------------


def series_walk(chain, v, times, side):
    """The walk as one series per grid step, each column rescaled to
    mass 1 on its own: the route _walk takes where the propagator does
    not pay, in the same arithmetic."""
    evolve = evolve_measure if side == "measure" else evolve_function
    t_cur = 0.0
    for t in sorted(times):
        v = evolve(chain, v, t - t_cur)
        t_cur = t
        v = v / v.sum() if v.ndim == 1 else np.column_stack([c / c.sum() for c in v.T])
        yield t, v


def expm_walk(chain, v, times, side):
    """The walk through dense matrix exponentials."""
    Q = chain.sub_generator.toarray()
    t_cur = 0.0
    for t in sorted(times):
        E = expm(Q * (t - t_cur))
        t_cur = t
        v = E.T @ v if side == "measure" else E @ v
        yield t, v / v.sum(axis=0)


@contextmanager
def propagator_builds():
    """Record the (dt, side, k) of every step propagator _walk builds."""
    builds = []
    with pytest.MonkeyPatch.context() as mp:
        def spy(chain, dt, side, k):
            builds.append((dt, side, k))
            return _step_propagator(chain, dt, side, k)

        mp.setattr(engine, "_step_propagator", spy)
        yield builds


def _rel_max(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([33, 65, 81]),
    st.sampled_from(["reflect", "kill"]),
    st.sampled_from(["measure", "function"]),
    st.sampled_from(["1d", 1, 3]),
    st.sampled_from(["repeat", "distinct"]),
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_walk_propagator_matches_series_and_expm(
    n_states, boundary, side, kind, grid, eighths, points, with_zero, seed
):
    # steps are multiples of 1/8, so a repeated step is the same float
    # each time; the cost estimate is told that each step length repeats
    # 10**9 times, so every step of nonzero length takes the propagator
    chain = truncate(BirthDeathSpec.logistic(1.0, 1.0, 0.25), n_states, boundary)
    v = _layout(np.random.default_rng(seed), chain.n_transient, kind)
    dt = eighths / 8
    if grid == "repeat":
        times = [dt * i for i in range(1, points + 1)]
    else:
        times = [dt * (2**i + i) for i in range(points)]
    if with_zero:
        times = [0.0, 0.0, *times[::-1]]
    with propagator_builds() as builds, pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            engine, "_walk_squarings",
            lambda chain, dt, steps, m: _walk_squarings(chain, dt, 10**9, m),
        )
        got = list(_walk(chain, v, times, side))
    # one propagator per distinct nonzero step length
    lengths = {b - a for a, b in zip([0.0, *sorted(times)], sorted(times))} - {0.0}
    assert sorted(b[0] for b in builds) == sorted(lengths)
    assert all(b[1] == side for b in builds)
    for (t, a), (_, b), (_, c) in zip(
        got, series_walk(chain, v, times, side), expm_walk(chain, v, times, side)
    ):
        assert a.shape == v.shape
        assert _rel_max(a, b) <= 1e-12
        assert _rel_max(a, c) <= 1e-12


def uniform_loss_chain(n: int, loss: float):
    """A birth-death window whose every state is absorbed at rate loss,
    so each state survives to t with probability exp(-loss * t)."""
    entries = []
    for x in range(1, n + 1):
        entries.append((x, 0, loss))
        if x < n:
            entries.append((x, x + 1, 1.0 * x))
        if x > 1:
            entries.append((x, x - 1, 1.0 * x + 0.05 * x * x))
    return build_from_entries(entries, n + 1)


@pytest.mark.parametrize("side", ["measure", "function"])
@pytest.mark.parametrize("dt", [1.0, 4.0, 16.0])
@pytest.mark.parametrize("n", [40, 64])
def test_step_propagator_mass_deficit_is_at_most_series_tol(n, dt, side):
    # the 2**k factors of P(dt) each lose at most SERIES_TOL / 2**k of
    # mass to truncation.  Rounding moves each factor's mass by about
    # L * dt / 2**k eps, as for any series of that many terms, and the
    # squarings carry it along 2**k times: L * dt * eps in all.
    chain = uniform_loss_chain(n, 0.5)
    k = _walk_squarings(chain, dt, 1000, 1)  # a thousand steps pay for it
    assert k is not None and k >= 4
    P = _step_propagator(chain, dt, side, k).toarray()
    assert P.shape == (n, n) and P.min() >= 0.0
    # input mass e_j comes out as column j on the measure side (its law)
    # and as row j on the function side (its survival function)
    mass = P.sum(axis=0) if side == "measure" else P.sum(axis=1)
    exact = math.exp(-0.5 * dt)
    rounding = chain.uniformization_rate() * dt * np.finfo(float).eps
    deficit = (exact - mass) / exact
    assert deficit.max() <= SERIES_TOL + rounding
    assert deficit.min() >= -rounding


def test_walk_over_the_memory_cap_takes_the_series_route():
    # a dense propagator is built only while its n*n entries fit the cap
    chain = build_logistic(1.0, 1.0, 1.0, 65)
    n = chain.n_transient
    v = np.zeros((n, 2))
    v[0, 0] = v[39, 1] = 1.0
    times = [float(t) for t in range(1, 13)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_BLOCK_ENTRIES", n * n - 1)
        with propagator_builds() as builds:
            got = list(_walk(chain, v, times, "measure"))
        assert not builds
        for (_, a), (_, b) in zip(got, series_walk(chain, v, times, "measure")):
            assert np.array_equal(a, b)
        mp.setattr(engine, "_BLOCK_ENTRIES", n * n)
        with propagator_builds() as builds:
            list(_walk(chain, v, times, "measure"))
        assert len(builds) == 1
    # at the real cap: 1024 transient states fit, 1025 do not
    assert _walk_squarings(build_logistic(1.0, 1.0, 1.0, 1025), 1.0, 12, 2) is not None
    assert _walk_squarings(build_logistic(1.0, 1.0, 1.0, 1026), 1.0, 12, 2) is None


def test_walk_keeps_the_series_where_it_is_cheaper():
    # one short step on a small window: a few series terms beat building
    # and squaring an n x n block; a zero step evolves nothing
    chain = build_logistic(1.0, 1.0, 1.0, 17)
    assert _walk_squarings(chain, 0.01, 1, 1) is None
    assert _walk_squarings(chain, 0.0, 100, 1) is None
