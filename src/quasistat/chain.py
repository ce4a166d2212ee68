"""Finite-window models of continuous-time Markov chains absorbed at state 0.

The state space is the window {0, 1, ..., N} with 0 absorbing and
1..N transient.  A chain is built from its jumps between transient
states, given as three arrays (source, target, rate), together with the
absorption column Q(x, 0) and, in "kill" boundary mode, the rate lost
upward through the top of the window; it is stored as its sub-generator
on the transient block (sparse, row-major).  Chains built from a
parametric birth-death family remember their generating rule so the
window can be regrown on demand.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy import sparse

from .errors import ValidationError
from .textio import read_text

REFLECT = "reflect"
KILL = "kill"

_BOUNDARY_MODES = (REFLECT, KILL)

# Relative slack allowed when checking that explicit rate tables are
# conservative (row sums of the full generator vanish).
_ROW_SUM_RTOL = 1e-12

# The first check of every rate table: a state number that is not an
# integer is named as given, before any other check reads it.
_NOT_INTEGERS = "state numbers of rate ({x} -> {y}) must be integers"


def _check_boundary_mode(mode: str) -> str:
    if mode not in _BOUNDARY_MODES:
        raise ValidationError(
            f"boundary mode must be one of {_BOUNDARY_MODES}, got {mode!r}"
        )
    return mode


@dataclass(frozen=True)
class BirthDeathSpec:
    """Parametric birth-death jump rates on {0, 1, 2, ...}.

    ``birth_rate(x)`` and ``death_rate(x)`` give the rates x -> x+1 and
    x -> x-1 for x >= 1; state 0 is absorbing so both are ignored there.
    They are called on single levels (rates_at) and on float arrays of
    levels (rates_on), so they must work elementwise.
    ``params`` is set for the logistic family and enables closed-form
    reasoning (e.g. unbounded-rate detection) downstream.
    """

    birth_rate: Callable[[int], float]
    death_rate: Callable[[int], float]
    params: tuple[float, float, float] | None = None

    @classmethod
    def logistic(cls, b: float, d: float, c: float) -> "BirthDeathSpec":
        """Rates x -> x+1 at b*x and x -> x-1 at d*x + c*x*(x-1)."""
        for name, v in (("b", b), ("d", d), ("c", c)):
            if not math.isfinite(v) or v < 0:
                raise ValidationError(f"logistic parameter {name} must be finite and >= 0, got {v}")
        if d == 0 and c == 0:
            raise ValidationError("logistic chain needs d > 0 or c > 0, otherwise state 0 is unreachable")
        return cls(
            birth_rate=lambda x: b * x,
            death_rate=lambda x: d * x + c * x * (x - 1),
            params=(float(b), float(d), float(c)),
        )

    def rates_at(self, x: int) -> tuple[float, float]:
        if x < 1:
            raise ValidationError(f"birth-death rates are defined for x >= 1, got {x}")
        up = float(self.birth_rate(x))
        down = float(self.death_rate(x))
        for label, v in (("birth", up), ("death", down)):
            if not math.isfinite(v) or v < 0:
                raise ValidationError(f"{label} rate at x={x} must be finite and >= 0, got {v}")
        return up, down

    def rates_on(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Birth and death rates on the levels lo..hi, as float arrays.

        The rate callables are evaluated once on the float array of those
        levels (a callable returning a scalar is broadcast), so they must
        be elementwise; the logistic lambdas are, and give the same floats
        as rates_at.  The checks are rates_at's, and a failure names the
        lowest offending level, the one an upward rates_at walk meets first.
        """
        if lo < 1:
            raise ValidationError(f"birth-death rates are defined for x >= 1, got {lo}")
        xs = np.arange(lo, hi + 1, dtype=np.float64)
        up = np.broadcast_to(np.asarray(self.birth_rate(xs), dtype=np.float64), xs.shape)
        down = np.broadcast_to(np.asarray(self.death_rate(xs), dtype=np.float64), xs.shape)
        bad_up = ~np.isfinite(up) | (up < 0)
        bad_down = ~np.isfinite(down) | (down < 0)
        bad = bad_up | bad_down
        if bad.any():
            i = int(np.argmax(bad))
            label, v = ("birth", up[i]) if bad_up[i] else ("death", down[i])
            raise ValidationError(
                f"{label} rate at x={lo + i} must be finite and >= 0, got {float(v)}"
            )
        return up, down


def _weights_total(w: np.ndarray, what: str) -> float:
    """Total of the weights w, checked finite and >= 0 with a positive
    finite total; what names them in the errors."""
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValidationError(f"{what} weights must be finite and >= 0")
    total = float(w.sum())
    if not (total > 0 and math.isfinite(total)):
        raise ValidationError(f"{what} weights must have positive finite total mass")
    return total


class DistributionOnStates:
    """Probability distribution over the transient states 1..N of a window.

    Weights are indexed so that ``weights[i]`` is the mass on state i+1.
    Construction validates and normalizes; zero or non-finite total mass
    is rejected.
    """

    __slots__ = ("weights",)

    def __init__(self, weights, *, _skip_checks: bool = False):
        w = np.asarray(weights, dtype=np.float64)
        if not _skip_checks:
            if w.ndim != 1 or w.size == 0:
                raise ValidationError("distribution weights must be a non-empty 1-d array")
            w = w / _weights_total(w, "distribution")
        self.weights = w

    @classmethod
    def delta(cls, state: int, n_states: int) -> "DistributionOnStates":
        n_transient = n_states - 1
        if not 1 <= state <= n_transient:
            raise ValidationError(
                f"delta state must lie in 1..{n_transient} for a window of {n_states} states, got {state}"
            )
        w = np.zeros(n_transient)
        w[state - 1] = 1.0
        return cls(w, _skip_checks=True)

    @classmethod
    def uniform(cls, n_states: int) -> "DistributionOnStates":
        n_transient = n_states - 1
        if n_transient < 1:
            raise ValidationError("window must contain at least one transient state")
        return cls(np.full(n_transient, 1.0 / n_transient), _skip_checks=True)

    @property
    def n_transient(self) -> int:
        return self.weights.size

    @property
    def n_states(self) -> int:
        return self.weights.size + 1

    def mass_on(self, state: int) -> float:
        if not 1 <= state <= self.n_transient:
            return 0.0
        return float(self.weights[state - 1])

    def support(self) -> list[int]:
        return [int(i) + 1 for i in np.nonzero(self.weights)[0]]

    def embed(self, n_states: int) -> "DistributionOnStates":
        """Re-express on a wider window by zero-padding the tail."""
        if n_states - 1 < self.n_transient:
            raise ValidationError("cannot embed a distribution into a narrower window")
        w = np.zeros(n_states - 1)
        w[: self.n_transient] = self.weights
        return DistributionOnStates(w, _skip_checks=True)

    def __repr__(self) -> str:
        return f"DistributionOnStates(n_states={self.n_states})"


def law_weights(chain: AbsorbedChain, mu, what: str = "law") -> np.ndarray:
    """Weights over states 1..n_transient of a law on the window.

    mu is a DistributionOnStates of the window or a raw weight array
    (finite, non-negative, positive finite total; it need not sum to 1,
    and comes back as given).  what names the law in the errors.
    """
    if isinstance(mu, DistributionOnStates):
        if mu.n_states != chain.n_states:
            raise ValidationError(
                f"{what} lives on {mu.n_states} states but the window has {chain.n_states}"
            )
        return mu.weights
    weights = np.asarray(mu, dtype=np.float64)
    if weights.shape != (chain.n_transient,):
        raise ValidationError(f"{what} length does not match the window")
    _weights_total(weights, what)
    return weights


def _is_integer(v) -> bool:
    """Whether a state number as given is an integer: an int, or an
    integral float such as 2.0, but not a bool."""
    if isinstance(v, (bool, np.bool_)):
        return False
    if isinstance(v, numbers.Integral):
        return True
    return isinstance(v, numbers.Real) and math.isfinite(v) and float(v).is_integer()


def _state_column(given) -> tuple[np.ndarray, np.ndarray]:
    """The state numbers given, as an array, and the mask of those that are
    not integers: fractions, NaN, inf, bools and non-numbers.

    A numeric array is checked as a whole, and so is a sequence of plain
    ints, such as a chain file gives, by its types alone: read entry by
    entry, the checks would double the parse time of a large chain
    file.  Anything else is read entry by entry, since numpy reads a
    bool among ints as 0 or 1; its entries that are not integers read
    as 0 in the array, so the checks that compare state numbers run on
    numbers only.
    """
    if isinstance(given, np.ndarray) and given.dtype.kind in "iuf":
        return given, ~np.isfinite(given) | (given != np.trunc(given))
    if set(map(type, given)) <= {int}:
        return np.array(given), np.zeros(len(given), dtype=bool)
    ok = [_is_integer(v) for v in given]
    values = given if all(ok) else [v if k else 0 for v, k in zip(given, ok)]
    return np.array(values), ~np.array(ok, dtype=bool)


def _refuse_first_bad(checks: list, columns: tuple, n: int) -> None:
    """Raise ValidationError for the first entry, in the given order, that
    fails any of checks, with the message of the first check it fails.

    checks is an ordered list of (mask, message) pairs, mask True on the
    entries that fail the check.  columns holds the (from, to, rate) of
    each entry as given, and a message is a template over the entry's x,
    y and r and the window top n.  x and y read as Python ints when they
    are integers and as given otherwise (1.9, not 1), a string quoted
    ('3', not 3) so that it does not read as the number; r as a float.
    """
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        message = next(message for mask, message in checks if mask[i])
        x, y = (
            int(v) if _is_integer(v) else repr(str(v)) if isinstance(v, str) else v
            for v in (columns[0][i], columns[1][i])
        )
        raise ValidationError(message.format(x=x, y=y, r=float(columns[2][i]), n=n))


class AbsorbedChain:
    """An absorbed CTMC restricted to the window {0..N}.

    Attributes
    ----------
    n_states : total number of window states including the absorbing 0.
    boundary_mode : REFLECT (upward rate at N dropped) or KILL (upward
        rate at N counted as additional killing).
    sub_generator : CSR matrix of shape (N, N), the generator restricted
        to transient states, diagonal included.
    absorption_rates : array of Q(x, 0) for x = 1..N.
    kill_rates : extra killing per state from truncation (zero except
        possibly at the top row in KILL mode, or as built).
    source_spec : the BirthDeathSpec this window was cut from, if any.

    jumps is (src, dst, rate): three equal-length arrays, one entry per
    jump src -> dst between transient states.  State numbers must be
    integers; an integral float such as 2.0 counts as one, a bool does
    not.  Zero rates are dropped.
    Each exit rate sums absorption, killing and the row's jump rates in
    the given order; a pair given twice has its rates summed in the
    sub-generator.
    """

    def __init__(
        self,
        *,
        n_states: int,
        boundary_mode: str,
        jumps: tuple,
        absorption_rates,
        kill_rates=None,
        source_spec: BirthDeathSpec | None = None,
    ):
        if n_states < 2:
            raise ValidationError("window needs at least 2 states (the absorbing 0 plus one transient)")
        self.n_states = int(n_states)
        self.boundary_mode = _check_boundary_mode(boundary_mode)
        self.source_spec = source_spec

        n = self.n_transient
        absorb = np.asarray(absorption_rates, dtype=np.float64)
        if absorb.shape != (n,):
            raise ValidationError(f"absorption rate vector must have length {n}")
        if kill_rates is None:
            kill = np.zeros(n)
        else:
            kill = np.asarray(kill_rates, dtype=np.float64)
            if kill.shape != (n,):
                raise ValidationError(f"kill rate vector must have length {n}")
        for label, v in (("absorption", absorb), ("kill", kill)):
            if not np.all(np.isfinite(v)) or np.any(v < 0):
                raise ValidationError(f"{label} rates must be finite and >= 0")

        (src, src_bad), (dst, dst_bad) = _state_column(jumps[0]), _state_column(jumps[1])
        rate = np.asarray(jumps[2], dtype=np.float64)
        outside = (src < 1) | (src > n) | (dst < 1) | (dst > n)
        _refuse_first_bad([
            (src_bad | dst_bad, _NOT_INTEGERS),
            (outside, "off-diagonal rate ({x} -> {y}) falls outside transient states 1..{n}"),
            (src == dst, "diagonal entry ({x} -> {x}) may not be specified directly"),
            (~np.isfinite(rate) | (rate < 0), "rate ({x} -> {y}) must be finite and >= 0, got {r}"),
        ], (jumps[0], jumps[1], rate), n)
        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        keep = rate != 0.0
        src, dst, rate = src[keep], dst[keep], rate[keep]
        out_rate = absorb + kill
        np.add.at(out_rate, src - 1, rate)
        diag = np.arange(n)
        self.sub_generator = sparse.csr_matrix(
            (
                np.concatenate((rate, -out_rate)),
                (np.concatenate((src - 1, diag)), np.concatenate((dst - 1, diag))),
            ),
            shape=(n, n),
            dtype=np.float64,
        )
        self.sub_generator.sum_duplicates()
        self.absorption_rates = absorb
        self.kill_rates = kill
        self._jumps = (src, dst, rate)

    # -- basic geometry -------------------------------------------------

    @property
    def n_transient(self) -> int:
        return self.n_states - 1

    @property
    def transient_states(self) -> range:
        return range(1, self.n_states)

    def rate(self, x: int, y: int) -> float:
        """Jump rate Q(x, y) for x != y within the window (y = 0 allowed)."""
        if x == y:
            raise ValidationError("use exit_rate/diagonal for x == y")
        if y == 0:
            return float(self.absorption_rates[x - 1])
        if not (1 <= x <= self.n_transient and 1 <= y <= self.n_transient):
            return 0.0
        return float(self.sub_generator[x - 1, y - 1])

    def exit_rate(self, x: int) -> float:
        """Total outflow rate -Q(x, x), truncation killing included."""
        return -float(self.sub_generator[x - 1, x - 1])

    def total_exit_rates(self) -> np.ndarray:
        return -self.sub_generator.diagonal()

    def uniformization_rate(self) -> float:
        return float(np.max(self.total_exit_rates()))

    @functools.cached_property
    def uniformized(self) -> tuple[float, sparse.csr_matrix]:
        """(L, M): the uniformization rate and the sub-stochastic step
        M = I + Q/L in CSR form (M = I when L = 0), built on first use.

        Functions evolve through M and measures through its transpose,
        read from the same arrays: M's CSR arrays are the CSC layout of M^T.
        """
        lam = self.uniformization_rate()
        return lam, sparse.eye(self.n_transient, format="csr") + self.sub_generator / (lam or 1.0)

    # -- derived chains -------------------------------------------------

    def as_reflecting(self) -> "AbsorbedChain":
        """Same window with all truncation killing dropped."""
        if self.boundary_mode == REFLECT and not np.any(self.kill_rates):
            return self
        return AbsorbedChain(
            n_states=self.n_states,
            boundary_mode=REFLECT,
            jumps=self._jumps,
            absorption_rates=self.absorption_rates,
            kill_rates=None,
            source_spec=self.source_spec,
        )

    def regrow(self, n_states: int, boundary_mode: str | None = None) -> "AbsorbedChain":
        """Rebuild from the generating rule on a different window size."""
        if self.source_spec is None:
            raise ValidationError("chain has no generating rule; cannot resize its window")
        return truncate(
            self.source_spec,
            n_states,
            boundary_mode or self.boundary_mode,
        )

    # -- validation and reporting ----------------------------------------

    def validate_conservation(self) -> None:
        """Check full-generator row sums vanish up to rounding.

        The full row for x sums sub_generator row + absorption + kill; by
        construction this is exact, so the check guards against external
        mutation of the arrays.
        """
        row_sums = np.asarray(self.sub_generator.sum(axis=1)).ravel()
        resid = row_sums + self.absorption_rates + self.kill_rates
        scale = np.maximum(self.total_exit_rates(), 1.0)
        bad = np.abs(resid) > _ROW_SUM_RTOL * scale
        if np.any(bad):
            x = int(np.nonzero(bad)[0][0]) + 1
            raise ValidationError(
                f"generator row for state {x} does not conserve mass (residual {resid[x - 1]:.3e})"
            )

    def __repr__(self) -> str:
        return (
            f"AbsorbedChain(n_states={self.n_states}, boundary={self.boundary_mode!r}, "
            f"nnz={self.sub_generator.nnz})"
        )


# -- constructors --------------------------------------------------------


def truncate(spec: BirthDeathSpec, n_states: int, boundary_mode: str = REFLECT) -> AbsorbedChain:
    """Cut a parametric birth-death chain to the window {0..n_states-1}.

    REFLECT drops the birth rate at the top state (conservative in the
    window); KILL keeps it as extra killing, so computed survival mass is
    a lower bound for the untruncated chain.

    The rates of all levels come from one spec.rates_on call, so this
    relies on the rate callables working elementwise on arrays, as
    BirthDeathSpec documents.  The death at level 1 is the absorption
    rate; the jumps list the deaths above level 1, then the births below
    the top.
    """
    _check_boundary_mode(boundary_mode)
    if n_states < 2:
        raise ValidationError("window needs at least 2 states")
    n = n_states - 1
    up, down = spec.rates_on(1, n)
    levels = np.arange(1, n + 1)
    absorb = np.zeros(n)
    absorb[0] = down[0]
    kill = np.zeros(n)
    if boundary_mode == KILL:
        kill[n - 1] = up[n - 1]
    return AbsorbedChain(
        n_states=n_states,
        boundary_mode=boundary_mode,
        jumps=(
            np.concatenate((levels[1:], levels[:-1])),
            np.concatenate((levels[:-1], levels[1:])),
            np.concatenate((down[1:], up[:-1])),
        ),
        absorption_rates=absorb,
        kill_rates=kill,
        source_spec=spec,
    )


def build_logistic(b: float, d: float, c: float, n_states: int, boundary_mode: str = REFLECT) -> AbsorbedChain:
    return truncate(BirthDeathSpec.logistic(b, d, c), n_states, boundary_mode)


def build_from_entries(
    entries: Iterable[tuple[int, int, float]],
    n_states: int,
    boundary_mode: str = REFLECT,
) -> AbsorbedChain:
    """Assemble a chain from explicit (from, to, rate) triples.

    Multiple entries for the same pair accumulate.  Targets above the
    window top are allowed only in KILL mode, where they count as extra
    killing.  Rates out of state 0 and into negative states are rejected:
    0 is absorbing and the state space starts there.  State numbers must
    be integers; an integral float such as 2.0 counts as one, a bool
    does not.
    """
    _check_boundary_mode(boundary_mode)
    if n_states < 2:
        raise ValidationError("window needs at least 2 states")
    triples = [(x, y, float(r)) for x, y, r in entries]
    return _build_from_triples(triples, n_states, boundary_mode)


def _build_from_triples(triples: list, n_states: int, boundary_mode: str) -> AbsorbedChain:
    """build_from_entries on a list of (state, state, float) triples, the
    states as given, for a window of at least 2 states in a known
    boundary mode.

    The entries are checked as arrays, and the first bad one, in the
    given order, is named by the first check it fails.  Each sum then
    takes its rates in the given order, from 0.0, as a loop of ``+=``
    over the entries would: np.add.at adds its indices one after another.
    The jump pairs are listed in the order of their first entry.  A state
    number past int64 makes its array one of Python ints or of floats;
    either way each entry fails the same first check as its ints would,
    and the messages read the entries as given.
    """
    n = n_states - 1
    columns = tuple(zip(*triples)) or ((), (), ())
    (src, src_bad), (dst, dst_bad) = _state_column(columns[0]), _state_column(columns[1])
    rate = np.array(columns[2], dtype=np.float64)
    above = dst > n
    _refuse_first_bad([
        (src_bad | dst_bad, _NOT_INTEGERS),
        (src == 0, "state 0 is absorbing; rate ({x} -> {y}) is not allowed"),
        ((src < 1) | (src > n), "source state {x} outside window 1..{n}"),
        (src == dst, "self-rate ({x} -> {x}) is not allowed"),
        (dst < 0, "target state {y} of rate ({x} -> {y}) is negative"),
        (~np.isfinite(rate) | (rate < 0), "rate ({x} -> {y}) must be finite and >= 0, got {r}"),
        (above & (boundary_mode != KILL), "target state {y} lies above the window top {n}; "
         "use KILL boundary mode or enlarge the window"),
    ], columns, n)
    src = src.astype(np.int64)
    absorb = np.zeros(n)
    kill = np.zeros(n)
    into = dst == 0
    np.add.at(absorb, src[into] - 1, rate[into])
    np.add.at(kill, src[above] - 1, rate[above])
    inside = ~(into | above)
    x, y, r = src[inside], dst[inside].astype(np.int64), rate[inside]
    _, first, pair = np.unique(x * n_states + y, return_index=True, return_inverse=True)
    # rank[p]: the place of pair p among the pairs by first entry
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    total = np.zeros(order.size)
    np.add.at(total, rank[pair], r)
    return AbsorbedChain(
        n_states=n_states,
        boundary_mode=boundary_mode,
        jumps=(x[first[order]], y[first[order]], total),
        absorption_rates=absorb,
        kill_rates=kill,
        source_spec=None,
    )


# -- plain-text chain files ----------------------------------------------
#
# Grammar (one directive per line, '#' starts a comment, directive names
# in any case, fields split on whitespace, lines numbered as open()
# reads them):
#   states N
#   boundary reflect|kill
#   rate FROM TO VALUE
#   logistic B D C
#
# 'states' is required.  'states', 'boundary' and 'logistic' may each
# appear at most once.  'logistic' generates the full rate table and may
# not be mixed with explicit 'rate' lines.  Every line takes one path:
# its comment is cut and it is split once, and a 'rate' line's fields
# are converted and appended in one place; the entry table is checked
# as a whole afterwards, by build_from_entries' checks.


def parse_chain_text(text: str, *, name: str = "<string>") -> AbsorbedChain:
    n_states = None
    boundary = REFLECT
    entries: list[tuple[int, int, float]] = []
    logistic_params = None
    seen = set()

    def fail(lineno: int, msg: str):
        raise ValidationError(f"{name}:{lineno}: {msg}")

    # lines end at \n, \r\n or a lone \r, as open() reads them; any other
    # line-breaking character (FF, VT, U+2028, ...) is whitespace.  The
    # list of lines is not named, so it is freed before the entries are
    # checked.
    newlines = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(newlines.split("\n"), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        kw = parts[0].lower()
        if kw == "rate":
            if len(parts) != 4:
                fail(lineno, "usage: rate FROM TO VALUE")
            try:
                entries.append((int(parts[1]), int(parts[2]), float(parts[3])))
            except ValueError:
                fail(lineno, f"bad rate entry {line.strip()!r}")
            continue
        if kw in seen:
            fail(lineno, f"'{kw}' may appear only once")
        seen.add(kw)
        if kw == "states":
            if len(parts) != 2:
                fail(lineno, "usage: states N")
            try:
                n_states = int(parts[1])
            except ValueError:
                fail(lineno, f"bad state count {parts[1]!r}")
            if n_states < 2:
                fail(lineno, "states must be >= 2")
        elif kw == "boundary":
            if len(parts) != 2 or parts[1].lower() not in _BOUNDARY_MODES:
                fail(lineno, "usage: boundary reflect|kill")
            boundary = parts[1].lower()
        elif kw == "logistic":
            if len(parts) != 4:
                fail(lineno, "usage: logistic B D C")
            try:
                logistic_params = tuple(float(p) for p in parts[1:4])
            except ValueError:
                fail(lineno, f"bad logistic parameters {line.strip()!r}")
        else:
            fail(lineno, f"unknown directive {parts[0]!r}")

    if n_states is None:
        raise ValidationError(f"{name}: missing required 'states' directive")
    if logistic_params is not None and entries:
        raise ValidationError(f"{name}: 'logistic' and explicit 'rate' lines cannot be mixed")
    if logistic_params is not None:
        b, d, c = logistic_params
        return build_logistic(b, d, c, n_states, boundary)
    if not entries:
        raise ValidationError(f"{name}: no rates given")
    try:
        return _build_from_triples(entries, n_states, boundary)
    except ValidationError as e:
        raise ValidationError(f"{name}: {e}") from None


def load_chain_file(path) -> AbsorbedChain:
    return parse_chain_text(read_text(path), name=str(path))
