"""Finite-window models of continuous-time Markov chains absorbed at state 0.

The state space is the window {0, 1, ..., N} with 0 absorbing and
1..N transient.  A chain is stored as its sub-generator on the transient
block (sparse, row-major) together with the absorption column Q(x, 0)
and, in "kill" boundary mode, the rate lost upward through the top of
the window.  Chains built from a parametric birth-death family remember
their generating rule so the window can be regrown on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np
from scipy import sparse

from .errors import ValidationError

REFLECT = "reflect"
KILL = "kill"

_BOUNDARY_MODES = (REFLECT, KILL)

# Relative slack allowed when checking that explicit rate tables are
# conservative (row sums of the full generator vanish).
_ROW_SUM_RTOL = 1e-12


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
            if not np.all(np.isfinite(w)):
                raise ValidationError("distribution weights must be finite")
            if np.any(w < 0):
                raise ValidationError("distribution weights must be >= 0")
            total = float(w.sum())
            if not (total > 0) or not math.isfinite(total):
                raise ValidationError("distribution weights must have positive finite total mass")
            w = w / total
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
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValidationError(f"{what} weights must be finite and >= 0")
    total = float(weights.sum())
    if not (total > 0 and math.isfinite(total)):
        raise ValidationError(f"{what} weights must have positive finite total mass")
    return weights


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
    """

    def __init__(
        self,
        *,
        n_states: int,
        boundary_mode: str,
        off_diagonal: Mapping[tuple[int, int], float],
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

        rows, cols, vals = [], [], []
        out_rate = absorb + kill
        for (x, y), r in off_diagonal.items():
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

        diag = -out_rate
        rows.extend(range(n))
        cols.extend(range(n))
        vals.extend(diag)
        self.sub_generator = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(n, n), dtype=np.float64
        )
        self.sub_generator.sum_duplicates()
        self.absorption_rates = absorb
        self.kill_rates = kill
        self._off_diagonal = {k: float(v) for k, v in off_diagonal.items() if float(v) != 0.0}
        self._cache: dict = {}

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
        return self._off_diagonal.get((x, y), 0.0)

    def exit_rate(self, x: int) -> float:
        """Total outflow rate -Q(x, x), truncation killing included."""
        return -float(self.sub_generator[x - 1, x - 1])

    def total_exit_rates(self) -> np.ndarray:
        return -self.sub_generator.diagonal()

    def uniformization_rate(self) -> float:
        lam = float(np.max(self.total_exit_rates()))
        return lam

    # -- derived chains -------------------------------------------------

    def as_reflecting(self) -> "AbsorbedChain":
        """Same window with all truncation killing dropped."""
        if self.boundary_mode == REFLECT and not np.any(self.kill_rates):
            return self
        return AbsorbedChain(
            n_states=self.n_states,
            boundary_mode=REFLECT,
            off_diagonal=self._off_diagonal,
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
    """
    _check_boundary_mode(boundary_mode)
    if n_states < 2:
        raise ValidationError("window needs at least 2 states")
    n = n_states - 1
    off: dict[tuple[int, int], float] = {}
    absorb = np.zeros(n)
    kill = np.zeros(n)
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
            elif boundary_mode == KILL:
                kill[n - 1] = up
            # reflect: drop the top birth rate
    return AbsorbedChain(
        n_states=n_states,
        boundary_mode=boundary_mode,
        off_diagonal=off,
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
    killing.  Rates out of state 0 are rejected: 0 is absorbing.
    """
    _check_boundary_mode(boundary_mode)
    if n_states < 2:
        raise ValidationError("window needs at least 2 states")
    n = n_states - 1
    off: dict[tuple[int, int], float] = {}
    absorb = np.zeros(n)
    kill = np.zeros(n)
    for x, y, r in entries:
        x, y = int(x), int(y)
        r = float(r)
        if x == 0:
            raise ValidationError(f"state 0 is absorbing; rate ({x} -> {y}) is not allowed")
        if not 1 <= x <= n:
            raise ValidationError(f"source state {x} outside window 1..{n}")
        if x == y:
            raise ValidationError(f"self-rate ({x} -> {x}) is not allowed")
        if not math.isfinite(r) or r < 0:
            raise ValidationError(f"rate ({x} -> {y}) must be finite and >= 0, got {r}")
        if y == 0:
            absorb[x - 1] += r
        elif 1 <= y <= n:
            off[(x, y)] = off.get((x, y), 0.0) + r
        elif boundary_mode == KILL:
            kill[x - 1] += r
        else:
            raise ValidationError(
                f"target state {y} lies above the window top {n}; "
                f"use KILL boundary mode or enlarge the window"
            )
    return AbsorbedChain(
        n_states=n_states,
        boundary_mode=boundary_mode,
        off_diagonal=off,
        absorption_rates=absorb,
        kill_rates=kill,
        source_spec=None,
    )


# -- plain-text chain files ----------------------------------------------
#
# Grammar (one directive per line, '#' starts a comment):
#   states N
#   boundary reflect|kill
#   rate FROM TO VALUE
#   logistic B D C
#
# 'states' is required.  'logistic' generates the full rate table and may
# not be mixed with explicit 'rate' lines.


def parse_chain_text(text: str, *, name: str = "<string>") -> AbsorbedChain:
    n_states = None
    boundary = REFLECT
    entries: list[tuple[int, int, float]] = []
    logistic_params = None

    def fail(lineno: int, msg: str):
        raise ValidationError(f"{name}:{lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0].lower()
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
        elif kw == "rate":
            if len(parts) != 4:
                fail(lineno, "usage: rate FROM TO VALUE")
            try:
                x, y = int(parts[1]), int(parts[2])
                r = float(parts[3])
            except ValueError:
                fail(lineno, f"bad rate entry {line!r}")
            entries.append((x, y, r))
        elif kw == "logistic":
            if len(parts) != 4:
                fail(lineno, "usage: logistic B D C")
            try:
                logistic_params = tuple(float(p) for p in parts[1:4])
            except ValueError:
                fail(lineno, f"bad logistic parameters {line!r}")
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
        return build_from_entries(entries, n_states, boundary)
    except ValidationError as e:
        raise ValidationError(f"{name}: {e}") from None


def load_chain_file(path) -> AbsorbedChain:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_chain_text(fh.read(), name=str(path))
