"""Certified constants for conditional mixing of absorbed chains.

The certificate consists of four constants tied to a core set K and an
anchor state x0 in K:

  c1  floor on the one-step conditional law reaching x0 from anywhere,
  c2  floor on survival-probability ratios inside K, uniform in time,
  c3, lambda0  occupancy floor: P_x0(X_t in K) >= c3 * exp(-lambda0 t),
  c4  ceiling on the exponential moment of the entry time into K (or
      absorption), at rate lambda0, from the worst state.

Together they give the contraction coefficient
gamma = c1*c2*c3 / (2*c4) and the mixing bound 2*(1-gamma)^floor(t) on
the TV distance between any two conditioned laws.  Each constant is
computed once, on the window it was asked for, and its label follows
from how it is built:

  certified_bound     proved by construction: c2's floor, the sojourn
                      c3 and a closed-form c4 handed in by the caller;
  empirical_estimate  a numerical value of the window itself: c1, the
                      absorption-rate c3 and the solved c4, which are
                      attained at states that move when the window
                      grows, so they say nothing proved about the chain
                      the window truncates.

A certificate computes only what gamma reads: c2, for instance, is its
proved floor alone.  Building one evolves a single function-side block
to t = 1 and nothing past it (_unit_step, a pure function of the
window, the anchor and the core): the anchor indicator, from which c1
and the absorption-rate c3 are read, the constant 1, from which c1 and
c2's survival floor are read, and the columns of c2's step floor.  On
a skip-free reflecting window that floor is one more column, the
indicator of the states at or above the core's top; on any other window
it is the indicator of every other core state.  The public compute_c1,
compute_c2 and compute_c3_lambda0 each evolve their own block, so a
constant asked for alone costs one evolution and the window keeps no
state between calls.

A constant that cannot be established raises CertificationError at the
point where it fails, its part naming the constant (c1, c2, c3 or c4);
no result carries a failure flag.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .chain import AbsorbedChain, _check_boundary_mode
from .engine import (
    _BLOCK_ENTRIES,
    _grid_past_zero,
    _walk,
    evolve_function,
    survival_vector,  # noqa: F401  re-exported: callers and tracers reach it here
)
from .errors import (
    CertificationError,
    DivergentMomentError,
    ValidationError,
)
from .textio import fmt, render_keyvalues

CERTIFIED = "certified_bound"
EMPIRICAL = "empirical_estimate"

SOJOURN = "sojourn"
ABSORPTION_RATE = "absorption_rate"
BEST = "best"


def _check_core(chain: AbsorbedChain, K, x0: int | None = None) -> tuple[int, ...]:
    """The sorted core set, checked to lie in the window and, when an
    anchor is given, to contain it."""
    core = tuple(sorted({int(x) for x in K}))
    if not core:
        raise ValidationError("core set K must be non-empty")
    if core[0] < 1 or core[-1] > chain.n_transient:
        raise ValidationError(
            f"core set {core} must lie inside the transient states 1..{chain.n_transient}"
        )
    if x0 is not None and x0 not in core:
        raise ValidationError(f"anchor x0={x0} must belong to the core set {core}")
    return core


def _core_exit_rates(chain: AbsorbedChain, core) -> tuple[np.ndarray, sparse.csr_matrix, np.ndarray]:
    """Jumps out of a checked core on the reflecting twin of the window.

    Returns the 0-based states outside the core, their rows of the
    twin's sub-generator, and each one's total rate of jumping into the
    core or to 0.
    """
    refl = chain.as_reflecting()
    inside = np.zeros(refl.n_transient, dtype=bool)
    inside[[x - 1 for x in core]] = True
    out_idx = np.nonzero(~inside)[0]
    rows = refl.sub_generator.tocsr()[out_idx]
    into = np.asarray(rows[:, np.nonzero(inside)[0]].sum(axis=1)).ravel()
    return out_idx, rows, into + refl.absorption_rates[out_idx]


def _skip_free(chain: AbsorbedChain) -> bool:
    """Whether the window is skip-free and reflecting: every jump of its
    sub-generator goes to a neighbour, only state 1 is absorbed, and
    nothing is killed.  compute_c2 proves its monotone step floor on such
    windows."""
    Q = chain.sub_generator.tocoo()
    jumps = Q.row != Q.col
    return (
        bool(np.all(np.abs(Q.row[jumps] - Q.col[jumps]) == 1))
        and not np.any(chain.absorption_rates[1:])
        and not np.any(chain.kill_rates)
    )


def _unit_step(
    chain: AbsorbedChain, x0: int, core: tuple[int, ...] | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """(reach, alive, step_floor) from one series on a function-side
    block evolved to t = 1.

    reach and alive are P_x(X_1 = x0) and P_x(alive at 1) for every
    transient x, the columns e_x0 and 1, which c1, c2's survival floor
    and the absorption-rate c3 read.  step_floor is c2's floor for
    t >= 1 on the core (which contains x0 and defaults to {x0}, whose
    floor is 1); compute_c2 has the proofs.  On a skip-free reflecting
    window it is P_a(X_1 >= b), a = min core and b = max core, read from
    one more column, the indicator of {b, b+1, ...}.  On any other window
    it is the minimum over x, j in core of P_x(X_1 = j), read from the
    indicators of the core states other than x0 (e_x0's column is reach).
    Column j of a block is bit for bit column j evolved alone, so the
    block changes no value; alive and step_floor do not depend on the
    anchor.

    The columns run in blocks of at most _BLOCK_ENTRIES entries (two
    columns at the least), the first starting with e_x0 and 1, and only
    each block's minimum over the floor's rows is kept, so memory stays
    linear in the window.  Nothing is stored on the window: every call
    evolves its whole block.
    """
    core = (x0,) if core is None else core
    skip_free = len(core) > 1 and _skip_free(chain)
    # the columns past e_x0 and 1, each an indicator: of a state (an
    # index) or of a slice of states, and the rows the floor reads
    if len(core) == 1:
        rows, part = [], []
    elif skip_free:
        rows, part = [core[0] - 1], [slice(core[-1] - 1, None)]
    else:
        rows, part = [x - 1 for x in core], [x - 1 for x in core if x != x0]
    hot = [x0 - 1, slice(None), *part]
    n = chain.n_transient
    floor = math.inf
    width = max(2, _BLOCK_ENTRIES // n)
    for lo in range(0, len(hot), width):
        cols = hot[lo:lo + width]
        block = np.zeros((n, len(cols)))
        for j, x in enumerate(cols):
            block[x, j] = 1.0
        out = evolve_function(chain, block, 1.0)
        if lo == 0:
            reach, alive, out = out[:, 0].copy(), out[:, 1].copy(), out[:, 2:]
        if out.shape[1]:
            floor = min(floor, float(out[rows].min()))
    if len(core) == 1:
        floor = 1.0
    elif not skip_free:
        floor = min(floor, float(reach[rows].min()))
    return reach, alive, floor


@dataclass
class ConstantEstimate:
    value: float
    provenance: str
    attained_at: int | None = None


@dataclass
class C2Bounds:
    """Proved survival-ratio floor over K and its two parts.

    certified = min(survival_floor, step_floor): survival_floor covers
    t <= 1 and step_floor covers t >= 1 (compute_c2 has the proofs).
    Any observed ratio min/max survival over K can only be larger.
    """

    certified: float
    survival_floor: float
    step_floor: float


@dataclass
class C3Result:
    c3: float
    lambda0: float
    strategy: str
    provenance: str
    c4: ConstantEstimate | None = None


def compute_c1(chain: AbsorbedChain, x0: int) -> ConstantEstimate:
    """Floor of P_x(X_1 = x0 | alive at 1) over all transient x.

    Always an empirical_estimate: the value of this window, read off the
    unit step of x0 (_unit_step).  On truncated chains the worst start
    is typically the window top, which moves when the window grows.  A
    state whose survival to t = 1 underflows to 0 leaves the floor
    undefined, and a state that cannot reach x0 makes it vanish; either
    raises CertificationError naming the state.
    """
    if not 1 <= x0 <= chain.n_transient:
        raise ValidationError(f"x0={x0} outside transient states 1..{chain.n_transient}")
    reach, alive, _ = _unit_step(chain, x0)
    return _c1(x0, reach, alive)


def _c1(x0: int, reach: np.ndarray, alive: np.ndarray) -> ConstantEstimate:
    """c1 read off a unit step's reach and alive columns."""
    dead = np.nonzero(alive <= 0.0)[0]
    if dead.size:
        # reach <= alive, so the ratio there is 0/0: no float carries it
        raise CertificationError(
            f"c1 is not computable on this window: the survival of state {dead[0] + 1} "
            f"to t = 1 underflows to 0",
            part="c1",
        )
    ratios = reach / alive
    i = int(np.argmin(ratios))
    if ratios[i] <= 0.0:
        raise CertificationError(
            f"c1 floor vanishes: state {i + 1} cannot reach {x0} within unit time on this window",
            part="c1",
        )
    return ConstantEstimate(value=float(ratios[i]), provenance=EMPIRICAL, attained_at=i + 1)


def compute_c2(chain: AbsorbedChain, K) -> C2Bounds:
    """Floor on P_x(T > t) / P_y(T > t) over x, y in the core K and all
    t >= 0, T the absorption (or killing) time: the smaller of two
    proved floors, both read off one unit step (_unit_step), which
    compute_c2 evolves with the smallest core state as its anchor: the
    block [e_a, 1, the step floor's columns], a = min K.  A certificate
    reads the same floors off the unit step of its own anchor; neither
    floor depends on the anchor.

    Survival floor, t <= 1: min over x in K of P_x(T > 1), the unit
    step's alive column.  P_x(T > t) >= P_x(T > 1) and P_y(T > t) <= 1.

    Step floor, t >= 1, on any chain: the minimum m over x, j in K of
    P_x(X_1 = j).  By the Markov property at time 1, P_x(T > t) >=
    P_x(X_1 = y) P_y(T > t - 1) >= m P_y(T > t).

    Step floor, t >= 1, on a skip-free reflecting window (every jump to
    a neighbour, absorption only out of state 1, no killing): P_a(X_1 >=
    b), with a = min K and b = max K.  Run two copies of the chain from
    x <= x', independently until they meet and together after.  Jumps of
    length one cannot cross without meeting, so the copy from x stays
    below the other, and it is absorbed first, because 0 is reached only
    from 1.  Hence P_x(T > s) and P_x(X_s >= b) both increase in x.  By
    the Markov property at time 1, for x, y in K,
        P_x(T > t) >= P_x(X_1 >= b) min_{z >= b} P_z(T > t - 1)
                   >= P_a(X_1 >= b) P_b(T > t - 1)
                   >= P_a(X_1 >= b) P_y(T > t),
    using x >= a, y <= b and that survival falls with time.  Since
    P_a(X_1 >= b) >= P_a(X_1 = b), this floor is never below the
    minimum m, and reading it takes one column instead of |K| - 1.

    Every truncated series lies below the exact value, so the floors
    read are below the exact ones; their rounding is not accounted for.
    A single-state core is exact at 1 and evolves nothing.  A vanishing
    floor raises CertificationError.
    """
    core = _check_core(chain, K)
    alive, step_floor = (None, 1.0) if len(core) == 1 else _unit_step(chain, core[0], core)[1:]
    return _c2(core, alive, step_floor)


def _c2(core: tuple[int, ...], alive: np.ndarray | None, step_floor: float) -> C2Bounds:
    """c2 read off a unit step's alive column and step floor on core."""
    if len(core) == 1:
        # a single-state core compares survival only with itself
        return C2Bounds(certified=1.0, survival_floor=1.0, step_floor=1.0)
    survival_floor = float(alive[[x - 1 for x in core]].min())
    certified = min(survival_floor, step_floor)
    if not certified > 0:
        raise CertificationError("c2 certified floor vanishes on K", part="c2")
    return C2Bounds(certified=certified, survival_floor=survival_floor, step_floor=step_floor)


def compute_c4(chain: AbsorbedChain, K, lambda0: float) -> ConstantEstimate:
    """Ceiling on sup_x E_x exp(lambda0 * (time to hit K or 0)).

    Computed on the reflecting twin of the window by solving the linear
    system the moment satisfies off K.  A singular or sign-violating
    solution means the moment is infinite at this rate and raises
    DivergentMomentError.  Always >= 1; equals 1 when K covers the
    window.  Always an empirical_estimate: the solved moment of this
    window, which on truncated chains grows with the window.
    """
    core = _check_core(chain, K)
    if not (lambda0 > 0 and math.isfinite(lambda0)):
        raise ValidationError(f"lambda0 must be finite and > 0, got {lambda0}")
    out_idx, rows, into_stop = _core_exit_rates(chain, core)
    if out_idx.size == 0:
        return ConstantEstimate(value=1.0, provenance=EMPIRICAL, attained_at=core[0])
    # imported here, not at the top: scipy.sparse.linalg loads scipy.linalg,
    # which commands that solve nothing never need
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    QDD = rows[:, out_idx]
    A = (-(QDD + lambda0 * sparse.eye(out_idx.size, format="csr"))).tocsc()
    try:
        with warnings.catch_warnings():
            # scipy warns on an exactly singular system and returns NaN
            warnings.simplefilter("error", MatrixRankWarning)
            h = spsolve(A, into_stop)
    except Exception as exc:  # singular factorization
        raise DivergentMomentError(
            f"exponential moment diverges at lambda0={lambda0!r}: {exc}"
        ) from None
    h = np.atleast_1d(np.asarray(h, dtype=np.float64))
    scale = max(1.0, float(np.abs(into_stop).max()))
    resid = np.abs(A @ h - into_stop).max()
    if not np.all(np.isfinite(h)) or np.any(h < 1.0 - 1e-9) or resid > 1e-8 * scale * max(1.0, np.abs(h).max()):
        raise DivergentMomentError(
            f"exponential moment diverges at lambda0={lambda0!r} "
            f"(solution leaves the feasible cone; residual {resid:.3e})"
        )
    j = int(np.argmax(h))
    return ConstantEstimate(
        value=max(1.0, float(h[j])), provenance=EMPIRICAL, attained_at=int(out_idx[j]) + 1
    )


def _c3_sojourn(chain: AbsorbedChain, x0: int, reach: np.ndarray | None) -> C3Result:
    # Staying put at x0 until time t has probability exp(-q(x0) t), and
    # x0 is in K, so c3 = 1 with lambda0 = q(x0) is exact for the window;
    # no unit step is read.
    lam = chain.exit_rate(x0)
    if lam <= 0:
        raise CertificationError(
            f"c3 occupancy floor failed: state {x0} has zero exit rate", part="c3"
        )
    return C3Result(c3=1.0, lambda0=lam, strategy=SOJOURN, provenance=CERTIFIED)


def _c3_absorption_rate(chain: AbsorbedChain, x0: int, reach: np.ndarray) -> C3Result:
    """Occupancy of x0 itself decays no faster than the worst per-state
    killing rate C: for t >= 1 chain through time t-1 and use the
    one-step floor into x0; for t <= 1 a holding bound caps how large c3
    may be.  All pieces are one-step or rate quantities.  Always an
    empirical_estimate: the floor is this window's, read off reach, the
    unit step's column P_x(X_1 = x0), and moves when the window grows."""
    dead_rates = chain.absorption_rates + chain.kill_rates
    C = float(dead_rates.max())
    if C <= 0:
        raise CertificationError(
            "c3 occupancy floor failed: chain is never absorbed inside the window", part="c3"
        )
    inf_reach = float(reach.min())
    if inf_reach <= 0:
        raise CertificationError(
            f"c3 occupancy floor failed: some window state cannot reach {x0} within unit time",
            part="c3",
        )
    guard = math.exp(min(0.0, C - chain.exit_rate(x0)))
    c3 = min(1.0, inf_reach * math.exp(C), guard)
    return C3Result(c3=c3, lambda0=C, strategy=ABSORPTION_RATE, provenance=EMPIRICAL)


def compute_c3_lambda0(chain: AbsorbedChain, x0: int, K, strategy: str = BEST) -> C3Result:
    """Occupancy floor P_x0(X_t in K) >= c3 * exp(-lambda0 t) for all t >= 0.

    sojourn: never leave x0 (c3 = 1, lambda0 = exit rate at x0; exact).
    absorption_rate: decay no faster than the worst killing rate C
    (lambda0 = C, c3 from one-step reachability of x0).
    best: evaluate both, solve for c4 at each rate, keep the pair with
    the larger resulting gamma; the matching c4 rides along so callers
    do not recompute it.  A strategy that fails raises
    CertificationError(part="c3"); best skips it, or one whose moment
    diverges, and raises only when neither is left.  A zero c3 (the
    absorption-rate floor underflows when x0 exits far faster than C)
    raises too.  Only the absorption-rate route evolves the unit step of
    x0; sojourn evolves nothing.
    """
    core = _check_core(chain, K, x0)
    reach = _unit_step(chain, x0)[0] if strategy in (ABSORPTION_RATE, BEST) else None
    return _c3(chain, x0, core, strategy, reach)


def _c3(chain: AbsorbedChain, x0: int, core, strategy: str, reach: np.ndarray | None) -> C3Result:
    """compute_c3_lambda0 on a checked core, the absorption-rate route
    reading the unit step's reach column."""
    if strategy == SOJOURN:
        return _c3_sojourn(chain, x0, reach)
    if strategy == ABSORPTION_RATE:
        best = _c3_absorption_rate(chain, x0, reach)
    elif strategy == BEST:
        candidates = []
        for route in (_c3_sojourn, _c3_absorption_rate):
            try:
                cand = route(chain, x0, reach)
                cand.c4 = compute_c4(chain, core, cand.lambda0)
            except (CertificationError, DivergentMomentError):
                continue
            candidates.append(cand)
        if not candidates:
            raise CertificationError(
                "no occupancy-decay strategy yields a finite exponential moment", part="c3"
            )
        # prefer the larger c3/c4 ratio; ties go to the sojourn construction
        best = max(candidates, key=lambda r: (r.c3 / r.c4.value, r.strategy == SOJOURN))
    else:
        raise ValidationError(f"unknown c3 strategy {strategy!r}")
    if not best.c3 > 0:
        raise CertificationError("c3 occupancy floor failed: zero floor", part="c3")
    return best


@dataclass(frozen=True)
class HypothesisCertificate:
    """Constants certifying conditional mixing on a fixed window.

    bound(t) = 2 * (1 - gamma)^floor(t) dominates the TV distance between
    any two survival-conditioned laws at time t, and the distance of
    either to the quasi-stationary law.

    gamma = c1*c2*c3 / (2*c4) is formed here and nowhere else.  Left
    out, it is derived from the constants once they pass their range
    checks; a product that underflows to 0 raises CertificationError
    whose part names the vanishing constant.  Given, as a parsed text
    gives it, it is only checked against the constants.
    """

    K: tuple[int, ...]
    x0: int
    c1: float
    c2: float
    c3: float
    c4: float
    lambda0: float
    c3_strategy: str
    n_states: int
    boundary_mode: str
    gamma: float | None = None
    provenance: dict = field(default_factory=dict)
    window_limited: bool = True

    def __post_init__(self):
        if not self.n_states >= 2:
            raise ValidationError(f"n_states must be >= 2, got {self.n_states}")
        if not self.K or self.x0 not in self.K:
            raise ValidationError("certificate needs a core set K containing x0")
        if any(a >= b for a, b in zip(self.K, self.K[1:])):
            raise ValidationError(f"core set K={self.K} must be strictly increasing")
        if not all(1 <= x < self.n_states for x in self.K):
            raise ValidationError(
                f"core set {self.K} must lie inside the transient states 1..{self.n_states - 1}"
            )
        _check_boundary_mode(self.boundary_mode)
        if self.c3_strategy not in (SOJOURN, ABSORPTION_RATE, BEST):
            raise ValidationError(
                f"c3_strategy must be {SOJOURN}, {ABSORPTION_RATE} or {BEST}, "
                f"got {self.c3_strategy!r}"
            )
        for name, label in self.provenance.items():
            if label not in (CERTIFIED, EMPIRICAL):
                raise ValidationError(
                    f"provenance of {name} must be {CERTIFIED} or {EMPIRICAL}, got {label!r}"
                )
        for name in ("c1", "c2", "c3"):
            v = getattr(self, name)
            if not (0 < v <= 1 + 1e-12):
                raise ValidationError(f"{name} must lie in (0, 1], got {v}")
        if not (self.c4 >= 1):
            raise ValidationError(f"c4 must be >= 1, got {self.c4}")
        if not (self.lambda0 > 0 and math.isfinite(self.lambda0)):
            raise ValidationError(f"lambda0 must be finite and > 0, got {self.lambda0}")
        gamma = self.c1 * self.c2 * self.c3 / (2.0 * self.c4)
        if self.gamma is None and gamma == 0.0:
            # every factor is positive, so the product underflowed: no float
            # carries this rate, and the bound 2(1 - gamma)^t would read 2
            c1, c2, c3, c4 = self.c1, self.c2, self.c3, self.c4
            factors = {
                "c1": math.log10(c1), "c2": math.log10(c2), "c3": math.log10(c3), "c4": -math.log10(c4)
            }
            part = min(factors, key=factors.get)
            raise CertificationError(
                f"gamma = c1*c2*c3/(2*c4) underflows to 0 (log10 gamma = "
                f"{sum(factors.values()) - math.log10(2.0):.1f}); {part} is the vanishing "
                f"constant (c1={c1:.3e}, c2={c2:.3e}, c3={c3:.3e}, c4={c4:.3e})",
                part=part,
            )
        if self.gamma is None:
            object.__setattr__(self, "gamma", gamma)
        elif not math.isclose(self.gamma, gamma, rel_tol=1e-12, abs_tol=0.0):
            raise ValidationError(
                f"gamma={self.gamma} inconsistent with its constants (expected {gamma})"
            )
        if not (0 < self.gamma <= 0.5):
            raise ValidationError(f"gamma must lie in (0, 1/2], got {self.gamma}")

    def bound(self, t: float) -> float:
        """TV mixing bound 2*(1-gamma)^floor(t); never below 0."""
        if not (0 <= t < math.inf):
            raise ValidationError(f"time must be finite and >= 0, got {t}")
        return 2.0 * (1.0 - self.gamma) ** math.floor(t)


def assemble_certificate(*, K, **fields) -> HypothesisCertificate:
    """The certificate of the core K, sorted, and the other
    HypothesisCertificate fields, passed through as given.

    Every certificate the library computes is built here, so a tracer
    that wraps this function sees each one.  Without a gamma keyword the
    certificate derives gamma from its constants; a given gamma is only
    checked.
    """
    return HypothesisCertificate(K=tuple(sorted(int(x) for x in K)), **fields)


def certify(chain: AbsorbedChain, K, x0: int, c3_strategy: str = BEST) -> HypothesisCertificate:
    """Assemble the full certificate for (chain, K, x0) or raise naming
    the first constant that cannot be established.

    c3 and lambda0 come from compute_c3_lambda0 with c3_strategy; c4 is
    the solved exponential moment at that lambda0 (compute_c4).  The
    logistic and rate-criterion certificates run the same pipeline.
    """
    return _certify(chain, _check_core(chain, K, x0), x0, c3_strategy)


def _certify(
    chain: AbsorbedChain,
    core: tuple[int, ...],
    x0: int,
    c3_strategy: str,
    c4: ConstantEstimate | None = None,
) -> HypothesisCertificate:
    """c1, c2, c3/lambda0 and c4 on a checked (core, x0), then gamma.

    Each constant is computed only as far as gamma reads it: c2 is its
    certified floor, evolved to t = 1 and never past it.  A given c4 (a
    closed-form ceiling valid at the lambda0 the strategy yields)
    replaces the moment solve.
    """
    # c1, c2 and the absorption-rate c3 read one unit step
    reach, alive, step_floor = _unit_step(chain, x0, core)
    c1e = _c1(x0, reach, alive)
    c2b = _c2(core, alive, step_floor)
    c3r = _c3(chain, x0, core, c3_strategy, reach)
    c4e = c4 if c4 is not None else c3r.c4
    if c4e is None:
        try:
            c4e = compute_c4(chain, core, c3r.lambda0)
        except DivergentMomentError as exc:
            raise CertificationError(str(exc), part="c4") from exc

    return assemble_certificate(
        K=core,
        x0=x0,
        c1=c1e.value,
        c2=c2b.certified,
        c3=c3r.c3,
        c4=c4e.value,
        lambda0=c3r.lambda0,
        c3_strategy=c3r.strategy,
        n_states=chain.n_states,
        boundary_mode=chain.boundary_mode,
        provenance={
            "c1": c1e.provenance,
            "c2": CERTIFIED,
            "c3": c3r.provenance,
            "c4": c4e.provenance,
        },
    )


def check_ratio_inequality(
    chain: AbsorbedChain,
    certificate: HypothesisCertificate,
    t_grid,
) -> tuple[bool, float]:
    """Verify P_x0(alive at t) >= (c2*c3/(2*c4)) * sup_x P_x(alive at t).

    Returns (holds with slack -1e-9, smallest margin over the grid).
    The margin is measured relative to the surviving scale,
    (h(x0) - kappa * max h) / max h, so it stays meaningful at large t
    where all survival probabilities decay together; an absolute margin
    would go vacuously to zero there.  Being scale-free, it is read off
    the survival function rescaled to mass 1 at every grid time, which
    keeps long grids clear of underflow.  The grid needs a time > 0: at
    time 0 every state survives and the inequality holds vacuously.  The
    certificate must be one made for this window: same n_states and
    boundary mode.
    """
    if (certificate.n_states, certificate.boundary_mode) != (chain.n_states, chain.boundary_mode):
        raise ValidationError(
            f"certificate of the {certificate.n_states}-state {certificate.boundary_mode} window "
            f"cannot be checked on the {chain.n_states}-state {chain.boundary_mode} window"
        )
    kappa = certificate.c2 * certificate.c3 / (2.0 * certificate.c4)
    x0 = certificate.x0
    ts = _grid_past_zero(t_grid, "check_ratio_inequality")
    worst = math.inf
    for _, h in _walk(chain, np.ones(chain.n_transient), ts, "function"):
        hmax = float(h.max())
        worst = min(worst, float(h[x0 - 1] - kappa * hmax) / hmax)
    return worst >= -1e-9, worst


# -- plain-text serialization -------------------------------------------------


_HEADER = "quasistat certificate v1"

# The certificate text, one "key = value" line per entry in this order:
# (text key, certificate field, writer, reader).  A v1 text written
# before a key existed may leave it out; _TEXT_DEFAULTS holds those
# keys' values.  Provenance lines follow, one per labelled constant.
_TEXT_FIELDS = (
    ("n_states", "n_states", str, int),
    ("boundary", "boundary_mode", str, str),
    ("K", "K", lambda K: ",".join(map(str, K)), lambda v: tuple(int(x) for x in v.split(","))),
    ("x0", "x0", str, int),
    *((name, name, fmt, float) for name in ("c1", "c2", "c3", "c4", "lambda0", "gamma")),
    ("c3_strategy", "c3_strategy", str, str),
    # tuple.index raises ValueError on anything but no or yes
    ("window_limited", "window_limited", lambda b: "yes" if b else "no",
     lambda v: bool(("no", "yes").index(v))),
)
_TEXT_DEFAULTS = {"boundary": "reflect", "c3_strategy": BEST, "window_limited": "yes"}
_PROVENANCE = ("c1", "c2", "c3", "c4")
_TEXT_KEYS = {key for key, *_ in _TEXT_FIELDS} | {f"provenance_{name}" for name in _PROVENANCE}


def certificate_to_text(cert: HypothesisCertificate) -> str:
    pairs = [(key, write(getattr(cert, name))) for key, name, write, _ in _TEXT_FIELDS]
    pairs += [(f"provenance_{name}", cert.provenance[name])
              for name in _PROVENANCE if name in cert.provenance]
    return f"{_HEADER}\n" + render_keyvalues(pairs)


def parse_certificate_text(text: str) -> HypothesisCertificate:
    """The certificate certificate_to_text wrote, checked again; a
    missing, repeated, unknown or malformed key raises ValidationError
    naming it."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _HEADER:
        raise ValidationError("not a quasistat certificate (missing header)")
    given = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise ValidationError(f"bad certificate line: {ln!r}")
        k, v = (part.strip() for part in ln.split("=", 1))
        if k not in _TEXT_KEYS:
            raise ValidationError(f"certificate has unknown field {k!r}")
        if k in given:
            raise ValidationError(f"certificate repeats field {k!r}")
        given[k] = v
    kv = {**_TEXT_DEFAULTS, **given}
    fields = {}
    for key, name, _, read in _TEXT_FIELDS:
        if key not in kv:
            raise ValidationError(f"certificate missing field {key!r}")
        try:
            fields[name] = read(kv[key])
        except ValueError:
            raise ValidationError(f"certificate field {key} is malformed: {kv[key]!r}") from None
    provenance = {name: kv[f"provenance_{name}"]
                  for name in _PROVENANCE if f"provenance_{name}" in kv}
    return HypothesisCertificate(**fields, provenance=provenance)
