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
to t = 1 and nothing past it: the anchor indicator, the constant 1 and
the indicators of the other core states, from which c1, c2's step floor
and the absorption-rate c3 are all read (_unit_step).

A constant that cannot be established raises CertificationError at the
point where it fails, its part naming the constant (c1, c2, c3 or c4);
no result carries a failure flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .chain import AbsorbedChain, _check_boundary_mode
from .engine import (
    evolve_function,
    survival_vector,  # noqa: F401  re-exported: callers and tracers reach it here
)
from .errors import (
    CertificationError,
    ComputationError,
    DivergentMomentError,
    ValidationError,
)
from .textio import fmt

CERTIFIED = "certified_bound"
EMPIRICAL = "empirical_estimate"

SOJOURN = "sojourn"
ABSORPTION_RATE = "absorption_rate"
BEST = "best"

# Largest (states x columns) block the unit step evolves at once: 8 MiB
# of float64.
_BLOCK_ENTRIES = 2**20


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


def _unit_step(
    chain: AbsorbedChain, x0: int, core: tuple[int, ...] | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """(reach, alive, step_floor) from one series on the block
    [e_x0, 1, e_j for j in core - {x0}] evolved to t = 1.

    reach and alive are P_x(X_1 = x0) and P_x(alive at 1) for every
    transient x, which c1 and the absorption-rate c3 read; step_floor is
    min over x, j in core of P_x(X_1 = j), c2's floor for t >= 1 (core
    contains x0 and defaults to {x0}).  Column j of a block is bit for
    bit column j evolved alone, so the block changes no value.

    The window caches (reach, alive) per anchor and step_floor per core,
    and a call evolves only the columns it has no cached value for, so a
    certificate evolves once.  The columns run in blocks of at most
    _BLOCK_ENTRIES entries (two columns at the least), the first
    carrying e_x0 and 1, and only each block's minimum over the core
    rows is kept, so memory stays linear in the window.
    """
    core = (x0,) if core is None else core
    cache = chain._cache
    step = cache.get(("unit_step", x0))
    floor = cache.get(("step_floor", core))
    if step is not None and floor is not None:
        return (*step, floor)
    n = chain.n_transient
    idx = np.array([x - 1 for x in core])
    # the state of each indicator column to evolve; None is the column 1
    hot = [x0 - 1, None] if step is None else []
    if floor is None:
        hot += [x - 1 for x in core if x != x0]
    block_floor = math.inf
    width = max(2, _BLOCK_ENTRIES // n)
    for lo in range(0, len(hot), width):
        cols = hot[lo:lo + width]
        block = np.zeros((n, len(cols)))
        for j, x in enumerate(cols):
            block[slice(None) if x is None else x, j] = 1.0
        out = evolve_function(chain, block, 1.0)
        if step is None:
            step = cache[("unit_step", x0)] = (out[:, 0].copy(), out[:, 1].copy())
            out = out[:, 2:]
        if out.shape[1]:
            block_floor = min(block_floor, float(out[idx].min()))
    if floor is None:
        # the e_x0 column is reach itself
        floor = cache[("step_floor", core)] = min(block_floor, float(step[0][idx].min()))
    return (*step, floor)


@dataclass
class ConstantEstimate:
    value: float
    provenance: str
    attained_at: int | None = None


@dataclass
class C2Bounds:
    """Proved survival-ratio floor over K and its two parts.

    certified = min(hold_floor, step_floor) where hold_floor covers
    t <= 1 (probability of just sitting still) and step_floor covers
    t >= 1 (worst one-step transition probability within K).  Any
    observed ratio min/max survival over K can only be larger.
    """

    certified: float
    hold_floor: float
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
    shared unit step.  On truncated chains the worst start is typically
    the window top, which moves when the window grows.  A state whose
    survival to t = 1 underflows to 0 leaves the floor undefined, and a
    state that cannot reach x0 makes it vanish; either raises
    CertificationError naming the state.
    """
    if not 1 <= x0 <= chain.n_transient:
        raise ValidationError(f"x0={x0} outside transient states 1..{chain.n_transient}")
    reach, alive, _ = _unit_step(chain, x0)
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
    """Floor on min/max survival probability across the core K.

    Two proved floors, each uniform in t on its regime: a holding bound
    exp(-max exit rate on K) for t <= 1, and the worst K-to-K one-step
    probability for t >= 1.  Both need evolution up to t = 1 only: the
    step floor is read off the shared unit step (_unit_step), evolved
    with the certificate's anchor when a certificate built it and with
    the smallest core state otherwise.  A vanishing floor raises
    CertificationError.
    """
    core = _check_core(chain, K)
    idx = np.array([x - 1 for x in core])
    if len(core) == 1:
        # a single-state core compares survival only with itself
        return C2Bounds(certified=1.0, hold_floor=1.0, step_floor=1.0)
    q_max = float(np.max(chain.total_exit_rates()[idx]))
    hold_floor = math.exp(-q_max)
    step_floor = chain._cache.get(("step_floor", core))
    if step_floor is None:
        step_floor = _unit_step(chain, core[0], core)[2]
    certified = min(hold_floor, step_floor)
    if not certified > 0:
        raise CertificationError("c2 certified floor vanishes on K", part="c2")
    return C2Bounds(certified=certified, hold_floor=hold_floor, step_floor=step_floor)


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
    QDD = rows[:, out_idx]
    A = (-(QDD + lambda0 * sparse.eye(out_idx.size, format="csr"))).tocsc()
    try:
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


def _c3_sojourn(chain: AbsorbedChain, x0: int, core) -> C3Result:
    # Staying put at x0 until time t has probability exp(-q(x0) t), and
    # x0 is in K, so c3 = 1 with lambda0 = q(x0) is exact for the window.
    lam = chain.exit_rate(x0)
    if lam <= 0:
        raise CertificationError(
            f"c3 occupancy floor failed: state {x0} has zero exit rate", part="c3"
        )
    return C3Result(c3=1.0, lambda0=lam, strategy=SOJOURN, provenance=CERTIFIED)


def _c3_absorption_rate(chain: AbsorbedChain, x0: int, core) -> C3Result:
    """Occupancy of x0 itself decays no faster than the worst per-state
    killing rate C: for t >= 1 chain through time t-1 and use the
    one-step floor into x0; for t <= 1 a holding bound caps how large c3
    may be.  All pieces are one-step or rate quantities.  Always an
    empirical_estimate: the floor is this window's, read off the shared
    unit step, and moves when the window grows."""
    dead_rates = chain.absorption_rates + chain.kill_rates
    C = float(dead_rates.max())
    if C <= 0:
        raise CertificationError(
            "c3 occupancy floor failed: chain is never absorbed inside the window", part="c3"
        )
    inf_reach = float(_unit_step(chain, x0)[0].min())
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
    raises too.
    """
    core = _check_core(chain, K, x0)
    if strategy == SOJOURN:
        return _c3_sojourn(chain, x0, core)
    if strategy == ABSORPTION_RATE:
        best = _c3_absorption_rate(chain, x0, core)
    elif strategy == BEST:
        candidates = []
        for route in (_c3_sojourn, _c3_absorption_rate):
            try:
                cand = route(chain, x0, core)
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
    """

    K: tuple[int, ...]
    x0: int
    c1: float
    c2: float
    c3: float
    c4: float
    lambda0: float
    gamma: float
    c3_strategy: str
    n_states: int
    boundary_mode: str
    provenance: dict = field(default_factory=dict)
    window_limited: bool = True

    def __post_init__(self):
        if not self.n_states >= 2:
            raise ValidationError(f"n_states must be >= 2, got {self.n_states}")
        if not self.K or self.x0 not in self.K:
            raise ValidationError("certificate needs a core set K containing x0")
        if not all(1 <= x < self.n_states for x in self.K):
            raise ValidationError(
                f"core set {self.K} must lie inside the transient states 1..{self.n_states - 1}"
            )
        _check_boundary_mode(self.boundary_mode)
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
        expected = self.c1 * self.c2 * self.c3 / (2.0 * self.c4)
        if not math.isclose(self.gamma, expected, rel_tol=1e-12, abs_tol=0.0):
            raise ValidationError(
                f"gamma={self.gamma} inconsistent with its constants (expected {expected})"
            )
        if not (0 < self.gamma <= 0.5):
            raise ValidationError(f"gamma must lie in (0, 1/2], got {self.gamma}")

    def bound(self, t: float) -> float:
        """TV mixing bound 2*(1-gamma)^floor(t); never below 0."""
        if not (0 <= t < math.inf):
            raise ValidationError(f"time must be finite and >= 0, got {t}")
        return 2.0 * (1.0 - self.gamma) ** math.floor(t)


def assemble_certificate(
    *,
    K,
    x0: int,
    c1: float,
    c2: float,
    c3: float,
    c4: float,
    lambda0: float,
    c3_strategy: str,
    n_states: int,
    boundary_mode: str,
    provenance: dict | None = None,
) -> HypothesisCertificate:
    gamma = c1 * c2 * c3 / (2.0 * c4)
    if gamma == 0.0 and min(c1, c2, c3) > 0:
        # every factor is positive, so the product underflowed: no float
        # carries this rate, and the bound 2(1 - gamma)^t would read 2
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
    return HypothesisCertificate(
        K=tuple(sorted(int(x) for x in K)),
        x0=int(x0),
        c1=float(c1),
        c2=float(c2),
        c3=float(c3),
        c4=float(c4),
        lambda0=float(lambda0),
        gamma=gamma,
        c3_strategy=c3_strategy,
        n_states=int(n_states),
        boundary_mode=boundary_mode,
        provenance=dict(provenance or {}),
    )


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
    # c1, c2's step floor and the absorption-rate c3 read one unit step
    _unit_step(chain, x0, core)
    c1e = compute_c1(chain, x0)
    c2b = compute_c2(chain, core)
    c3r = compute_c3_lambda0(chain, x0, core, strategy=c3_strategy)
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
    would go vacuously to zero there.
    """
    kappa = certificate.c2 * certificate.c3 / (2.0 * certificate.c4)
    x0 = certificate.x0
    if not 1 <= x0 <= chain.n_transient:
        raise ValidationError(f"certificate anchor {x0} outside this window")
    ts = sorted(float(t) for t in t_grid)
    if any(t < 0 for t in ts):
        raise ValidationError("grid times must be >= 0")
    h = np.ones(chain.n_transient)
    t_cur = 0.0
    worst = math.inf
    for t in ts:
        h = evolve_function(chain, h, t - t_cur)
        t_cur = t
        hmax = float(h.max())
        if hmax < 1e-300:
            raise ComputationError(
                f"survival mass underflowed at t={t}; shorten the grid for this window"
            )
        margin = float(h[x0 - 1] - kappa * hmax) / hmax
        worst = min(worst, margin)
    return worst >= -1e-9, worst


# -- plain-text serialization -------------------------------------------------


def certificate_to_text(cert: HypothesisCertificate) -> str:
    lines = [
        "quasistat certificate v1",
        f"n_states = {cert.n_states}",
        f"boundary = {cert.boundary_mode}",
        f"K = {','.join(str(x) for x in cert.K)}",
        f"x0 = {cert.x0}",
        f"c1 = {fmt(cert.c1)}",
        f"c2 = {fmt(cert.c2)}",
        f"c3 = {fmt(cert.c3)}",
        f"c4 = {fmt(cert.c4)}",
        f"lambda0 = {fmt(cert.lambda0)}",
        f"gamma = {fmt(cert.gamma)}",
        f"c3_strategy = {cert.c3_strategy}",
        f"window_limited = {'yes' if cert.window_limited else 'no'}",
    ]
    for name in ("c1", "c2", "c3", "c4"):
        if name in cert.provenance:
            lines.append(f"provenance_{name} = {cert.provenance[name]}")
    return "\n".join(lines) + "\n"


def parse_certificate_text(text: str) -> HypothesisCertificate:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "quasistat certificate v1":
        raise ValidationError("not a quasistat certificate (missing header)")
    kv = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise ValidationError(f"bad certificate line: {ln!r}")
        k, v = ln.split("=", 1)
        kv[k.strip()] = v.strip()

    def number(field, convert):
        try:
            return convert(kv[field])
        except ValueError:
            bad = kv[field]
            raise ValidationError(f"certificate field {field} is malformed: {bad!r}") from None

    try:
        prov = {
            name: kv[f"provenance_{name}"]
            for name in ("c1", "c2", "c3", "c4")
            if f"provenance_{name}" in kv
        }
        return HypothesisCertificate(
            K=number("K", lambda v: tuple(int(x) for x in v.split(","))),
            x0=number("x0", int),
            c1=number("c1", float),
            c2=number("c2", float),
            c3=number("c3", float),
            c4=number("c4", float),
            lambda0=number("lambda0", float),
            gamma=number("gamma", float),
            c3_strategy=kv.get("c3_strategy", BEST),
            n_states=number("n_states", int),
            boundary_mode=kv.get("boundary", "reflect"),
            provenance=prov,
            window_limited=kv.get("window_limited", "yes") == "yes",
        )
    except KeyError as missing:
        raise ValidationError(f"certificate missing field {missing}") from None
