"""Closed-form analytics for birth-death chains absorbed at 0.

Birth-death paths are skip-free: from above a level z they must pass
through z on the way down, so hitting times of {1..z} from outside are
hitting times of z itself.  That gives series formulas for expected
hitting times and a banded linear system for exponential moments, both
of which feed core-set selection for the mixing certificate.

All products of rates are carried in log space; only ratios of the
ladder coefficients ever enter a sum, so huge dynamic range is harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .chain import REFLECT, AbsorbedChain, BirthDeathSpec
from .certify import SOJOURN, HypothesisCertificate, certify
# re-exported: tracers wrap these names on this module
from .certify import assemble_certificate, compute_c1, compute_c2, compute_c4  # noqa: F401
from .engine import QsdResult, compute_qsd_auto
from .errors import CertificationError, DivergentMomentError, ValidationError
from .textio import fmt, render_keyvalues, write_csv

# Inner ladder tails stop at this relative increment; the outer series
# for the x = infinity supremum additionally caps at _MAX_TERMS.
_REL_TOL = 1e-15
_MAX_TERMS = 10**6

# Levels per block of rates the hitting-time descent fetches at once.
# Whole doubling blocks (up to ~5e5 levels) as Python floats would add
# ~50 MiB of peak memory for no further speed.
_DESCENT_CHUNK = 4096


def alpha_coeffs(spec: BirthDeathSpec, j_max: int) -> np.ndarray:
    """Ladder coefficients alpha_j = prod(b_1..b_{j-1}) / prod(d_1..d_j).

    Computed in log space; a zero birth rate zeroes every later
    coefficient.  Death rates must be positive up to j_max.
    """
    if j_max < 1:
        raise ValidationError("j_max must be >= 1")
    out = np.empty(j_max)
    log_acc = 0.0
    dead = False
    for j in range(1, j_max + 1):
        up, down = spec.rates_at(j)
        if down <= 0:
            raise ValidationError(f"death rate at {j} must be > 0 for ladder coefficients")
        log_acc -= math.log(down)
        if dead:
            out[j - 1] = 0.0
        else:
            # saturate rather than raise: coefficients past float range
            # are still meaningful as "unboundedly large"
            out[j - 1] = math.exp(log_acc) if log_acc < 709.0 else math.inf
        if up <= 0:
            dead = True
        else:
            log_acc += math.log(up)
    return out


def _inner_tail(spec: BirthDeathSpec, k: int) -> float:
    """sum_{l >= k} alpha_l / alpha_k, via the ratio ladder from k."""
    total = 1.0
    ratio = 1.0
    l = k
    while True:
        up, _ = spec.rates_at(l)
        if up <= 0:
            return total  # ladder ends; tail is finite and complete
        _, down_next = spec.rates_at(l + 1)
        if down_next <= 0:
            raise ValidationError(f"death rate at {l + 1} must be > 0")
        ratio *= up / down_next
        total += ratio
        l += 1
        if not math.isfinite(total):
            # supercritical ladder: the tail overflows outright
            raise DivergentMomentError(
                f"ladder tail from level {k} is infinite; upward rates dominate"
            )
        if ratio <= _REL_TOL * total:
            return total
        if l - k > _MAX_TERMS:
            raise DivergentMomentError(
                f"ladder tail from level {k} has not converged after {_MAX_TERMS} terms; "
                f"return from high states is not summable"
            )


def _descent_rates(spec: BirthDeathSpec, lo: int, hi: int) -> tuple[list, list]:
    """Rates on lo..hi as plain floats, every death rate checked > 0.

    A chunk with a bad level is replayed downward one rates_at call at a
    time, so the error names the highest bad level with the message a
    level-by-level descent would raise.
    """
    try:
        up, down = spec.rates_on(lo, hi)
        ok = bool(np.all(down > 0))
    except ValidationError:
        ok = False
    if ok:
        return up.tolist(), down.tolist()
    for k in range(hi, lo - 1, -1):
        if spec.rates_at(k)[1] <= 0:
            raise ValidationError(f"death rate at {k} must be > 0")
    raise ValidationError(
        f"rate callables disagree between array and scalar levels on {lo}..{hi}"
    )


def _descent_sum(spec: BirthDeathSpec, z: int, x: int) -> float:
    """sum_{k=z+1}^{x} E_k(T_{k-1}), each term = ladder tail / full
    downward rate, anchored once at x and recursed downward (stable:
    the recursion only adds and multiplies positives).

    Rates come in chunks of _DESCENT_CHUNK levels, so memory stays flat
    however long the descent; the recursion itself runs level by level
    on plain floats.
    """
    inner = _inner_tail(spec, x)
    total = 0.0
    down = 0.0
    for hi in range(x, z, -_DESCENT_CHUNK):
        ups, downs = _descent_rates(spec, max(z + 1, hi - _DESCENT_CHUNK + 1), hi)
        if hi == x:
            # the anchor level contributes its ladder tail as is
            down = downs.pop()
            ups.pop()
            total += inner / down
        for up_k, down_k in zip(reversed(ups), reversed(downs)):
            inner = 1.0 + (up_k / down) * inner
            down = down_k
            total += inner / down
    return total


def tail_expected_hitting(spec: BirthDeathSpec, z: int, x, max_terms: int = _MAX_TERMS) -> float:
    """E_x(time to reach z) for a birth-death chain, x > z >= 0.

    Level-by-level: E_x T_z = sum_{k=z+1}^{x} E_k T_{k-1}, and each
    descent expectation is the ladder tail above k divided by the full
    downward rate at k (death plus any crowding term).  Finite x is an
    exact finite sum.  x = math.inf gives the supremum over starting
    states, summed in doubling blocks until a block contributes nothing
    or max_terms levels have been used (documented truncation; the
    series grows in x, so truncation only under-reports).  Blocks that
    stop shrinking expose a non-summable tail and raise.

    The spec's rate callables are evaluated on float arrays of levels,
    a few thousand at a time (BirthDeathSpec.rates_on), so they must be
    elementwise; the recursion then runs level by level on plain floats,
    giving the same bits as one rates_at call per level.  A bad rate
    raises ValidationError naming the highest bad level below x.
    """
    if z < 0:
        raise ValidationError(f"target level z must be >= 0, got {z}")
    if x != math.inf:
        x = int(x)
        if x <= z:
            raise ValidationError(f"need x > z, got x={x}, z={z}")
        return _descent_sum(spec, z, x)

    total = 0.0
    lo = z + 1
    block = 1024
    prev_sum = math.inf
    used = 0
    while True:
        hi = lo + block - 1
        bs = _descent_sum(spec, lo - 1, hi)
        total += bs
        used += block
        if bs <= max(_REL_TOL * total, 1e-12 * total):
            return total
        if bs > 0.75 * prev_sum:
            raise DivergentMomentError(
                f"hitting-time blocks up to level {hi} stopped shrinking "
                f"({bs:.3e} after {prev_sum:.3e}); the supremum is infinite"
            )
        if used >= max_terms:
            return total  # convergent but slow tail: documented truncation
        prev_sum = bs
        lo = hi + 1
        block *= 2


@dataclass
class BdMomentResult:
    """Exponential moment h(x) = E_x exp(lam * T_z) on z+1..x_max.

    sup estimates the supremum over all x (entrance limit included), so
    it can exceed max(values) slightly when the tail still climbs at the
    window top; extrapolated records when that correction was applied.
    """

    z: int
    lam: float
    x_max: int
    values: np.ndarray
    sup: float
    sup_at: int
    extrapolated: bool = False

    def value_at(self, x: int) -> float:
        if not self.z + 1 <= x <= self.x_max:
            raise ValidationError(f"x={x} outside computed range {self.z + 1}..{self.x_max}")
        return float(self.values[x - self.z - 1])


def _solve_moment(spec: BirthDeathSpec, z: int, lam: float, x_max: int) -> np.ndarray:
    n = x_max - z
    up, down = spec.rates_on(z + 1, x_max)
    up = up.copy()
    up[-1] = 0.0  # reflecting closure at the top of the solve window
    ab = np.zeros((3, n))
    ab[0, 1:] = up[:-1]  # superdiagonal: column i+1 holds the rate up from i
    ab[1] = lam - up - down
    ab[2, :-1] = down[1:]  # subdiagonal: column i-1 holds the rate down from i
    rhs = np.zeros(n)
    rhs[0] = -down[0]  # known h(z) = 1 folded into the right side
    try:
        h = solve_banded((1, 1), ab, rhs)
    except Exception as exc:
        raise DivergentMomentError(
            f"exponential moment solve failed at rate {lam}: {exc}"
        ) from None
    return h


def exp_moment_hitting(
    spec: BirthDeathSpec,
    z: int,
    lam: float,
    x_max: int | None = None,
) -> BdMomentResult:
    """Moments E_x exp(lam * T_z) for x in z+1..x_max, top reflected.

    Finiteness is decided from three nested solve windows: non-finite
    entries or values below 1 mean a hard divergence, and window-to-
    window increments of the supremum that stop contracting mean the
    true supremum is unbounded; both raise DivergentMomentError.  When
    the increments contract geometrically, the remaining tail is summed
    by that ratio (Richardson-style) into the reported sup.  A rate very
    close to the critical one is conservatively reported divergent.
    """
    if z < 0:
        raise ValidationError(f"target level z must be >= 0, got {z}")
    if not (lam > 0 and math.isfinite(lam)):
        raise ValidationError(f"rate lam must be finite and > 0, got {lam}")
    if x_max is None:
        x_max = max(4 * (z + 1), 256)
    if x_max <= z + 1:
        raise ValidationError(f"x_max must exceed z+1, got {x_max}")

    def attempt(xm: int) -> np.ndarray:
        h = _solve_moment(spec, z, lam, xm)
        if not np.all(np.isfinite(h)) or np.any(h < 1.0 - 1e-9):
            raise DivergentMomentError(
                f"exponential moment diverges at rate {lam} (z={z}): "
                f"solution leaves the feasible cone on window {xm}"
            )
        return h

    h1 = attempt(x_max)
    s1 = float(h1.max())
    s2 = float(attempt(2 * x_max).max())
    d1 = s2 - s1
    sup = s2
    extrapolated = False
    if abs(d1) > 1e-9 * max(1.0, s1):
        s4 = float(attempt(4 * x_max).max())
        d2 = s4 - s2
        if d2 > 0.75 * abs(d1) + 1e-12 * s4:
            raise DivergentMomentError(
                f"exponential moment at rate {lam} (z={z}) keeps growing with the "
                f"solve window ({s1:.6e} -> {s2:.6e} -> {s4:.6e}); treated as infinite"
            )
        ratio = max(0.0, d2 / d1) if d1 > 0 else 0.0
        sup = s4 + (d2 * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else 0.0)
        extrapolated = True
    i = int(np.argmax(h1))
    return BdMomentResult(
        z=z,
        lam=lam,
        x_max=x_max,
        values=h1,
        sup=max(1.0, sup),
        sup_at=z + 1 + i,
        extrapolated=extrapolated,
    )


def find_z0(spec: BirthDeathSpec, lam: float, z_max: int = 200) -> int | None:
    """Smallest level z >= 1 whose hitting-time moment at rate lam is finite."""
    for z in range(1, z_max + 1):
        try:
            exp_moment_hitting(spec, z, lam)
        except DivergentMomentError:
            continue
        return z
    return None


@dataclass
class LogisticCertificate:
    """Bundle returned by the end-to-end logistic pipeline."""

    certificate: HypothesisCertificate
    chain: AbsorbedChain = field(repr=False)
    qsd: QsdResult = field(repr=False)
    z0: int


def logistic_certificate(
    b: float,
    d: float,
    c: float,
    tol: float = 1e-10,
    z_max: int = 200,
    n_max: int = 16384,
) -> LogisticCertificate:
    """Certify conditional mixing for the logistic chain (b, d, c).

    Anchor x0 = 1 and the core {1..z0}, with z0 the smallest level whose
    entry-time exponential moment at rate b + d is finite; the window is
    grown until the QSD stops moving.  The certificate is certify's with
    the sojourn occupancy floor (c3 = 1 at lambda0 = b + d, the exit
    rate of state 1) and c4 solved on the window at that rate.
    """
    spec = BirthDeathSpec.logistic(b, d, c)
    if d <= 0:
        raise ValidationError("need d > 0: absorption happens only through a death at 1")
    lambda0 = b + d
    z0 = find_z0(spec, lambda0, z_max=z_max)
    if z0 is None:
        raise CertificationError(
            f"no core below {z_max} has a finite entry-time moment at rate {lambda0}",
            part="z0",
        )
    qsd = compute_qsd_auto(
        spec, tol=tol, boundary_mode=REFLECT, n_start=max(32, 4 * (z0 + 1)), n_max=n_max
    )
    chain = qsd.chain
    if abs(chain.exit_rate(1) - lambda0) > 1e-12 * max(1.0, lambda0):
        raise CertificationError("window exit rate at 1 deviates from b + d", part="c3")
    cert = certify(chain, range(1, z0 + 1), 1, c3_strategy=SOJOURN)
    return LogisticCertificate(certificate=cert, chain=chain, qsd=qsd, z0=z0)


# -- reporting ----------------------------------------------------------------


@dataclass
class BdHittingReport:
    """Ladder coefficients, hitting expectations, and moment profile."""

    b: float
    d: float
    c: float
    z: int
    lambda0: float
    z0: int | None
    sup_hitting: float  # E_x T_z supremum over x (series value)
    alpha: np.ndarray
    hitting_x: np.ndarray
    hitting_values: np.ndarray
    moment: BdMomentResult | None

    def to_text(self) -> str:
        pairs = [
            ("b", fmt(self.b)),
            ("d", fmt(self.d)),
            ("c", fmt(self.c)),
            ("z", str(self.z)),
            ("lambda0", fmt(self.lambda0)),
            ("z0", "none" if self.z0 is None else str(self.z0)),
            ("sup_expected_hitting", fmt(self.sup_hitting)),
        ]
        if self.moment is not None:
            pairs.append(("moment_sup", fmt(self.moment.sup)))
            pairs.append(("moment_sup_at", str(self.moment.sup_at)))
        return render_keyvalues(pairs)


def build_bd_report(
    b: float,
    d: float,
    c: float,
    z: int | None = None,
    x_max: int = 30,
    j_max: int = 40,
    z_max: int = 200,
) -> BdHittingReport:
    spec = BirthDeathSpec.logistic(b, d, c)
    lambda0 = b + d
    z0 = find_z0(spec, lambda0, z_max=z_max)
    if z is None:
        z = z0 if z0 is not None else 1
    if x_max <= z:
        raise ValidationError(f"x_max must exceed z={z}")
    xs = np.arange(z + 1, x_max + 1)
    vals = np.empty(xs.size)
    # the hitting series is cumulative in x, one descent term per level
    running = 0.0
    for i, x in enumerate(xs):
        running += _inner_tail(spec, int(x)) / spec.rates_at(int(x))[1]
        vals[i] = running
    moment = None
    if z0 is not None:
        try:
            moment = exp_moment_hitting(spec, z, lambda0, x_max=max(x_max, 4 * (z + 1), 256))
        except DivergentMomentError:
            moment = None
    return BdHittingReport(
        b=b,
        d=d,
        c=c,
        z=z,
        lambda0=lambda0,
        z0=z0,
        sup_hitting=tail_expected_hitting(spec, z, math.inf),
        alpha=alpha_coeffs(spec, j_max),
        hitting_x=xs,
        hitting_values=vals,
        moment=moment,
    )


def alpha_to_csv(report: BdHittingReport, target) -> None:
    rows = ([str(j + 1), fmt(a)] for j, a in enumerate(report.alpha))
    write_csv(target, ["j", "alpha_j"], rows)


def hitting_to_csv(report: BdHittingReport, target) -> None:
    def rows():
        for i, x in enumerate(report.hitting_x):
            x = int(x)
            if report.moment is not None and report.z + 1 <= x <= report.moment.x_max:
                m = fmt(report.moment.value_at(x))
            else:
                m = "nan"
            yield [str(x), fmt(report.hitting_values[i]), m]

    write_csv(target, ["x", "expected_hitting", "exp_moment"], rows())
