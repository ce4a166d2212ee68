"""Closed-form analytics for birth-death chains absorbed at 0.

Birth-death paths are skip-free: from above a level z they must pass
through z on the way down, so E_x T_z = sum_{k=z+1}^{x} E_k T_{k-1} and
E_x exp(lam T_z) = prod_{k=z+1}^{x} phi_k with phi_k = E_k exp(lam T_{k-1}).
Both factors obey one-level recursions that run downward, so a single
descent from a level M gives every level below it.  Finite x anchors the
hitting-time descent at x with the ladder tail summed upward from there,
for any rate law.  The quantities over all of N (the supremum over x of
E_x T_z, that of E_x exp(lam T_z), and the core level z0) are proved
intervals for logistic specs: the descent from M runs twice, from a
floor and from a ceiling of the level-M unknown, and closed-form tails
bound what lies above M.  These feed core selection for the mixing
certificate.

Ladder coefficients are carried in log space; only ratios of them enter
a sum, so huge dynamic range is harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import REFLECT, AbsorbedChain, BirthDeathSpec
from .certify import SOJOURN, HypothesisCertificate, certify
# re-exported: tracers wrap these names on this module
from .certify import assemble_certificate, compute_c1, compute_c2, compute_c4  # noqa: F401
from .engine import QsdResult, compute_qsd_auto
from .errors import CertificationError, DivergentMomentError, ValidationError
from .textio import fmt, render_keyvalues, write_csv

# The upward ladder tail that anchors a finite-x descent stops at this
# relative increment, or raises after _MAX_TERMS levels.
_REL_TOL = 1e-15
_MAX_TERMS = 10**6

# Levels per block of rates a descent fetches at once, so memory stays
# flat however long the descent.
_DESCENT_CHUNK = 4096

# Relative width the closed-form tail may add to the E_inf T_z interval;
# it sets the level the interval bounds descend from (_descent_level).
_TAIL_WIDTH = 2.0**-20

# Relative margin that covers the rounding of one descent step or one
# closed-form term: 2**-48 = 32 units of 2**-53, against at most eight
# roundings per step.
_ROUND = 2.0**-48


def _slack(n: int) -> float:
    """Relative widening of a result built from n descent levels plus
    closed-form tails: (n + 16) * 2**-48, at least 16 n * 2**-52.

    Every descended quantity is a sum or product of positive terms, and
    each level adds at most eight roundings of relative size 2**-53 to
    it (rates, step and accumulation), so n levels stay under 8 n * 2**-53;
    the tails and their combination take a few more, covered by the 16.
    """
    return (n + 16) * _ROUND


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


def _descent_terms(spec: BirthDeathSpec, z: int, x: int, inner: float):
    """Yield the terms E_k T_{k-1} for k = x down to z+1, one list per
    chunk of _DESCENT_CHUNK levels.

    Each term is the ladder tail inner(k) = sum_{l >= k} alpha_l / alpha_k
    divided by the full downward rate d_k, with inner(x) = inner given and
    inner(k) = 1 + (b_k / d_{k+1}) inner(k+1) below (stable: the recursion
    only adds and multiplies positives).  Rates come a chunk at a time, so
    memory stays flat however long the descent.
    """
    down = 0.0
    for hi in range(x, z, -_DESCENT_CHUNK):
        ups, downs = _descent_rates(spec, max(z + 1, hi - _DESCENT_CHUNK + 1), hi)
        terms = []
        if hi == x:
            # the anchor level contributes its ladder tail as is
            down = downs.pop()
            ups.pop()
            terms.append(inner / down)
        for up_k, down_k in zip(reversed(ups), reversed(downs)):
            inner = 1.0 + (up_k / down) * inner
            down = down_k
            terms.append(inner / down)
        yield terms


def _descent_sum(spec: BirthDeathSpec, z: int, x: int, inner: float | None = None) -> float:
    """sum_{k=z+1}^{x} E_k(T_{k-1}) from one descent anchored at x, with
    inner(x) = inner, by default the ladder tail summed upward from x."""
    if inner is None:
        inner = _inner_tail(spec, x)
    total = 0.0
    for terms in _descent_terms(spec, z, x, inner):
        for t in terms:
            total += t
    return total


def _logistic_params(spec: BirthDeathSpec) -> tuple[float, float, float]:
    """(b, d, c) of a logistic spec with c > 0.

    The bounds over all of N need the logistic rate law.  With c = 0 they
    are infinite by proof: d_k = d k, so sum_k 1/d_k diverges, and both
    E_inf T_z >= sum_{k>z} 1/d_k and sup_x E_x exp(lam T_z) >=
    exp(lam sum_{k>z} 1/d_k) (see exp_moment_hitting) are infinite.
    """
    if spec.params is None:
        raise ValidationError("bounds over all levels need BirthDeathSpec.logistic rates")
    if spec.params[2] == 0:
        raise DivergentMomentError("c = 0: sum_k 1/d_k diverges, so the supremum is infinite")
    return spec.params


def _ladder_tail(b: float, d: float, c: float, m: int) -> tuple[float, float, float]:
    """(r_m, lower, upper) with r_m = sup_{l >= m} b_l / d_{l+1} and
    lower <= sum_{k > m} 1/d_k <= upper.

    b_l / d_{l+1} = b l / ((l+1)(c l + d)) has derivative of the sign of
    d - c l^2, so for m^2 >= d/c its supremum over l >= m is its value at
    m.  1/d_x = 1/(x(c x + a)), a = d - c, decreases in x, so the sum
    over k > m lies between the integrals of 1/d_x from m+1 and from m;
    that integral from x is log1p(a/(c x))/a, or 1/(c x) when a = 0.
    r_m is rounded up by _ROUND.
    """
    a = d - c

    def integral(x: int) -> float:
        return 1.0 / (c * x) if a == 0 else math.log1p(a / (c * x)) / a

    r = b * m / ((m + 1) * (c * m + d)) * (1.0 + _ROUND)
    return r, integral(m + 1), integral(m)


def _ceiling(spec: BirthDeathSpec, lam: float, m: int) -> tuple[float, float] | None:
    """(theta, psi_{m+1}) with psi_k = 1 + theta/d_k a supersolution of
    the moment step above m (see exp_moment_hitting), or None.

    psi is a supersolution when psi_k >= d_k/(b_k + d_k - lam - b_k psi_{k+1})
    with a positive denominator for every k > m.  Multiplied out, with
    r_k = b_k/d_{k+1}, that reads theta(1 - r_k) - (theta lam + theta^2 r_k)/d_k
    >= lam, and r_k <= r_m, 1/d_k <= 1/D with D = d_{m+1}, so it is enough
    that g(theta) = A theta - (r_m/D) theta^2 - lam >= 0, A = 1 - r_m - lam/D.
    The smallest root of g is 2 lam/(A + sqrt(A^2 - 4 r_m lam/D)).  It is
    used only when A >= 1/2 and the discriminant is at least A^2/4: then
    the roots differ by a factor of at least 3 and the computed root is
    within 24 roundings of the exact one, so raised by _ROUND it lies
    between them, where g > 0.  (A constant ceiling psi > 1 is no use:
    its tail product over k > m is infinite.)
    """
    b, d, c = spec.params
    big_d = (m + 1) * (d + c * m)
    r = _ladder_tail(b, d, c, m)[0]
    a = 1.0 - r - lam / big_d
    disc = a * a - 4.0 * r * lam / big_d
    if a < 0.5 or disc < 0.25 * a * a:
        return None
    theta = 2.0 * lam / (a + math.sqrt(disc)) * (1.0 + _ROUND)
    return theta, (1.0 + theta / big_d) * (1.0 + _ROUND)


def _admissible_levels(spec: BirthDeathSpec, z: int, lam: float | None):
    """The powers of two M from 2**10 to 2**22, smallest first, with
    M > z and M^2 >= d/c (so r_M is the supremum of the ratios above M),
    r_M < 1 and a ceiling supersolution at rate lam when one is given:
    the levels a descent from M can prove anything from."""
    b, d, c = _logistic_params(spec)
    for m in (2**j for j in range(10, 23)):
        if m > z and m * m * c >= d and _ladder_tail(b, d, c, m)[0] < 1.0:
            if lam is None or _ceiling(spec, lam, m) is not None:
                yield m


def _descent_level(spec: BirthDeathSpec, z: int, lam: float | None = None) -> int:
    """The level M the interval bounds descend from.

    The smallest admissible level (_admissible_levels) whose closed-form
    tail has its own width upper/(1 - r_M) - lower at most _TAIL_WIDTH
    times the integral of 1/d_x from max(z, 1) + 1, a lower bound on
    E_inf T_z.  That width falls like 1/M^2.  Past 2**22 nothing is
    proved: DivergentMomentError.
    """
    b, d, c = _logistic_params(spec)
    want = _TAIL_WIDTH * _ladder_tail(b, d, c, max(z, 1))[1]
    for m in _admissible_levels(spec, z, lam):
        r, lower, upper = _ladder_tail(b, d, c, m)
        if upper / (1.0 - r) - lower <= want:
            return m
    raise DivergentMomentError("no descent level up to 2**22 bounds the tail; not proved finite")


def tail_expected_hitting(spec: BirthDeathSpec, z: int, x: int) -> float:
    """E_x(time to reach z) for a birth-death chain, x > z >= 0.

    The exact finite sum sum_{k=z+1}^{x} E_k T_{k-1} (any spec), from one
    descent anchored at x with the ladder tail summed upward from x.  The
    rate callables are evaluated on float arrays of levels, a few
    thousand at a time (BirthDeathSpec.rates_on), so they must be
    elementwise; the recursion runs level by level on plain floats,
    giving the same bits as one rates_at call per level.  A bad rate
    raises ValidationError naming the highest bad level below x.
    """
    if z < 0:
        raise ValidationError(f"target level z must be >= 0, got {z}")
    if not math.isfinite(x):
        raise ValidationError("x must be finite; hitting_from_infinity bounds E_inf T_z")
    x = int(x)
    if x <= z:
        raise ValidationError(f"need x > z, got x={x}, z={z}")
    return _descent_sum(spec, z, x)


def hitting_from_infinity(spec: BirthDeathSpec, z: int) -> tuple[float, float]:
    """E_inf T_z = sup_x E_x T_z as a proved interval (lo, hi), for
    logistic specs, z >= 0.

    Above the level M of _descent_level, r_M = sup_{l >= M} b_l/d_{l+1}
    < 1, so every ladder tail inner(k), k >= M, lies in [1, 1/(1 - r_M)]
    (it is a sum of products of such ratios, the empty one first).  The
    descent from M is increasing in inner(M), so anchoring it at 1 and
    at 1/(1 - r_M) bounds the levels z+1..M, and sum_{k>M} inner(k)/d_k
    lies between lower and upper/(1 - r_M) of _ladder_tail.  Both ends
    widen by _slack(M - z).  c = 0 raises DivergentMomentError (proved
    infinite); other specs raise ValidationError.
    """
    if z < 0:
        raise ValidationError(f"target level z must be >= 0, got {z}")
    m = _descent_level(spec, z)
    r, lower, upper = _ladder_tail(*spec.params, m)
    top = 1.0 / (1.0 - r)
    s = _slack(m - z)
    lo = (_descent_sum(spec, z, m, 1.0) + lower) * (1.0 - s)
    hi = (_descent_sum(spec, z, m, top) + top * upper) * (1.0 + s)
    return lo, hi


@dataclass
class BdMomentResult:
    """Exponential moment h(x) = E_x exp(lam * T_z): proved ceilings of
    h on z+1..x_max, and the supremum over all x within [sup_lo, sup]."""

    z: int
    lam: float
    x_max: int
    values: np.ndarray
    sup: float
    sup_lo: float

    def value_at(self, x: int) -> float:
        if not self.z + 1 <= x <= self.x_max:
            raise ValidationError(f"x={x} outside computed range {self.z + 1}..{self.x_max}")
        return float(self.values[x - self.z - 1])


def _solve_moment(spec: BirthDeathSpec, z: int, lam: float, m: int, top: float, up: bool,
                  keep: int = 0) -> tuple[float, list, int | None]:
    """Descend phi_k = d_k/(b_k + d_k - lam - b_k phi_{k+1}) from
    phi_{m+1} = top down to k = z+1.

    Returns (product of phi_k over z+1..m, [phi_{z+1}..phi_keep], None),
    or (_, _, k) for the highest level k whose denominator is <= 0.
    The step is increasing in phi_{k+1}, so a ceiling (floor) of
    phi_{m+1} gives ceilings (floors) below.  up=True rounds every step
    up: rates and lam are perturbed by _ROUND against the result, which
    covers the roundings of the rates and the step, so the denominator
    computed is at most the exact one and the quotient at least the
    exact one; up=False rounds down the same way.
    """
    e = _ROUND if up else -_ROUND
    shrink, grow, lam_e = 1.0 - e, 1.0 + e, lam * (1.0 + e)
    phi, prod, kept = top, 1.0, []
    k = m
    for hi in range(m, z, -_DESCENT_CHUNK):
        ups, downs = _descent_rates(spec, max(z + 1, hi - _DESCENT_CHUNK + 1), hi)
        for up_k, down_k in zip(reversed(ups), reversed(downs)):
            den = (up_k + down_k) * shrink - lam_e - up_k * phi * grow
            if den <= 0.0:
                return prod, kept, k
            phi = down_k * grow / den
            prod *= phi
            if k <= keep:
                kept.append(phi)
            k -= 1
    return prod, kept[::-1], None


def exp_moment_hitting(spec: BirthDeathSpec, z: int, lam: float, x_max: int | None = None
                       ) -> BdMomentResult:
    """Moments E_x exp(lam * T_z): ceilings for x in z+1..x_max and the
    supremum over all x as a proved interval, for logistic specs.

    E_x exp(lam T_z) = prod_{k=z+1}^{x} phi_k and every phi_k >= 1, so
    the supremum is the whole product over k > z.  Descending from the
    level M of _descent_level (at least x_max):

    - Ceiling.  Above M, phi_k <= psi_k = 1 + theta/d_k from _ceiling:
      psi is a supersolution with positive denominators, so by induction
      it dominates the moments of the chain killed above any level N
      (phi^N_{N+1} = 0), which increase to phi.  Descending from
      psi_{M+1} gives ceilings of phi_k for k <= M, and
      prod_{k>M} psi_k <= exp(theta * upper) by 1 + y <= e^y.
    - Floor.  phi_{M+1} >= 1, so descending from 1 gives floors of phi_k
      for k <= M, and prod_{k>M} phi_k >= exp(lam * lower) since
      phi_k >= exp(lam E_k T_{k-1}) >= exp(lam/d_k) by Jensen.

    A floor denominator <= 0 proves phi_k infinite (a finite phi_k times
    the exact denominator is d_k > 0) and raises DivergentMomentError as
    diverging; a ceiling denominator <= 0 raises it as not proved
    finite.  Both ends and the values widen by _slack(M - z).  c = 0
    diverges by proof; other specs raise ValidationError.
    """
    if z < 0 or not (lam > 0 and math.isfinite(lam)):
        raise ValidationError(f"need z >= 0 and a finite rate lam > 0, got z={z}, lam={lam}")
    x_max = max(4 * (z + 1), 256) if x_max is None else x_max
    if x_max <= z + 1:
        raise ValidationError(f"x_max must exceed z+1, got {x_max}")
    m = max(_descent_level(spec, z, lam), x_max)
    theta, top = _ceiling(spec, lam, m)
    _, lower, upper = _ladder_tail(*spec.params, m)
    floor_prod, _, bad = _solve_moment(spec, z, lam, m, 1.0, False)
    if bad is not None:
        raise DivergentMomentError(f"exponential moment diverges at rate {lam} (z={z}): "
                                   f"E_k exp(lam T_k-1) is infinite at level {bad}")
    ceil_prod, phis, bad = _solve_moment(spec, z, lam, m, top, True, x_max)
    s = _slack(m - z)
    sup = ceil_prod * math.exp(theta * upper) * (1.0 + s)
    if bad is not None or not math.isfinite(sup):
        where = "overflows" if bad is None else f"fails at level {bad}"
        raise DivergentMomentError(f"exponential moment at rate {lam} (z={z}) is not proved "
                                   f"finite: the ceiling descent from level {m} {where}")
    return BdMomentResult(z, lam, x_max, np.cumprod(phis) * (1.0 + s), sup,
                          floor_prod * math.exp(lam * lower) * (1.0 - s))


def find_z0(spec: BirthDeathSpec, lam: float, z_max: int = 200) -> int | None:
    """Smallest level z >= 1 whose hitting-time moment at rate lam is
    proved finite, for logistic specs; None if it exceeds z_max.

    E_x exp(lam T_z) is finite for every x exactly when phi_k is finite
    for every k > z, so z0 is the highest level at which the ceiling
    descent of exp_moment_hitting fails, or 1 if it never fails.  z0
    needs no tail width, so the descent starts at the smallest
    admissible level above 1 (_admissible_levels); a lower start can
    only loosen the ceilings and raise z0, never lower it below the
    true level.  c = 0, or no admissible level up to 2**22, gives None.
    """
    try:
        m = next(_admissible_levels(spec, 1, lam))
    except (DivergentMomentError, StopIteration):
        return None
    z0 = _solve_moment(spec, 1, lam, m, _ceiling(spec, lam, m)[1], True)[2] or 1
    return z0 if z0 <= z_max else None


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
) -> LogisticCertificate:
    """Certify conditional mixing for the logistic chain (b, d, c).

    Anchor x0 = 1 and the core {1..z0}, with z0 the smallest level whose
    entry-time exponential moment at rate b + d is proved finite
    (find_z0); the window is
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
    qsd = compute_qsd_auto(spec, tol=tol, boundary_mode=REFLECT, n_start=max(32, 4 * (z0 + 1)))
    chain = qsd.chain
    if abs(chain.exit_rate(1) - lambda0) > 1e-12 * max(1.0, lambda0):
        raise CertificationError("window exit rate at 1 deviates from b + d", part="c3")
    cert = certify(chain, range(1, z0 + 1), 1, c3_strategy=SOJOURN)
    return LogisticCertificate(certificate=cert, chain=chain, qsd=qsd, z0=z0)


# -- reporting ----------------------------------------------------------------


@dataclass
class BdHittingReport:
    """Ladder coefficients, hitting expectations, and moment profile.

    sup_hitting_lo..sup_hitting encloses E_inf T_z; the text reports
    each interval by its upper end with a _lo line after it.
    """

    b: float
    d: float
    c: float
    z: int
    lambda0: float
    z0: int | None
    sup_hitting: float
    sup_hitting_lo: float
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
            ("sup_expected_hitting_lo", fmt(self.sup_hitting_lo)),
        ]
        if self.moment is not None:
            pairs.append(("moment_sup", fmt(self.moment.sup)))
            pairs.append(("moment_sup_lo", fmt(self.moment.sup_lo)))
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
    # first, so a c = 0 set fails on its proof before the ladder-tail scan
    sup_lo, sup_hi = hitting_from_infinity(spec, z)
    # E_x T_z is cumulative in x: the terms of one descent from x_max
    terms = [t for chunk in _descent_terms(spec, z, x_max, _inner_tail(spec, x_max)) for t in chunk]
    moment = None
    if z0 is not None:
        try:
            moment = exp_moment_hitting(spec, z, lambda0, x_max=max(x_max, z + 2))
        except DivergentMomentError:
            moment = None
    return BdHittingReport(
        b=b,
        d=d,
        c=c,
        z=z,
        lambda0=lambda0,
        z0=z0,
        sup_hitting=sup_hi,
        sup_hitting_lo=sup_lo,
        alpha=alpha_coeffs(spec, j_max),
        hitting_x=np.arange(z + 1, x_max + 1),
        hitting_values=np.cumsum(terms[::-1]),
        moment=moment,
    )


def alpha_to_csv(report: BdHittingReport, target) -> None:
    rows = ([str(j + 1), fmt(a)] for j, a in enumerate(report.alpha))
    write_csv(target, ["j", "alpha_j"], rows)


def hitting_to_csv(report: BdHittingReport, target) -> None:
    def rows():
        for i, x in enumerate(report.hitting_x):
            x = int(x)
            m = "nan" if report.moment is None else fmt(report.moment.value_at(x))
            yield [str(x), fmt(report.hitting_values[i]), m]

    write_csv(target, ["x", "expected_hitting", "exp_moment"], rows())
