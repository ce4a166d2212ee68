import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasistat import (
    BirthDeathSpec,
    CertificationError,
    DivergentMomentError,
    ValidationError,
    alpha_coeffs,
    alpha_to_csv,
    build_bd_report,
    exp_moment_hitting,
    find_z0,
    hitting_from_infinity,
    hitting_to_csv,
    logistic_certificate,
    tail_expected_hitting,
)
import quasistat.bd as bd_mod
from quasistat.bd import _DESCENT_CHUNK, _descent_sum, _inner_tail
from quasistat.cli import main

from conftest import (
    assert_rate_within_gap,
    bd_hitting_oracle,
    bd_moment_oracle,
    descent_sum_oracle,
    moment_descent_oracle,
)

LOGISTIC = BirthDeathSpec.logistic(1.0, 1.0, 1.0)


# -- ladder coefficients -----------------------------------------------------


def test_alpha_first_value():
    a = alpha_coeffs(LOGISTIC, 5)
    assert a[0] == pytest.approx(1.0)  # alpha_1 = 1/d_1 = 1
    # alpha_2 = b_1 / (d_1 d_2) with the crowding term: 1 / (1 * 4)
    assert a[1] == pytest.approx(0.25)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_alpha_recursion(b, d, c):
    spec = BirthDeathSpec.logistic(b, d, c)
    a = alpha_coeffs(spec, 25)
    for j in range(1, 25):
        up, _ = spec.rates_at(j)
        _, down = spec.rates_at(j + 1)
        assert a[j] == pytest.approx(a[j - 1] * up / down, rel=1e-12)


def test_alpha_requires_positive_deaths():
    spec = BirthDeathSpec(birth_rate=lambda x: 1.0, death_rate=lambda x: 0.0)
    with pytest.raises(ValidationError):
        alpha_coeffs(spec, 3)
    with pytest.raises(ValidationError):
        alpha_coeffs(LOGISTIC, 0)


def test_alpha_survives_huge_dynamic_range():
    # log-space products: no exception even when the ladder outgrows
    # float range; overflowing entries saturate to +inf
    spec = BirthDeathSpec.logistic(100.0, 1e-3, 0.0)
    a = alpha_coeffs(spec, 300)
    assert np.all(a >= 0)
    assert np.isfinite(a[0])
    assert math.isinf(a[-1])
    # steep subcritical ladders underflow to 0 without complaint
    tiny = alpha_coeffs(BirthDeathSpec.logistic(1e-3, 100.0, 0.0), 300)
    assert np.all(np.isfinite(tiny)) and tiny[-1] == 0.0


# -- expected hitting times ---------------------------------------------------


def test_hitting_matches_linear_solve_oracle():
    oracle = bd_hitting_oracle(LOGISTIC, 1, 2000)
    for x in range(2, 31):
        s = tail_expected_hitting(LOGISTIC, 1, x)
        assert s == pytest.approx(float(oracle[x - 2]), rel=1e-10)


def test_hitting_other_target_level():
    oracle = bd_hitting_oracle(LOGISTIC, 3, 2000)
    for x in range(4, 31):
        s = tail_expected_hitting(LOGISTIC, 3, x)
        assert s == pytest.approx(float(oracle[x - 4]), rel=1e-10)


def test_hitting_pure_death_closed_form():
    spec = BirthDeathSpec.logistic(0.0, 1.0, 0.0)  # death rate x, no births
    want = sum(1.0 / k for k in range(2, 6))
    assert tail_expected_hitting(spec, 1, 5) == pytest.approx(want, rel=1e-14)


def test_hitting_crowding_term_belongs_in_the_divisor():
    # the full downward rate at k is d*k + c*k*(k-1); dividing by d*k
    # alone inflates every term and badly misses the solve oracle
    def wrong(spec, z, x, d):
        return sum(_inner_tail(spec, k) / (d * k) for k in range(z + 1, x + 1))

    oracle = float(bd_hitting_oracle(LOGISTIC, 1, 2000)[8])  # x = 10
    right = tail_expected_hitting(LOGISTIC, 1, 10)
    bad = wrong(LOGISTIC, 1, 10, 1.0)
    assert abs(right - oracle) / oracle < 1e-10
    assert abs(bad - oracle) / oracle > 1e-3


def test_inner_tail_evaluates_each_level_once():
    # the ladder reads level l + 1 to step up from l; the next step must
    # reuse those rates, not evaluate the callables at l + 1 again
    seen = {"birth": [], "death": []}

    def counted(label, rate):
        def f(x):
            seen[label].append(x)
            return rate(x)
        return f

    spec = BirthDeathSpec(
        birth_rate=counted("birth", LOGISTIC.birth_rate),
        death_rate=counted("death", LOGISTIC.death_rate),
    )
    assert _inner_tail(spec, 3) == _inner_tail(LOGISTIC, 3)
    levels = seen["birth"]
    assert len(levels) > 10 and levels == list(range(3, 3 + len(levels)))
    assert seen["death"] == levels


def assert_encloses_truncation(params, z, lo, hi):
    """Check (lo, hi) against E_{10**6} T_z plus what the levels above
    10**6 carry.

    That remainder is sum_{k>n} inner(k)/d_k, n = 10**6.  For c >= 0.01
    and b, d <= 3, every inner(k) there lies in [1, 1 + 3e-4] and
    sum_{k>n} 1/d_k is 1/(c n) to within 2e-4 relative, so E_inf T_z
    lies in old + [1 - 1e-3, 1 + 1e-3]/(c n), old = E_{10**6} T_z.  The
    interval must meet that range; with a width of at most 1e-6 relative
    it then sits within about 1e-6 relative of the truth.
    """
    n = 10**6
    old = tail_expected_hitting(BirthDeathSpec.logistic(*params), z, n)
    beyond = 1.0 / (params[2] * n)
    assert old < lo <= hi and (hi - lo) / hi <= 1e-6
    assert lo <= old + beyond * (1 + 1e-3)
    assert old + beyond * (1 - 1e-3) <= hi


def test_hitting_supremum_bounds_every_start():
    lo, hi = hitting_from_infinity(LOGISTIC, 1)
    for x in [2, 5, 10, 100, 1000]:
        assert tail_expected_hitting(LOGISTIC, 1, x) < lo
    # the sum to level 10**6 is a truncation: it falls short of the
    # proved lower end by about the 1e-6 the levels above it carry
    assert_encloses_truncation((1, 1, 1), 1, lo, hi)


def test_hitting_supremum_needs_the_logistic_law():
    spec = BirthDeathSpec(birth_rate=lambda x: x, death_rate=lambda x: x * x)
    assert tail_expected_hitting(spec, 1, 50) > 0  # finite x works for any spec
    with pytest.raises(ValidationError):
        hitting_from_infinity(spec, 1)
    with pytest.raises(ValidationError):
        exp_moment_hitting(spec, 1, 1.0)


def test_hitting_divergence_detected():
    # supercritical: mass escapes upward, the ladder tail is not summable
    with pytest.raises(DivergentMomentError):
        hitting_from_infinity(BirthDeathSpec.logistic(2.0, 1.0, 0.0), 1)
    # critical unit-rate walk: null recurrent, expectation infinite
    with pytest.raises(DivergentMomentError):
        hitting_from_infinity(BirthDeathSpec.logistic(1.0, 1.0, 0.0), 1)
    # harmonic tail: every descent costs ~1/k, the sum grows like log
    with pytest.raises(DivergentMomentError):
        hitting_from_infinity(BirthDeathSpec.logistic(0.0, 1.0, 0.0), 1)


def test_hitting_rejects_bad_levels():
    with pytest.raises(ValidationError):
        tail_expected_hitting(LOGISTIC, -1, 5)
    with pytest.raises(ValidationError):
        tail_expected_hitting(LOGISTIC, 1, math.inf)
    with pytest.raises(ValidationError):
        hitting_from_infinity(LOGISTIC, -1)
    with pytest.raises(ValidationError):
        tail_expected_hitting(LOGISTIC, 3, 3)


# -- chunked ladder descent ----------------------------------------------------

SPAN_LENGTHS = [1, _DESCENT_CHUNK - 1, _DESCENT_CHUNK, _DESCENT_CHUNK + 1, 3 * _DESCENT_CHUNK + 5]


@pytest.mark.parametrize("span", SPAN_LENGTHS)
@pytest.mark.parametrize("params,z", [((1.0, 1.0, 1.0), 1), ((2.0, 1.0, 0.25), 0), ((3, 1, 0.0505), 45)])
def test_descent_matches_per_level_oracle_exactly(params, z, span):
    spec = BirthDeathSpec.logistic(*params)
    assert _descent_sum(spec, z, z + span) == descent_sum_oracle(spec, z, z + span)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.02, max_value=2.0),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=2 * _DESCENT_CHUNK + 3),
)
def test_descent_matches_oracle_on_drawn_logistics(b, d, c, z, span):
    # steep ladders overflow the anchor's tail; both must then raise alike
    def outcome(descent):
        try:
            return descent(spec, z, z + span)
        except DivergentMomentError as exc:
            return str(exc)

    spec = BirthDeathSpec.logistic(b, d, c)
    assert outcome(_descent_sum) == outcome(descent_sum_oracle)


def test_hitting_supremum_matches_per_level_descent(monkeypatch):
    # both ends come from chunked descents from the same level, anchored
    # at the floor and the ceiling of its ladder tail
    got = hitting_from_infinity(LOGISTIC, 1)
    monkeypatch.setattr(bd_mod, "_descent_sum", descent_sum_oracle)
    assert got == hitting_from_infinity(LOGISTIC, 1)


def _spec_with_bad_levels(bad_birth=(), zero_death=()):
    """Unit rates except a negative birth rate or a zero death rate on the
    given levels; the callables work on scalars and arrays alike."""

    def birth(x):
        return np.where(np.isin(x, bad_birth), -1.0, 1.0)

    def death(x):
        return np.where(np.isin(x, zero_death), 0.0, 2.0)

    return BirthDeathSpec(birth_rate=birth, death_rate=death)


@pytest.mark.parametrize(
    "bad",
    [
        {"zero_death": [700]},
        {"bad_birth": [700]},
        {"zero_death": [50, 700]},
        {"bad_birth": [50], "zero_death": [700]},
        {"bad_birth": [700], "zero_death": [50]},
        {"zero_death": [50, 700, 5000]},
        {"bad_birth": [700], "zero_death": [700]},
        {"zero_death": [_DESCENT_CHUNK + 12]},
        {"zero_death": [12]},
    ],
)
def test_descent_errors_name_the_highest_bad_level(bad):
    spec = _spec_with_bad_levels(**bad)
    x = 12 + 2 * _DESCENT_CHUNK
    with pytest.raises(ValidationError) as want:
        descent_sum_oracle(spec, 3, x)
    with pytest.raises(ValidationError) as got:
        _descent_sum(spec, 3, x)
    assert str(got.value) == str(want.value)


def test_hitting_supremum_peak_memory_stays_flat():
    # the descent holds one chunk of rates at a time; whole doubling
    # blocks of Python floats would peak near 40 MiB
    tracemalloc.start()
    try:
        hitting_from_infinity(LOGISTIC, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# -- exponential moments -------------------------------------------------------


def test_moment_matches_dense_oracle():
    # the ceilings at finite x sit on the window solve: 1024 levels cut
    # off nothing visible at x <= 64
    res = exp_moment_hitting(LOGISTIC, 1, 2.0, x_max=256)
    oracle = bd_moment_oracle(LOGISTIC, 1, 2.0, 1024)
    for x in range(2, 65):
        assert res.value_at(x) == pytest.approx(float(oracle[x - 2]), rel=1e-10)
        assert res.value_at(x) >= float(oracle[x - 2])


def test_moment_tends_to_one_at_small_rates():
    res = exp_moment_hitting(LOGISTIC, 1, 1e-10)
    assert res.sup == pytest.approx(1.0, abs=1e-6)
    assert 1.0 <= res.sup_lo <= res.sup


def test_moment_monotone_in_rate():
    sups = [exp_moment_hitting(LOGISTIC, 1, lam).sup for lam in (0.5, 1.0, 2.0)]
    assert sups[0] <= sups[1] <= sups[2]
    assert all(s >= 1 for s in sups)


def test_moment_sup_does_not_depend_on_x_max():
    # x_max only sets how many finite-x values are kept
    a = exp_moment_hitting(LOGISTIC, 1, 2.0, x_max=128)
    b = exp_moment_hitting(LOGISTIC, 1, 2.0, x_max=512)
    assert (a.sup_lo, a.sup) == (b.sup_lo, b.sup)
    assert np.array_equal(a.values, b.values[:a.values.size])


def test_moment_divergence_raises():
    sub = BirthDeathSpec.logistic(1.0, 2.0, 0.0)
    # critical rate for the linear chain is (sqrt(2)-1)^2, far below 3;
    # with c = 0 every supremum over all levels is infinite anyway
    with pytest.raises(DivergentMomentError):
        exp_moment_hitting(sub, 1, 3.0)
    # d_2 = 4 < lam: the floor descent proves E_2 exp(lam T_1) infinite
    with pytest.raises(DivergentMomentError, match="diverges"):
        exp_moment_hitting(LOGISTIC, 1, 50.0)


def test_moment_validates_arguments():
    with pytest.raises(ValidationError):
        exp_moment_hitting(LOGISTIC, 1, -1.0)
    with pytest.raises(ValidationError):
        exp_moment_hitting(LOGISTIC, 1, 2.0, x_max=2)
    res = exp_moment_hitting(LOGISTIC, 1, 2.0)
    with pytest.raises(ValidationError):
        res.value_at(1)  # below the computed range


def test_find_z0_logistic():
    assert find_z0(LOGISTIC, 2.0) == 1
    assert find_z0(BirthDeathSpec.logistic(2.0, 1.0, 0.25), 3.0) == 6


def test_find_z0_none_when_hopeless():
    assert find_z0(BirthDeathSpec.logistic(1.0, 2.0, 0.0), 3.0, z_max=5) is None
    # z0 = 60 lies above z_max
    assert find_z0(BirthDeathSpec.logistic(2.0, 1.0, 0.0205), 3.0, z_max=59) is None


# z0 at rate b + d: the seven certify benchmark sets, the two table sets
# not among them, and three small-c chains on which the earlier
# window-growth test wrongly read divergence (it gave 73, 75 and 64)
Z0_PINS = {
    (1, 1, 1): 1, (0.5, 1, 0.2): 2, (0.5, 1, 0.05): 3, (2, 1, 0.25): 6, (1, 1, 0.05): 9,
    (2, 1, 0.1): 14, (3, 1, 0.0505): 45, (2, 1, 0.05): 27, (2, 1, 0.0205): 60,
    (2.676, 2.43, 0.0154): 56, (2.12, 1.89, 0.0117): 59, (1.694, 1.622, 0.0115): 45,
}


@pytest.mark.parametrize("params", sorted(Z0_PINS))
def test_find_z0_pinned_levels(params):
    spec = BirthDeathSpec.logistic(*params)
    assert find_z0(spec, params[0] + params[1]) == Z0_PINS[params]


def test_find_z0_stable_under_bench_jitter():
    # the benchmark draws each rate within +-0.2 % of its set
    rng = np.random.default_rng(20)
    for params in [(1, 1, 1), (0.5, 1, 0.2), (0.5, 1, 0.05), (2, 1, 0.25), (1, 1, 0.05),
                   (2, 1, 0.1), (3, 1, 0.0505)]:
        for _ in range(4):
            b, d, c = np.asarray(params) * (1 + rng.uniform(-0.002, 0.002, 3))
            assert find_z0(BirthDeathSpec.logistic(b, d, c), b + d) == Z0_PINS[params]


# the table sets with the transient size n of their certificate windows
TABLE_SETS = {(1, 1, 1): 63, (2, 1, 0.25): 63, (1, 1, 0.05): 79, (2, 1, 0.05): 223,
              (2, 1, 0.0205): 487}


@pytest.mark.parametrize("params", sorted(TABLE_SETS))
def test_enclosures_at_z0_on_table_sets(params):
    spec = BirthDeathSpec.logistic(*params)
    lam = params[0] + params[1]
    z = Z0_PINS[params]
    assert_encloses_truncation(params, z, *hitting_from_infinity(spec, z))
    res = exp_moment_hitting(spec, z, lam)
    assert (res.sup - res.sup_lo) / res.sup <= 1e-5
    n = TABLE_SETS[params]
    for levels in (n, 2 * n + 1, 4 * n + 3, 16384):
        assert bd_moment_oracle(spec, z, lam, z + levels).max() <= res.sup


@pytest.mark.parametrize("params,z", [((1, 1, 1), 1), ((2, 1, 0.25), 6)])
def test_intervals_nest_as_the_descent_level_grows(params, z, monkeypatch):
    # from level 64, from the chosen level M and from 8 M: each interval
    # must lie inside the one before, and the ceilings from level 64 must
    # stay above the window solve on 16384 levels
    spec = BirthDeathSpec.logistic(*params)
    lam = params[0] + params[1]
    chosen = bd_mod._descent_level
    runs = []
    for level in (lambda *a: 64, chosen, lambda *a: 8 * chosen(*a)):
        monkeypatch.setattr(bd_mod, "_descent_level", level)
        runs.append((hitting_from_infinity(spec, z), exp_moment_hitting(spec, z, lam, 64)))
    for (hit_a, mom_a), (hit_b, mom_b) in zip(runs, runs[1:]):
        assert hit_a[0] <= hit_b[0] <= hit_b[1] <= hit_a[1]
        assert mom_a.sup_lo <= mom_b.sup_lo <= mom_b.sup <= mom_a.sup
    window = bd_moment_oracle(spec, z, lam, z + 16384)
    assert np.all(window[:64 - z] <= runs[0][1].values)


@pytest.mark.parametrize("params,z,m", [((1, 1, 1), 1, 3), ((1, 1, 1), 1, 8), ((1, 3, 2), 1, 3),
                                        ((2, 1, 0.25), 6, 16)])
def test_intervals_cover_every_admitted_anchor_at_a_small_level(params, z, m, monkeypatch):
    # From level M the proofs admit any unknown at M between its floor
    # and its ceiling (ladder tail in [1, 1/(1 - r_M)], phi_{M+1} in
    # [1, psi_{M+1}]) and any remainder between the closed-form tail
    # bounds; each end must cover its extreme corner.  At the default M
    # the anchors move the ends by O(1/M^3), inside the O(1/M^2) tail
    # slack; at a small M they move them by up to half.  The anchor-1
    # corners are the reflected window solves.
    spec = BirthDeathSpec.logistic(*params)
    lam = params[0] + params[1]
    monkeypatch.setattr(bd_mod, "_descent_level", lambda *a: m)
    r, lower, upper = bd_mod._ladder_tail(*params, m)
    top = 1.0 / (1.0 - r)
    lo, hi = hitting_from_infinity(spec, z)
    assert lo <= bd_hitting_oracle(spec, z, m)[-1] + lower
    assert descent_sum_oracle(spec, z, m, top) + top * upper <= hi
    theta, psi = bd_mod._ceiling(spec, lam, m)
    res = exp_moment_hitting(spec, z, lam, x_max=m)
    assert res.sup_lo <= bd_moment_oracle(spec, z, lam, m)[-1] * math.exp(lam * lower)
    assert moment_descent_oracle(spec, z, lam, m, psi) * math.exp(theta * upper) <= res.sup


def test_small_c_chain_moment_and_hitting_enclosures():
    spec = BirthDeathSpec.logistic(2.676, 2.43, 0.0154)
    lam = 2.676 + 2.43
    res = exp_moment_hitting(spec, 56, lam, x_max=356)
    window = bd_moment_oracle(spec, 56, lam, 16384)
    assert window.max() == pytest.approx(11806.1, abs=0.05)
    assert window.max() < res.sup_lo <= res.sup < 12068.3
    # at finite x the ceilings sit on the window solve
    ceil = res.values
    assert np.all(window[:ceil.size] <= ceil)
    assert np.all(ceil - window[:ceil.size] <= 1e-8 * ceil)
    for params in [(2.676, 2.43, 0.0154), (2.12, 1.89, 0.0117), (1.694, 1.622, 0.0115)]:
        spec = BirthDeathSpec.logistic(*params)
        z = Z0_PINS[params]
        assert_encloses_truncation(params, z, *hitting_from_infinity(spec, z))


# -- end-to-end logistic pipeline ------------------------------------------------


def test_logistic_certificate_pipeline():
    lc = logistic_certificate(1.0, 1.0, 1.0)
    cert = lc.certificate
    assert lc.z0 == 1
    assert cert.K == (1,)
    assert cert.x0 == 1
    assert cert.c2 == 1.0 and cert.c3 == 1.0
    assert cert.lambda0 == pytest.approx(2.0)
    assert 0 < cert.gamma <= 0.5
    assert cert.n_states == lc.chain.n_states == lc.qsd.truncation_n
    assert lc.qsd.top_mass < 1e-12


# the benchmark's certify sets, by core size z0: 1, 2, 3, 6, 9, 14 and 45
CERTIFY_SETS = [(1, 1, 1), (0.5, 1, 0.2), (0.5, 1, 0.05), (2, 1, 0.25), (1, 1, 0.05),
                (2, 1, 0.1), (3, 1, 0.0505)]


@pytest.mark.parametrize("params", CERTIFY_SETS, ids=str)
def test_logistic_certificate_decays_no_faster_than_its_window_gap(params):
    # rates run from 6.9e-23 to 3.5e-2 against gaps from 0.616 to 3.07
    lc = bd_mod.logistic_certificate(*params)
    rate, gap = assert_rate_within_gap(lc.chain, lc.certificate)
    assert 0 < rate < 0.04 and 0.6 < gap < 3.1


def test_spectral_yardstick_fails_a_rate_past_the_gap():
    # c1 = c2 = c3 = c4 = 1 give gamma = 0.5 and rate ln 2 = 0.693, above
    # the gap 0.616 of the 80-state (1, 1, 0.05) window
    lc = bd_mod.logistic_certificate(1.0, 1.0, 0.05)
    inflated = dataclasses.replace(lc.certificate, c1=1.0, c2=1.0, c3=1.0, c4=1.0, gamma=None)
    assert inflated.gamma == 0.5 and lc.chain.n_states == 80
    with pytest.raises(AssertionError, match="exceeds the window's gap 6.16"):
        assert_rate_within_gap(lc.chain, inflated)


def test_logistic_certificate_needs_deaths():
    with pytest.raises(ValidationError):
        logistic_certificate(1.0, 0.0, 1.0)


def test_logistic_certificate_hopeless_core_raises():
    with pytest.raises(CertificationError) as ei:
        logistic_certificate(1.0, 2.0, 0.0, z_max=4)
    assert ei.value.part == "z0"


# -- reports ---------------------------------------------------------------------


def test_bd_report_contents():
    rep = build_bd_report(1.0, 1.0, 1.0, x_max=30, j_max=40)
    assert rep.z == rep.z0 == 1
    assert rep.lambda0 == 2.0
    assert rep.alpha.size == 40
    assert rep.hitting_x[0] == 2 and rep.hitting_x[-1] == 30
    # cumulative in x
    assert np.all(np.diff(rep.hitting_values) > 0)
    assert rep.sup_hitting >= rep.sup_hitting_lo >= rep.hitting_values[-1]
    assert rep.moment is not None
    for x in [2, 10, 30]:
        assert rep.moment.value_at(x) >= 1
    assert rep.moment.sup >= rep.moment.sup_lo >= rep.moment.value_at(30)
    text = rep.to_text()
    for key in ("sup_expected_hitting", "sup_expected_hitting_lo", "moment_sup", "moment_sup_lo"):
        assert f"\n{key} = " in text
    assert "moment_sup_at" not in text


def test_bd_report_below_z0_has_no_moment(tmp_path):
    # z = 5 lies far below z0 = 60: the moment off 1..5 diverges at
    # lambda0 = b + d, so the report has none and its csv column reads nan
    rep = build_bd_report(2.0, 1.0, 0.0205, z=5)
    assert (rep.z, rep.z0) == (5, 60)
    assert rep.moment is None
    assert "moment_sup" not in rep.to_text()
    path = tmp_path / "hit.csv"
    hitting_to_csv(rep, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,expected_hitting,exp_moment"
    assert len(rows) == 1 + rep.hitting_x.size
    assert all(row.endswith(",nan") for row in rows[1:])


def test_bd_report_values_match_series():
    rep = build_bd_report(1.0, 1.0, 1.0, x_max=12)
    for i, x in enumerate(rep.hitting_x):
        assert rep.hitting_values[i] == pytest.approx(
            tail_expected_hitting(LOGISTIC, rep.z, int(x)), rel=1e-12
        )


def test_bd_csvs(tmp_path):
    rep = build_bd_report(1.0, 1.0, 1.0, x_max=12, j_max=8)
    pa = tmp_path / "alpha.csv"
    ph = tmp_path / "hit.csv"
    alpha_to_csv(rep, pa)
    hitting_to_csv(rep, ph)
    alines = pa.read_text().strip().splitlines()
    assert alines[0] == "j,alpha_j" and len(alines) == 9
    hlines = ph.read_text().strip().splitlines()
    assert len(hlines) == 1 + rep.hitting_x.size
    first = hlines[1].split(",")
    assert int(first[0]) == 2
    assert float(first[1]) == pytest.approx(rep.hitting_values[0])


# -- golden bytes ----------------------------------------------------------------------
#
# sha256 of the three artifacts `bd` writes, recorded with the proved
# ladder descents; any change to the order of the hitting-time recursion,
# to the descent level or to the moment descent moves them.

GOLDEN_BD = {
    "1-1-1": (
        ["--logistic", "1", "1", "1"],
        {
            "bd_report.txt": "c34babfce9692dc6631f3093596414334d9f0c31a23df0e0f649eff6ef6fc800",
            "bd_alpha.csv": "e1325a72cb3e5b62299946232434f67b836a1b95eb9a18a77ed2b3b309e95622",
            "bd_hitting.csv": "d71de304c48d744448a209778fafb13ac808d17e6e62b4ec42758b406313628a",
        },
    ),
    "2-1-0.25": (
        ["--logistic", "2", "1", "0.25"],
        {
            "bd_report.txt": "8cd95b6700100e619c147ccb75509cdb3b60a5559e672f8afad3c3c105c4d71e",
            "bd_alpha.csv": "c0fa545850dd15ed651e4bd1c79ddc3695b2c78371a51e04de14de97f77bfdbf",
            "bd_hitting.csv": "4b40f2ddd7d2fe69da0ab22adcd2ba1814e37e4e5c2fb67a18d24b86c32ad566",
        },
    ),
    "2-1-0.25-x60": (
        ["--logistic", "2", "1", "0.25", "--x-max", "60"],
        {
            "bd_report.txt": "8cd95b6700100e619c147ccb75509cdb3b60a5559e672f8afad3c3c105c4d71e",
            "bd_alpha.csv": "c0fa545850dd15ed651e4bd1c79ddc3695b2c78371a51e04de14de97f77bfdbf",
            "bd_hitting.csv": "68c722c8837a96c438b428a991709a859ccfd10be77a59d8628b839632599969",
        },
    ),
    # z0 = 45: without --x-max the table runs to z0 + 30 (see below)
    "3-1-0.0505-x60": (
        ["--logistic", "3", "1", "0.0505", "--x-max", "60"],
        {
            "bd_report.txt": "07c0748bfd996395e6059ad57bc23e2c5c547444dfd69b770ac8357ffe5e758e",
            "bd_alpha.csv": "1e6c8bc71d573974f5301f60a1c8931c78f13f643af4b40b4dce89ab65339b85",
            "bd_hitting.csv": "67273f0e09eea11140c2581108d407d27f58a2b27e3979c27c7997afcba1275d",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_BD))
def test_bd_artifacts_are_golden(case, tmp_path, capsys):
    argv, digests = GOLDEN_BD[case]
    out = tmp_path / "out"
    assert main(["bd", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests}
    assert got == digests


@pytest.mark.parametrize("params, z, x_top", [(("2", "1", "0.0205"), 60, 90), (("3", "1", "0.0505"), 45, 75)])
def test_bd_default_x_max_lies_past_a_high_core(params, z, x_top, tmp_path, capsys):
    # a z0 of 30 or more takes the hitting table to z0 + 30 (it failed at
    # x_max = 30); the report and alpha lines do not read x_max
    out = tmp_path / "out"
    assert main(["bd", "--logistic", *params, "--out", str(out)]) == 0
    capsys.readouterr()
    hitting = (out / "bd_hitting.csv").read_text().splitlines()
    assert [int(line.split(",")[0]) for line in hitting[1:]] == list(range(z + 1, x_top + 1))
    assert f"z = {z}" in (out / "bd_report.txt").read_text().splitlines()
    rep = build_bd_report(*map(float, params))
    assert (rep.z, int(rep.hitting_x[-1])) == (z, x_top)
    if params == ("3", "1", "0.0505"):
        digests = GOLDEN_BD["3-1-0.0505-x60"][1]
        for name in ("bd_report.txt", "bd_alpha.csv"):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digests[name]
