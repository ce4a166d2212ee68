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
    hitting_to_csv,
    logistic_certificate,
    tail_expected_hitting,
)
import quasistat.bd as bd_mod
from quasistat.bd import _DESCENT_CHUNK, _descent_sum, _inner_tail
from quasistat.cli import main

from conftest import bd_hitting_oracle, bd_moment_oracle, descent_sum_oracle

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


def test_hitting_supremum_bounds_every_start():
    sup = tail_expected_hitting(LOGISTIC, 1, math.inf)
    for x in [2, 5, 10, 100, 1000]:
        assert tail_expected_hitting(LOGISTIC, 1, x) <= sup
    assert sup == pytest.approx(tail_expected_hitting(LOGISTIC, 1, 10**6), rel=1e-3)


def test_hitting_supremum_truncation_is_stable():
    a = tail_expected_hitting(LOGISTIC, 1, math.inf, max_terms=10**5)
    b = tail_expected_hitting(LOGISTIC, 1, math.inf, max_terms=10**6)
    assert abs(a - b) / b < 1e-4


def test_hitting_divergence_detected():
    # supercritical: mass escapes upward, the ladder tail is not summable
    with pytest.raises(DivergentMomentError):
        tail_expected_hitting(BirthDeathSpec.logistic(2.0, 1.0, 0.0), 1, math.inf)
    # critical unit-rate walk: null recurrent, expectation infinite
    with pytest.raises(DivergentMomentError):
        tail_expected_hitting(BirthDeathSpec.logistic(1.0, 1.0, 0.0), 1, math.inf)
    # harmonic tail: every descent costs ~1/k, the sum grows like log
    with pytest.raises(DivergentMomentError):
        tail_expected_hitting(BirthDeathSpec.logistic(0.0, 1.0, 0.0), 1, math.inf)


def test_hitting_rejects_bad_levels():
    with pytest.raises(ValidationError):
        tail_expected_hitting(LOGISTIC, -1, 5)
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
    got = tail_expected_hitting(LOGISTIC, 1, math.inf)
    monkeypatch.setattr(bd_mod, "_descent_sum", descent_sum_oracle)
    assert got == tail_expected_hitting(LOGISTIC, 1, math.inf)


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
        tail_expected_hitting(LOGISTIC, 1, math.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# -- exponential moments -------------------------------------------------------


def test_moment_matches_dense_oracle():
    res = exp_moment_hitting(LOGISTIC, 1, 2.0, x_max=256)
    oracle = bd_moment_oracle(LOGISTIC, 1, 2.0, 1024)
    for x in range(2, 65):
        assert res.value_at(x) == pytest.approx(float(oracle[x - 2]), rel=1e-10)


def test_moment_tends_to_one_at_small_rates():
    res = exp_moment_hitting(LOGISTIC, 1, 1e-10)
    assert res.sup == pytest.approx(1.0, abs=1e-6)


def test_moment_monotone_in_rate():
    sups = [exp_moment_hitting(LOGISTIC, 1, lam).sup for lam in (0.5, 1.0, 2.0)]
    assert sups[0] <= sups[1] <= sups[2]
    assert all(s >= 1 for s in sups)


def test_moment_window_extrapolation_converges():
    # the supremum estimate should be nearly window-free
    a = exp_moment_hitting(LOGISTIC, 1, 2.0, x_max=128)
    b = exp_moment_hitting(LOGISTIC, 1, 2.0, x_max=512)
    assert a.sup == pytest.approx(b.sup, rel=1e-3)


def test_moment_divergence_raises():
    sub = BirthDeathSpec.logistic(1.0, 2.0, 0.0)
    # critical rate for the linear chain is (sqrt(2)-1)^2, far below 3
    with pytest.raises(DivergentMomentError):
        exp_moment_hitting(sub, 1, 3.0)


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
    assert rep.sup_hitting >= rep.hitting_values[-1]
    assert rep.moment is not None
    for x in [2, 10, 30]:
        assert rep.moment.value_at(x) >= 1
    text = rep.to_text()
    assert "sup_expected_hitting" in text and "moment_sup" in text


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
# sha256 of the three artifacts `bd` writes, recorded with the per-level
# ladder descent; any change to the order of the hitting-time recursion
# or to the moment band moves them.

GOLDEN_BD = {
    "1-1-1": (
        ["--logistic", "1", "1", "1"],
        {
            "bd_report.txt": "bb86c1b1037e6689c6abe320972c1b2c9323866d050aaa67f64c14f96c371872",
            "bd_alpha.csv": "e1325a72cb3e5b62299946232434f67b836a1b95eb9a18a77ed2b3b309e95622",
            "bd_hitting.csv": "60e7d18672a3b0be0eae7675e0859a5f7f1d62001c7515f4158c94d961759cf6",
        },
    ),
    "2-1-0.25": (
        ["--logistic", "2", "1", "0.25"],
        {
            "bd_report.txt": "9ac5072aca21edc7638296b0ecfbc7089915aecf7ce72260e66e43daef05b965",
            "bd_alpha.csv": "c0fa545850dd15ed651e4bd1c79ddc3695b2c78371a51e04de14de97f77bfdbf",
            "bd_hitting.csv": "91124abf670774f9daa3dfeba7f6b7561e788c7b52990a7f7780a04d378d6d62",
        },
    ),
    "2-1-0.25-x60": (
        ["--logistic", "2", "1", "0.25", "--x-max", "60"],
        {
            "bd_report.txt": "9ac5072aca21edc7638296b0ecfbc7089915aecf7ce72260e66e43daef05b965",
            "bd_alpha.csv": "c0fa545850dd15ed651e4bd1c79ddc3695b2c78371a51e04de14de97f77bfdbf",
            "bd_hitting.csv": "a0905e757787ba994d7fcfa64415a15ed50a033329b29edfbfd9ca4ae5668629",
        },
    ),
    # z0 = 45 lies above the default x_max of 30, so this set needs --x-max
    "3-1-0.0505-x60": (
        ["--logistic", "3", "1", "0.0505", "--x-max", "60"],
        {
            "bd_report.txt": "140a757ce8c7cc4c88f0540c3c40c0ed321285235ebb665f1fc659cc0129c47f",
            "bd_alpha.csv": "1e6c8bc71d573974f5301f60a1c8931c78f13f643af4b40b4dce89ab65339b85",
            "bd_hitting.csv": "9c4a69cab0fbee66ea2ee15e24368320a1ef572500b074291564061caba810bc",
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
