import hashlib
import importlib
import math

import numpy as np
import pytest

from quasistat import (
    ABSORPTION_RATE,
    BEST,
    CERTIFIED,
    SOJOURN,
    CertificationError,
    DistributionOnStates,
    DivergentMomentError,
    ValidationError,
    assemble_certificate,
    build_from_entries,
    build_logistic,
    certificate_to_text,
    certify,
    check_ratio_inequality,
    compute_c1,
    compute_c2,
    compute_c3_lambda0,
    compute_c4,
    conditional_distribution,
    derive_certificate_via_criterion,
    evolve_function,
    evolve_measure,
    geometric_grid,
    parse_certificate_text,
    logistic_certificate,
    survival_vector,
    tv_distance,
)
from quasistat.certify import _unit_step
from quasistat.chain import AbsorbedChain, BirthDeathSpec, truncate

from conftest import c2_survival_ratio_oracle, catastrophe_chain, random_small_absorbed_chain


# -- c1: one-step conditional floor into the anchor ---------------------------


def test_c1_positive_and_conditional():
    chain = catastrophe_chain()
    est = compute_c1(chain, x0=1)
    assert 0 < est.value <= 1
    # conditioning on survival can only raise the raw reach probability
    from quasistat import evolve_function

    e = np.zeros(chain.n_transient)
    e[0] = 1.0
    raw_floor = float(evolve_function(chain, e, 1.0).min())
    assert est.value >= raw_floor


def test_c1_on_logistic_window_is_attained_at_the_top_and_stays_empirical():
    # the worst start sits at the window top, which moves when the window
    # grows, so c1 is the window's value, never a proved bound
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    est = compute_c1(chain, x0=1)
    assert est.attained_at == chain.n_transient
    assert est.provenance == "empirical_estimate"


@pytest.mark.parametrize("strategy", [BEST, SOJOURN])
def test_certificate_never_regrows_the_window(monkeypatch, strategy):
    # every constant is computed on the window it was asked for
    regrown = []
    regrow = AbsorbedChain.regrow

    def counting_regrow(self, *args, **kwargs):
        regrown.append(args)
        return regrow(self, *args, **kwargs)

    monkeypatch.setattr(AbsorbedChain, "regrow", counting_regrow)
    certify(build_logistic(1, 1, 1, 64), [1, 2, 3], 1, c3_strategy=strategy)
    assert regrown == []


@pytest.mark.parametrize("strategy", [BEST, SOJOURN])
def test_certificate_fits_the_series_cap_of_its_own_window(monkeypatch, strategy):
    # the unit step of this 30-state window fits under the cap; a window
    # twice its size would not, and the certificate must not build one
    engine = importlib.import_module("quasistat.engine")
    monkeypatch.setattr(engine, "_MAX_SERIES_TERMS", 1200)
    cert = certify(build_logistic(1, 1, 1, 31), [1, 2, 3], 1, c3_strategy=strategy)
    assert cert.gamma > 0 and cert.n_states == 31


def test_absorption_rate_c3_on_a_parametric_window_is_empirical():
    chain = build_logistic(1, 1, 1, 64)
    r = compute_c3_lambda0(chain, 1, [1, 2, 3], ABSORPTION_RATE)
    assert r.provenance == "empirical_estimate"


def _count_evolutions(monkeypatch, detail=False):
    """The window size of every evolution certify makes (all are function
    side); with detail, (window size, t, columns) instead."""
    # the package's certify() shadows its module of the same name
    certify_module = importlib.import_module("quasistat.certify")
    calls = []
    evolve = certify_module.evolve_function

    def counting_evolve(chain, v, t):
        columns = 1 if np.ndim(v) == 1 else np.shape(v)[1]
        calls.append((chain.n_transient, t, columns) if detail else chain.n_transient)
        return evolve(chain, v, t)

    monkeypatch.setattr(certify_module, "evolve_function", counting_evolve)
    return calls


def test_certificate_evolves_one_unit_step_per_window(monkeypatch):
    # c1, c2 and the absorption-rate c3 read the same unit step, so the
    # window evolves once, and c4 solves without evolving
    calls = _count_evolutions(monkeypatch)
    cert = certify(build_logistic(2.0, 1.0, 0.25, 128), [1, 2, 3], 1, c3_strategy=BEST)
    assert cert.gamma > 0
    assert calls == [127]


def test_criterion_certificate_evolves_one_unit_step(monkeypatch):
    # the criterion route runs the same pipeline with a closed-form c4
    calls = _count_evolutions(monkeypatch)
    cert = derive_certificate_via_criterion(catastrophe_chain(128), range(1, 9), 1)
    assert cert.gamma > 0
    assert calls == [127]


@pytest.mark.parametrize("boundary", ["reflect", "kill"])
@pytest.mark.parametrize("n_states", [8, 63, 64, 130])
def test_c3_floor_on_the_shared_unit_step_equals_the_single_column(boundary, n_states):
    # the absorption-rate floor reads column e_x0 of the unit step;
    # it must equal the column evolved alone
    chain = truncate(BirthDeathSpec.logistic(2.0, 1.0, 0.25), n_states, boundary)
    r = compute_c3_lambda0(chain, x0=1, K=[1], strategy=ABSORPTION_RATE)
    assert 0 < r.c3 <= 1

    e = np.zeros(chain.n_transient)
    e[0] = 1.0
    alone = float(evolve_function(chain, e, 1.0).min())
    assert float(_unit_step(chain, 1)[0].min()) == alone
    C = float((chain.absorption_rates + chain.kill_rates).max())
    guard = math.exp(min(0.0, C - chain.exit_rate(1)))
    assert r.c3 == min(1.0, alone * math.exp(C), guard)


def _evolved_alone(chain, states):
    """The indicator of the given states evolved alone to t = 1."""
    e = np.zeros(chain.n_transient)
    e[[x - 1 for x in states]] = 1.0
    return evolve_function(chain, e, 1.0)


def _exact_step_floor(chain, core):
    """min over x, j in core of P_x(X_1 = j), one column evolved alone
    per core state."""
    idx = [y - 1 for y in core]
    return min(float(_evolved_alone(chain, [y])[idx].min()) for y in core)


def _unit_step_oracle(chain, core, x0, skip_free):
    """c1, c2's survival and step floors and the absorption-rate c3 floor
    from columns evolved alone, one evolve_function call per column."""
    n = chain.n_transient
    reach = _evolved_alone(chain, [x0])
    alive = evolve_function(chain, np.ones(n), 1.0)
    idx = [y - 1 for y in core]
    if len(core) == 1:
        step_floor = 1.0
    elif skip_free:
        # P_a(X_1 >= b): the indicator of b, b+1, ... read at a
        step_floor = float(_evolved_alone(chain, range(core[-1], n + 1))[core[0] - 1])
    else:
        step_floor = _exact_step_floor(chain, core)
    return float((reach / alive).min()), float(alive[idx].min()), step_floor, float(reach.min())


def _unit_step_cases():
    cases = []
    for boundary in ("reflect", "kill"):
        for n_states in (8, 63, 64, 130):
            n = n_states - 1
            core = tuple(range(1, min(n, 6) + 1))
            for x0 in (core[0], core[len(core) // 2], core[-1]):
                cases.append(pytest.param(boundary, n_states, core, x0, None,
                                          id=f"{boundary}-{n_states}-K{len(core)}-x0={x0}"))
            cases.append(pytest.param(boundary, n_states, (n,), n, None,
                                      id=f"{boundary}-{n_states}-K1"))
        # at most 3 columns per block: the first block e_x0, 1 and one
        # more column; the kill window's core spans 4 blocks
        cases.append(pytest.param(boundary, 64, tuple(range(2, 12)), 6, 3,
                                  id=f"{boundary}-64-K10-3-columns-per-block"))
    return cases


@pytest.mark.parametrize("boundary, n_states, core, x0, block_columns", _unit_step_cases())
def test_shared_unit_step_block_equals_columns_evolved_alone(
    monkeypatch, boundary, n_states, core, x0, block_columns
):
    # the reflect windows of a logistic chain are skip-free, so their step
    # floor is one indicator column; the kill windows take the K x K block
    chain = truncate(BirthDeathSpec.logistic(2.0, 1.0, 0.25), n_states, boundary)
    skip_free = boundary == "reflect"
    calls = _count_evolutions(monkeypatch, detail=True)
    if block_columns is not None:
        certify_module = importlib.import_module("quasistat.certify")
        monkeypatch.setattr(certify_module, "_BLOCK_ENTRIES", block_columns * chain.n_transient)
    c1, survival_floor, step_floor, reach_floor = _unit_step_oracle(chain, core, x0, skip_free)

    reach, alive, floor = _unit_step(chain, x0, core)
    # one call evolves e_x0, 1 and the floor's columns (none for one
    # state, the indicator of b, b+1, ... on a skip-free window, |K| - 1
    # core columns on any other), one series per block, and keeps nothing
    # on the window
    columns = 2 + (0 if len(core) == 1 else 1 if skip_free else len(core) - 1)
    width = columns if block_columns is None else block_columns
    n = chain.n_transient
    assert calls == [(n, 1.0, min(width, columns - lo)) for lo in range(0, columns, width)]
    assert boundary == "reflect" or block_columns is None or len(calls) >= 3
    fresh = truncate(BirthDeathSpec.logistic(2.0, 1.0, 0.25), n_states, boundary)
    assert set(vars(chain)) == set(vars(fresh)) | {"uniformized"}
    assert reach.shape == alive.shape == (n,) and isinstance(floor, float)
    assert floor == step_floor
    assert float(reach.min()) == reach_floor
    assert compute_c1(chain, x0).value == c1
    b = compute_c2(chain, core)
    if len(core) == 1:
        assert b.certified == b.survival_floor == b.step_floor == 1.0
    else:
        assert (b.survival_floor, b.step_floor) == (survival_floor, step_floor)
        assert b.certified == min(survival_floor, step_floor)
    C = float((chain.absorption_rates + chain.kill_rates).max())
    guard = math.exp(min(0.0, C - chain.exit_rate(x0)))
    c3 = min(1.0, reach_floor * math.exp(C), guard)
    if c3 > 0:
        assert compute_c3_lambda0(chain, x0, core, strategy=ABSORPTION_RATE).c3 == c3
    else:
        # at the window top the holding guard underflows: no floor
        with pytest.raises(CertificationError, match="zero floor"):
            compute_c3_lambda0(chain, x0, core, strategy=ABSORPTION_RATE)


def test_c2_alone_evolves_one_3_column_unit_step_block(monkeypatch):
    # without a certificate's anchor, c2 anchors at the smallest core state
    # and evolves one block [e_1, 1, 1_{>= 11}] on this skip-free window
    chain = build_logistic(2.0, 1.0, 0.25, 100)
    n = chain.n_transient
    certify_module = importlib.import_module("quasistat.certify")
    evolve = certify_module.evolve_function
    blocks = []

    def recording_evolve(chain, v, t):
        blocks.append((np.array(v), t))
        return evolve(chain, v, t)

    monkeypatch.setattr(certify_module, "evolve_function", recording_evolve)
    compute_c2(chain, range(1, 12))
    assert len(blocks) == 1
    block, t = blocks[0]
    assert t == 1.0 and block.shape == (n, 3)
    expected = np.zeros((n, 3))
    expected[0, 0] = 1.0
    expected[:, 1] = 1.0
    expected[10:, 2] = 1.0
    assert np.array_equal(block, expected)


def test_singleton_c2_and_sojourn_c3_evolve_nothing(monkeypatch):
    chain = build_logistic(2.0, 1.0, 0.25, 100)
    calls = _count_evolutions(monkeypatch)
    assert compute_c2(chain, [5]).certified == 1.0
    assert compute_c3_lambda0(chain, 1, [1, 2], strategy=SOJOURN).c3 == 1.0
    assert calls == []
    compute_c1(chain, 1)
    compute_c3_lambda0(chain, 1, [1, 2], strategy=ABSORPTION_RATE)
    # each public constant evolves its own [e_x0, 1] block
    assert calls == [99, 99]


def _half_step_floor(chain, x0, core):
    """min over x in core of P_x(X_1/2 = x0), times min over j in core of
    P_x0(X_1/2 = j): by Chapman-Kolmogorov on non-negative terms a floor
    on min over x, j in core of P_x(X_1 = j), from one function-side and
    one measure-side column."""
    idx = [x - 1 for x in core]
    e = np.zeros(chain.n_transient)
    e[x0 - 1] = 1.0
    into = float(evolve_function(chain, e, 0.5)[idx].min())
    return into * float(evolve_measure(chain, e, 0.5)[idx].min())


def _half_step_cases():
    cases = []
    for boundary in ("reflect", "kill"):
        for n_states in (8, 64, 130):
            chain = truncate(BirthDeathSpec.logistic(2.0, 1.0, 0.25), n_states, boundary)
            for x0 in (1, 4, 6):
                cases.append(pytest.param(chain, tuple(range(1, 7)), x0,
                                          id=f"{boundary}-{n_states}-x0={x0}"))
    for seed in range(12):
        chain = random_small_absorbed_chain(seed)
        core = tuple(range(1, chain.n_transient + 1))
        cases.append(pytest.param(chain, core, 1 + seed % len(core), id=f"random-{seed}"))
    return cases


@pytest.mark.parametrize("chain, core, x0", _half_step_cases())
def test_unit_step_half_step_floor_is_below_the_exact_floor(chain, core, x0):
    # Chapman-Kolmogorov through x0 at t = 1/2 keeps one path of many, so
    # the half-step product, computed from the measure side as well as the
    # function side, lies below the exact K x K floor; c2's step floor is
    # that floor, or the monotone one above it on skip-free windows (the
    # reflect windows here)
    exact = _exact_step_floor(chain, core)
    assert _half_step_floor(chain, x0, core) <= exact <= _unit_step(chain, x0, core)[2]


# the logistic sets of the certify benchmark (core sizes 1, 2, 3, 6, 9, 14
# and 45), one more (core 27) and the catastrophe chain's two routes
_ROUTE_CASES = [
    pytest.param(("logistic", p), id="logistic-" + "-".join(map(str, p)))
    for p in [(1, 1, 1), (0.5, 1, 0.2), (0.5, 1, 0.05), (2, 1, 0.25), (1, 1, 0.05), (2, 1, 0.1),
              (3, 1, 0.0505), (2, 1, 0.049)]
] + [pytest.param(("catastrophe", route), id=f"catastrophe-128-{route}")
     for route in ("direct", "criterion")]


@pytest.mark.parametrize("case", _ROUTE_CASES)
def test_unit_step_c2_above_hold_block_below_oracle(case):
    # the hold-block floor, min(exp(-max_K q), exact K x K floor), is a
    # proved floor below c2: the survival floor lies above the hold floor
    # and the monotone step floor above the K x K one.  The catastrophe
    # chain collapses to state 1 from afar, so it keeps the K x K block,
    # which binds there, and its c2 is the hold-block floor itself
    if case[0] == "logistic":
        result = logistic_certificate(*case[1])
        chain, cert = result.chain, result.certificate
    else:
        chain = catastrophe_chain(128)
        route = derive_certificate_via_criterion if case[1] == "criterion" else certify
        cert = route(chain, range(1, 9), 1)
    core = cert.K
    if len(core) == 1:
        assert cert.c2 == 1.0
        return
    hold = math.exp(-float(chain.total_exit_rates()[[x - 1 for x in core]].max()))
    hold_block = min(hold, _exact_step_floor(chain, core))
    assert hold_block <= cert.c2 <= c2_survival_ratio_oracle(chain, core)
    if case[0] == "catastrophe":
        assert cert.c2 == hold_block


def test_unit_step_takes_the_core_block_off_skip_free_reflecting_windows(monkeypatch):
    # survival need not increase in the start on these windows, so the
    # monotone floor has no proof there: a kill window (the top's births
    # are killed), a reflect window with one jump of length 2, and a
    # reflect window absorbed out of state 2 as well as 1
    spec = BirthDeathSpec.logistic(2.0, 1.0, 0.25)
    kill = truncate(spec, 8, "kill")
    h = survival_vector(kill, 1.0)
    assert h[6] < h[5]  # P_7(T > 1) < P_6(T > 1)
    refl = truncate(spec, 8)
    n = refl.n_transient
    src, dst, rate = refl._jumps
    jumps = (list(src) + [2], list(dst) + [4], list(rate) + [0.5])
    chains = {
        "kill": kill,
        "long-jump": AbsorbedChain(n_states=8, boundary_mode="reflect", jumps=jumps,
                                   absorption_rates=refl.absorption_rates),
        "absorbed-at-2": AbsorbedChain(n_states=8, boundary_mode="reflect", jumps=refl._jumps,
                                       absorption_rates=refl.absorption_rates + np.eye(n)[1]),
    }
    core = tuple(range(1, 7))
    for name, chain in chains.items():
        calls = _count_evolutions(monkeypatch, detail=True)
        b = compute_c2(chain, core)
        assert calls == [(n, 1.0, 2 + len(core) - 1)], name
        assert b.step_floor == _exact_step_floor(chain, core), name
        assert 0 < b.certified <= c2_survival_ratio_oracle(chain, core), name


def test_unit_step_c2_does_not_depend_on_call_history():
    # after a certificate anchored at 20, compute_c2 reads the same floors
    # as on a window that nothing touched
    result = logistic_certificate(3.0, 1.0, 0.0505)
    core = result.certificate.K
    assert len(core) == 45

    def window():
        return build_logistic(3.0, 1.0, 0.0505, result.chain.n_states)

    used = window()
    certify(used, core, x0=20)
    assert compute_c2(used, core) == compute_c2(window(), core)


def test_unit_step_of_a_z0_45_certificate_evolves_three_columns_and_no_half_step(monkeypatch):
    # the window is skip-free and reflecting, so the 44 other core columns
    # give way to one indicator column, 1_{>= 45}
    calls = _count_evolutions(monkeypatch, detail=True)
    result = logistic_certificate(3.0, 1.0, 0.0505)
    chain, core = result.chain, result.certificate.K
    assert len(core) == 45
    n = chain.n_transient
    assert calls == [(n, 1.0, 3)]
    b = compute_c2(chain, core)
    assert b.step_floor == float(_evolved_alone(chain, range(45, n + 1))[0])
    assert b.survival_floor == float(evolve_function(chain, np.ones(n), 1.0)[:45].min())
    assert result.certificate.c2 == b.certified == min(b.survival_floor, b.step_floor)


# sha256 of the block the (3, 1, 0.0505) certificate evolves on its
# 367-state window: reach, alive and the step floor, in that order.  Any
# change to the kernel a series term runs through, or to the order of its
# sums, moves it.
Z0_45_STEP_SHA256 = "1123c8f97d42b1b13fbcd4ba0fd85c473017e50bba7e525f59e0953523d520cd"


def test_sha256_of_the_z0_45_window_step_block():
    chain = build_logistic(3.0, 1.0, 0.0505, 368)
    reach, alive, floor = _unit_step(chain, 1, tuple(range(1, 46)))
    data = reach.tobytes() + alive.tobytes() + np.float64(floor).tobytes()
    assert hashlib.sha256(data).hexdigest() == Z0_45_STEP_SHA256


def test_c1_unreachable_anchor_fails():
    # one-way ladder: state 3 cannot come back to 1
    chain = build_from_entries([(1, 2, 1.0), (2, 3, 1.0), (3, 2, 0.0), (1, 0, 1.0)], 4)
    with pytest.raises(CertificationError) as ei:
        compute_c1(chain, x0=1)
    assert ei.value.part == "c1"
    assert str(ei.value) == (
        "c1 floor vanishes: state 2 cannot reach 1 within unit time on this window"
    )


def test_c1_rejects_bad_anchor():
    with pytest.raises(ValidationError):
        compute_c1(catastrophe_chain(), x0=99)


# -- c2: survival-ratio floor over the core -----------------------------------


def test_c2_singleton_core_is_exact():
    chain = catastrophe_chain()
    b = compute_c2(chain, [1])
    assert b.certified == b.survival_floor == b.step_floor == 1.0
    assert c2_survival_ratio_oracle(chain, [1]) == 1.0


@pytest.mark.parametrize(
    "chain, K",
    [
        (build_logistic(1.0, 1.0, 1.0, 64), range(1, 4)),
        (build_logistic(2.0, 1.0, 0.25, 100), range(1, 12)),
        (catastrophe_chain(128), range(1, 9)),
    ],
    ids=["logistic-1-1-1-64", "logistic-2-1-0.25-100", "catastrophe-128"],
)
def test_c2_certified_below_survival_ratio_oracle(chain, K):
    b = compute_c2(chain, K)
    assert 0 < b.certified <= c2_survival_ratio_oracle(chain, K) <= 1 + 1e-12
    assert b.certified == min(b.survival_floor, b.step_floor)
    assert 0 < b.survival_floor <= 1
    assert 0 < b.step_floor <= 1


def test_c2_step_floor_matches_column_loop_in_any_block_width(monkeypatch):
    # entry (x, j) of the evolved indicator block is P_x(X_1 = K_j); it
    # equals the column evolved alone, in any block width.  A kill window
    # is not skip-free, so its step floor reads the K x K block
    core = list(range(1, 12))
    chain = build_logistic(2.0, 1.0, 0.25, 100, "kill")
    whole = compute_c2(chain, core)
    assert whole.step_floor == _exact_step_floor(chain, core)
    # the package's certify() shadows its module of the same name
    certify_module = importlib.import_module("quasistat.certify")
    monkeypatch.setattr(certify_module, "_BLOCK_ENTRIES", 3 * chain.n_transient)
    assert compute_c2(build_logistic(2.0, 1.0, 0.25, 100, "kill"), core) == whole


def test_c2_empty_core_rejected():
    with pytest.raises(ValidationError):
        compute_c2(catastrophe_chain(), [])


# -- c3 and lambda0: occupancy floor -------------------------------------------


def test_c3_sojourn_is_exact():
    chain = catastrophe_chain()
    r = compute_c3_lambda0(chain, x0=1, K=[1], strategy=SOJOURN)
    assert r.c3 == 1.0
    assert r.lambda0 == pytest.approx(chain.exit_rate(1))
    assert r.provenance == CERTIFIED


def test_c3_absorption_rate_uses_worst_kill():
    chain = catastrophe_chain()
    r = compute_c3_lambda0(chain, x0=1, K=[1], strategy=ABSORPTION_RATE)
    assert r.lambda0 == pytest.approx(float(chain.absorption_rates.max()))
    assert 0 < r.c3 <= 1


def test_c3_best_attaches_matching_c4():
    chain = catastrophe_chain()
    r = compute_c3_lambda0(chain, x0=1, K=[1], strategy=BEST)
    assert r.c4 is not None
    direct = compute_c4(chain, [1], r.lambda0)
    assert r.c4.value == pytest.approx(direct.value)
    # best must not lose to either fixed strategy
    for s in (SOJOURN, ABSORPTION_RATE):
        try:
            cand = compute_c3_lambda0(chain, x0=1, K=[1], strategy=s)
            c4s = compute_c4(chain, [1], cand.lambda0)
        except (CertificationError, DivergentMomentError):
            continue
        assert r.c3 / r.c4.value >= cand.c3 / c4s.value - 1e-12


def test_c3_anchor_must_lie_in_core():
    with pytest.raises(ValidationError):
        compute_c3_lambda0(catastrophe_chain(), x0=3, K=[1, 2])


def test_c3_unknown_strategy():
    with pytest.raises(ValidationError):
        compute_c3_lambda0(catastrophe_chain(), x0=1, K=[1], strategy="wishful")


# -- c4: exponential-moment ceiling --------------------------------------------


def test_c4_catastrophe_closed_form():
    # return to {1} happens at rate 3 from every outside state, killing
    # at rate 1 only hits state 1, so the reflected moment solves to
    # drop/(drop - lambda0) at lambda0 = 1
    chain = catastrophe_chain(drop=3.0, absorb=1.0)
    est = compute_c4(chain, [1], lambda0=1.0)
    assert est.value == pytest.approx(1.5, abs=1e-9)


def test_c4_full_core_is_one():
    chain = catastrophe_chain()
    est = compute_c4(chain, list(chain.transient_states), lambda0=1.0)
    assert est.value == 1.0


def test_c4_monotone_in_rate():
    chain = catastrophe_chain()
    lo = compute_c4(chain, [1], lambda0=0.5)
    hi = compute_c4(chain, [1], lambda0=1.5)
    assert 1 <= lo.value <= hi.value


def test_c4_divergence_raises():
    chain = catastrophe_chain(drop=3.0)
    # entering {1} happens at rate 3; moments blow up past that rate
    with pytest.raises(DivergentMomentError):
        compute_c4(chain, [1], lambda0=10.0)


def test_c4_rejects_nonpositive_rate():
    with pytest.raises(ValidationError):
        compute_c4(catastrophe_chain(), [1], lambda0=0.0)


# -- certificate assembly -------------------------------------------------------


def test_certify_catastrophe_end_to_end():
    chain = catastrophe_chain()
    cert = certify(chain, K=[1], x0=1)
    assert cert.gamma > 0
    assert cert.gamma == pytest.approx(cert.c1 * cert.c2 * cert.c3 / (2 * cert.c4))
    assert cert.bound(0.0) == 2.0
    assert cert.bound(5.0) == pytest.approx(2 * (1 - cert.gamma) ** 5)
    # floor in the exponent: constant on [k, k+1)
    assert cert.bound(5.999) == cert.bound(5.0)


def test_certify_logistic_window():
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    cert = certify(chain, K=[1, 2, 3], x0=1)
    assert 0 < cert.gamma <= 0.5
    assert cert.n_states == 64
    assert set(cert.provenance) == {"c1", "c2", "c3", "c4"}


def test_certify_evolves_no_further_than_unit_time(monkeypatch):
    # the unit-time series of this stiff pair fits under the cap, longer
    # evolution does not; a certificate reads nothing past t = 1
    engine = importlib.import_module("quasistat.engine")
    monkeypatch.setattr(engine, "_MAX_SERIES_TERMS", 1000)
    chain = build_from_entries([(1, 2, 300.0), (2, 1, 300.0), (1, 0, 1.0), (2, 0, 1.0)], 3)
    cert = certify(chain, K=[1, 2], x0=1)
    assert cert.K == (1, 2) and cert.gamma > 0


def test_certify_names_failing_part():
    # one-way ladder: anchor unreachable, certification dies at c1
    chain = build_from_entries([(1, 2, 1.0), (2, 3, 1.0), (1, 0, 1.0)], 4)
    with pytest.raises(CertificationError) as ei:
        certify(chain, K=[1], x0=1)
    assert ei.value.part == "c1"


# each case: (rates (x, y, rate), K, strategy, failing part, message); the
# window holds the states the rates name
_FAILING_CERTIFICATES = {
    # state 3 jumps only to 1, so P_3(X_1 = 3) = 0: c2's step floor vanishes
    "c2-step-floor": (
        [(1, 2, 1.0), (2, 1, 1.0), (3, 1, 1.0), (1, 0, 1.0)], [1, 3], BEST, "c2",
        "c2 certified floor vanishes on K",
    ),
    # the moment off {1} diverges at both rates: 0.2 (sojourn) and 0.1 (C)
    "c3-no-strategy": (
        [(1, 2, 0.1), (1, 0, 0.1), (2, 1, 0.1)], [1], BEST, "c3",
        "no occupancy-decay strategy yields a finite exponential moment",
    ),
    "c4-sojourn-rate": (
        [(1, 2, 0.1), (1, 0, 0.1), (2, 1, 0.1)], [1], SOJOURN, "c4",
        "exponential moment diverges at lambda0=0.2 "
        "(solution leaves the feasible cone; residual 0.000e+00)",
    ),
    "c3-anchor-never-leaves": (
        [(2, 1, 1.0), (2, 0, 1.0)], [1], SOJOURN, "c3",
        "c3 occupancy floor failed: state 1 has zero exit rate",
    ),
    "c3-window-never-absorbs": (
        [(1, 2, 1.0), (2, 1, 1.0)], [1], ABSORPTION_RATE, "c3",
        "c3 occupancy floor failed: chain is never absorbed inside the window",
    ),
    # state 1 exits at 1001 against C = 1: the holding guard exp(C - 1001)
    # underflows to 0
    "c3-zero-floor": (
        [(1, 2, 1000.0), (2, 1, 1000.0), (1, 0, 1.0), (2, 0, 1.0)], [1], ABSORPTION_RATE, "c3",
        "c3 occupancy floor failed: zero floor",
    ),
    # best keeps that pair: the sojourn moment diverges at rate 1001
    "c3-zero-floor-best": (
        [(1, 2, 1000.0), (2, 1, 1000.0), (1, 0, 1.0), (2, 0, 1.0)], [1], BEST, "c3",
        "c3 occupancy floor failed: zero floor",
    ),
}


@pytest.mark.parametrize("case", _FAILING_CERTIFICATES)
def test_certify_failure_names_part_and_reason(case):
    entries, K, strategy, part, message = _FAILING_CERTIFICATES[case]
    chain = build_from_entries(entries, 1 + max(max(x, y) for x, y, _ in entries))
    with pytest.raises(CertificationError) as ei:
        certify(chain, K, 1, c3_strategy=strategy)
    assert ei.value.part == part
    assert str(ei.value) == message


def test_absorption_rate_c3_raises_when_the_anchor_is_unreachable():
    # one-way ladder: states 2 and 3 never come back to 1
    chain = build_from_entries([(1, 2, 1.0), (2, 3, 1.0), (1, 0, 1.0)], 4)
    with pytest.raises(CertificationError) as ei:
        compute_c3_lambda0(chain, 1, [1], ABSORPTION_RATE)
    assert ei.value.part == "c3"
    assert str(ei.value) == (
        "c3 occupancy floor failed: some window state cannot reach 1 within unit time"
    )


def test_certificate_bound_monotone():
    cert = certify(catastrophe_chain(), K=[1], x0=1)
    ts = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0]
    vals = [cert.bound(t) for t in ts]
    assert all(b >= a for a, b in zip(vals[1:], vals))
    assert all(v > 0 for v in vals)
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="time must be finite and >= 0"):
            cert.bound(t)


def test_certificate_validation_rejects_inconsistent_gamma():
    with pytest.raises(ValidationError, match="gamma"):
        from quasistat import HypothesisCertificate

        HypothesisCertificate(
            K=(1,), x0=1, c1=0.5, c2=1.0, c3=1.0, c4=2.0, lambda0=1.0,
            gamma=0.3, c3_strategy=SOJOURN, n_states=8, boundary_mode="reflect",
        )


def test_certificate_rejects_out_of_range_constants():
    bad = dict(K=(1,), x0=1, c1=0.5, c2=1.0, c3=1.0, lambda0=1.0,
               c3_strategy=SOJOURN, n_states=8, boundary_mode="reflect")
    with pytest.raises(ValidationError):
        assemble_certificate(c4=0.5, **bad)  # c4 below 1
    with pytest.raises(ValidationError):
        assemble_certificate(c4=1.0, **{**bad, "c1": 1.5})
    with pytest.raises(ValidationError):
        assemble_certificate(c4=1.0, **{**bad, "x0": 2})
    with pytest.raises(ValidationError, match="c3_strategy must be"):
        assemble_certificate(c4=1.0, **{**bad, "c3_strategy": "wishful"})


def test_assemble_names_the_constant_that_underflows_gamma():
    # the constants logistic_certificate(3, 1, 0.02) produces: each is a
    # valid positive floor, but their product is below the smallest float
    with pytest.raises(CertificationError, match="underflows") as ei:
        assemble_certificate(
            K=(1,), x0=1, c1=3.1e-41, c2=2.5e-292, c3=1.0, c4=1.2, lambda0=1.0,
            c3_strategy=SOJOURN, n_states=8, boundary_mode="reflect",
        )
    assert ei.value.part == "c2"


# -- the survival-ratio inequality ------------------------------------------------


def test_ratio_inequality_holds_for_real_certificates():
    chain = catastrophe_chain()
    cert = certify(chain, K=[1], x0=1)
    ok, margin = check_ratio_inequality(chain, cert, geometric_grid(0.25, 40.0, 1.5))
    assert ok and margin > 0


@pytest.mark.parametrize("grid", [[], [0.0], [0.0, 0.0]])
def test_ratio_inequality_needs_a_positive_time(grid):
    # at time 0 every state survives, so a grid without a positive time
    # would pass any certificate
    chain = build_logistic(1.0, 1.0, 1.0, 16)
    cert = certify(chain, K=[1], x0=1)
    with pytest.raises(ValidationError, match="needs a time grid with a time > 0"):
        check_ratio_inequality(chain, cert, grid)


@pytest.mark.parametrize("n_states, boundary", [(16, "reflect"), (32, "kill")])
def test_ratio_inequality_refuses_a_certificate_of_another_window(n_states, boundary):
    # the certificate's kappa and anchor hold on its own window only, yet
    # on both of these windows its inequality holds along the grid
    cert = certify(build_logistic(1.0, 1.0, 1.0, 32), K=[1], x0=1)
    chain = build_logistic(1.0, 1.0, 1.0, n_states, boundary)
    with pytest.raises(ValidationError) as ei:
        check_ratio_inequality(chain, cert, [1.0, 2.0])
    assert str(ei.value) == (
        f"certificate of the 32-state reflect window cannot be checked on the "
        f"{n_states}-state {boundary} window"
    )


def test_ratio_inequality_catches_corrupt_certificate():
    # state 1 dies fast and state 2 barely leaks into it, so the true
    # survival-ratio profile sits near 0.02; claiming kappa = 1/2 is a lie
    chain = build_from_entries([(1, 2, 0.1), (2, 1, 0.1), (1, 0, 5.0)], 3)
    cert = certify(chain, K=[1, 2], x0=1)
    grid = geometric_grid(0.25, 30.0, 1.5)
    ok_true, margin_true = check_ratio_inequality(chain, cert, grid)
    assert ok_true and margin_true > 0
    corrupt = assemble_certificate(
        K=(1, 2), x0=1, c1=cert.c1, c2=1.0, c3=1.0, c4=1.0,
        lambda0=cert.lambda0, c3_strategy=cert.c3_strategy,
        n_states=3, boundary_mode=chain.boundary_mode,
    )
    ok_bad, margin_bad = check_ratio_inequality(chain, corrupt, grid)
    assert not ok_bad and margin_bad < -0.1


def test_ratio_inequality_holds_on_a_grid_past_survival_underflow():
    # survival from every state of the 64-state (1,1,1) window drops
    # below 1e-300 past t ~ 1000; the margin is scale-free, so the check
    # rescales the survival function at each grid time instead of failing
    lc = logistic_certificate(1.0, 1.0, 1.0)
    ok, margin = check_ratio_inequality(lc.chain, lc.certificate, geometric_grid(0.5, 2000.0, 1.5))
    assert ok and margin >= -1e-9


@pytest.mark.parametrize(
    "params",
    [(0.5, 1, 0.2), (0.5, 1, 0.05), (2, 1, 0.25), (1, 1, 0.05), (2, 1, 0.1), (2, 1, 0.049)],
    ids=lambda p: "logistic-" + "-".join(map(str, p)),
)
def test_ratio_inequality_holds_on_logistic_certificates_past_the_core(params):
    # cores of 2 to 27 states, whose c2 is the survival or monotone floor
    lc = logistic_certificate(*params)
    ok, margin = check_ratio_inequality(lc.chain, lc.certificate, geometric_grid(0.125, 2000.0, 1.5))
    assert ok and margin >= -1e-9


def test_mixing_bound_dominates_observed_decay():
    chain = catastrophe_chain()
    cert = certify(chain, K=[1], x0=1)
    mu = DistributionOnStates.delta(1, chain.n_states)
    nu = DistributionOnStates.delta(chain.n_transient, chain.n_states)
    for t in [1.0, 2.0, 4.0, 8.0, 16.0]:
        a = conditional_distribution(chain, mu, t)
        b = conditional_distribution(chain, nu, t)
        assert tv_distance(a, b) <= cert.bound(t) + 1e-9


# -- serialization ------------------------------------------------------------------

# certificate_to_text of the three certificate routes.  These windows have
# at least 64 transient states, so they kept their bytes when windows below
# that size stopped evolving through a dense operator.  The logistic window
# is skip-free and reflecting, so its c2 is the monotone step floor; the
# catastrophe chain keeps the K x K step floor.
GOLDEN_LOGISTIC_1_1_005 = """\
quasistat certificate v1
n_states = 80
boundary = reflect
K = 1,2,3,4,5,6,7,8,9
x0 = 1
c1 = 5.5493676865328702e-07
c2 = 0.001012614702832628
c3 = 1
c4 = 610.2929498437602
lambda0 = 2
gamma = 4.6038310882061428e-13
c3_strategy = sojourn
window_limited = yes
provenance_c1 = empirical_estimate
provenance_c2 = certified_bound
provenance_c3 = certified_bound
provenance_c4 = empirical_estimate
"""

GOLDEN_CATASTROPHE_128_DIRECT = """\
quasistat certificate v1
n_states = 128
boundary = reflect
K = 1,2,3,4,5,6,7,8
x0 = 1
c1 = 0.68127875935700244
c2 = 5.0596103449069098e-06
c3 = 1
c4 = 3
lambda0 = 2
gamma = 5.7450084310133908e-07
c3_strategy = sojourn
window_limited = yes
provenance_c1 = empirical_estimate
provenance_c2 = certified_bound
provenance_c3 = certified_bound
provenance_c4 = empirical_estimate
"""

GOLDEN_CATASTROPHE_128_CRITERION = """\
quasistat certificate v1
n_states = 128
boundary = reflect
K = 1,2,3,4,5,6,7,8
x0 = 1
c1 = 0.68127875935700244
c2 = 5.0596103449069098e-06
c3 = 0.36787944117144233
c4 = 1.5
lambda0 = 1
gamma = 4.2269409822528622e-07
c3_strategy = absorption_rate
window_limited = yes
provenance_c1 = empirical_estimate
provenance_c2 = certified_bound
provenance_c3 = empirical_estimate
provenance_c4 = certified_bound
"""


# the text `certify --logistic 1 1 1` writes, on a 64-state window (63
# transient states)
GOLDEN_LOGISTIC_1_1_1 = """\
quasistat certificate v1
n_states = 64
boundary = reflect
K = 1
x0 = 1
c1 = 0.59662024303410999
c2 = 1
c3 = 1
c4 = 8.5660317924294311
lambda0 = 2
gamma = 0.034824774031389699
c3_strategy = sojourn
window_limited = yes
provenance_c1 = empirical_estimate
provenance_c2 = certified_bound
provenance_c3 = certified_bound
provenance_c4 = empirical_estimate
"""


def test_logistic_certificate_text_is_golden():
    result = logistic_certificate(1.0, 1.0, 0.05)
    assert certificate_to_text(result.certificate) == GOLDEN_LOGISTIC_1_1_005


def test_small_window_logistic_certificate_text_is_golden():
    result = logistic_certificate(1.0, 1.0, 1.0)
    assert result.chain.n_transient == 63
    assert certificate_to_text(result.certificate) == GOLDEN_LOGISTIC_1_1_1


def test_catastrophe_certificate_texts_are_golden():
    chain = catastrophe_chain(128)
    assert certificate_to_text(certify(chain, range(1, 9), 1)) == GOLDEN_CATASTROPHE_128_DIRECT
    via_rates = derive_certificate_via_criterion(chain, range(1, 9), 1)
    assert certificate_to_text(via_rates) == GOLDEN_CATASTROPHE_128_CRITERION



def test_certificate_text_roundtrip():
    cert = certify(catastrophe_chain(), K=[1], x0=1)
    text = certificate_to_text(cert)
    assert text.startswith("quasistat certificate v1")
    back = parse_certificate_text(text)
    assert back == cert


def test_parse_rejects_garbage():
    with pytest.raises(ValidationError, match="header"):
        parse_certificate_text("not a certificate\n")
    with pytest.raises(ValidationError, match="bad certificate line"):
        parse_certificate_text("quasistat certificate v1\nwhat even is this\n")


@pytest.mark.parametrize("key", ["n_states", "K", "x0", "c1", "c2", "c3", "c4", "lambda0", "gamma"])
def test_parse_rejects_a_missing_required_field(key):
    text = certificate_to_text(certify(catastrophe_chain(), K=[1], x0=1))
    maimed = "\n".join(ln for ln in text.splitlines() if ln.split(" = ")[0] != key)
    with pytest.raises(ValidationError, match=f"missing field '{key}'"):
        parse_certificate_text(maimed)


def test_parse_reads_the_defaults_of_a_v1_text_without_its_later_lines():
    # texts written before boundary, c3_strategy and window_limited existed
    text = certificate_to_text(certify(catastrophe_chain(), K=[1], x0=1, c3_strategy=SOJOURN))
    later = ("boundary", "c3_strategy", "window_limited")
    old = "\n".join(ln for ln in text.splitlines() if ln.split(" = ")[0] not in later)
    cert = parse_certificate_text(old)
    assert (cert.boundary_mode, cert.c3_strategy, cert.window_limited) == ("reflect", BEST, True)


@pytest.mark.parametrize("key", ["boundry", "provenance_c5", "gama"])
def test_parse_rejects_an_unknown_key(key):
    # a misspelled "boundry = kill" must not parse as the v1 default
    # boundary = reflect
    text = certificate_to_text(certify(catastrophe_chain(), K=[1], x0=1))
    with pytest.raises(ValidationError, match=f"unknown field '{key}'"):
        parse_certificate_text(text + f"{key} = kill\n")


@pytest.mark.parametrize("key", ["c2", "boundary", "provenance_c1"])
def test_parse_rejects_a_repeated_key(key):
    # a hand-edited certificate must not carry a stale value unnoticed
    text = certificate_to_text(certify(catastrophe_chain(), K=[1], x0=1))
    line = next(ln for ln in text.splitlines() if ln.split(" = ")[0] == key)
    with pytest.raises(ValidationError, match=f"repeats field '{key}'"):
        parse_certificate_text(text + line + "\n")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("K", "0,1", "core set"),
        ("K", "1,8", "core set"),
        ("K", "2,1,1", r"K=\(2, 1, 1\) must be strictly increasing"),
        ("K", "1,1", r"K=\(1, 1\) must be strictly increasing"),
        ("K", "2,1", r"K=\(2, 1\) must be strictly increasing"),
        ("n_states", "1", "n_states"),
        ("boundary", "sideways", "boundary mode"),
        ("provenance_c1", "proved_by_hope", "provenance of c1"),
        ("lambda0", "0", "lambda0 must be finite and > 0"),
        ("lambda0", "inf", "lambda0 must be finite and > 0"),
        ("window_limited", "maybe", "certificate field window_limited is malformed: 'maybe'"),
        ("c3_strategy", "wishful", "c3_strategy must be sojourn, absorption_rate or best"),
    ],
    ids=["K-has-0", "K-past-window", "K-descending", "K-repeated", "K-unsorted",
         "n_states-below-2", "boundary", "provenance",
         "lambda0-zero", "lambda0-inf", "window_limited-maybe", "c3_strategy-wishful"],
)
def test_parse_rejects_fields_outside_their_range(field, value, message):
    cert = certify(catastrophe_chain(), K=[1], x0=1)
    assert cert.n_states == 8
    lines = certificate_to_text(cert).splitlines()
    text = "\n".join(
        f"{field} = {value}" if ln.split(" = ")[0] == field else ln for ln in lines
    )
    with pytest.raises(ValidationError, match=message):
        parse_certificate_text(text)
