import importlib
import math

import numpy as np
import pytest

from quasistat import (
    BirthDeathSpec,
    CertificationError,
    ValidationError,
    build_from_entries,
    build_logistic,
    check_core_return,
    check_ratio_inequality,
    check_uniform_rates,
    compute_absorption_sup,
    compute_alpha_K,
    compute_alpha_uniform,
    compute_c4,
    compute_q_bar,
    derive_certificate_via_criterion,
    find_minimal_core,
    geometric_grid,
    truncate,
)
from quasistat.chain import AbsorbedChain

from conftest import (
    alpha_uniform_oracle,
    alternating_catastrophe_chain,
    catastrophe_chain,
    high_column_chain,
    minimal_core_oracle,
    random_return_chain,
)


# -- rate functionals -----------------------------------------------------------


def test_absorption_sup():
    C, at = compute_absorption_sup(catastrophe_chain(absorb=1.0))
    assert C == 1.0 and at == 1


def test_q_bar_bounded_window():
    q, at, notes = compute_q_bar(catastrophe_chain())
    assert math.isfinite(q) and at is not None
    assert notes == []


def test_q_bar_detects_unbounded_rates():
    # logistic rates keep growing past any window
    q, at, notes = compute_q_bar(build_logistic(1.0, 1.0, 1.0, 32))
    assert q == math.inf and at is None
    assert any("grow" in n for n in notes)


def test_q_bar_corrects_reflected_top_row():
    # constant-rate walk: the reflected top row drops its birth rate, but
    # the true supremum includes it
    chain = build_from_entries(
        [(x, x + 1, 1.0) for x in range(1, 5)]
        + [(x, x - 1, 1.0) for x in range(2, 6)]
        + [(1, 0, 1.0)],
        6,
    )
    q, _, _ = compute_q_bar(chain)
    assert q == pytest.approx(2.0)


@pytest.mark.parametrize(
    "birth, q_bar, at",
    [
        # constant rates: every row exits at 3, the top one too once its
        # birth is counted again
        (lambda x: 1.0 + 0.0 * x, 3.0, 1),
        # a birth spike at the top state 9: only its true exit rate, 12,
        # can be the supremum
        (lambda x: np.where(np.asarray(x) == 9, 10.0, 1.0), 12.0, 9),
    ],
    ids=["constant", "top-spike"],
)
def test_q_bar_puts_back_the_top_birth_of_a_bounded_spec(birth, q_bar, at):
    # a window cut from a spec whose rates stay bounded past it: the
    # reflected top row exits at its death rate 2 only, and the spec's
    # own top rate replaces it
    chain = truncate(BirthDeathSpec(birth_rate=birth, death_rate=lambda x: 2.0 + 0.0 * x), 10)
    assert chain.exit_rate(9) == 2.0
    assert compute_q_bar(chain) == (q_bar, at, [])


def test_alpha_uniform_on_catastrophe():
    # only the column into state 1 has a uniform floor: every x >= 2
    # jumps to 1 at the drop rate, and state 1 itself is skipped
    chain = catastrophe_chain(drop=3.0)
    assert compute_alpha_uniform(chain) == pytest.approx(3.0)


def test_alpha_uniform_vanishes_when_columns_split():
    assert compute_alpha_uniform(alternating_catastrophe_chain()) == 0.0


def test_alpha_K_basics():
    chain = catastrophe_chain(drop=3.0)
    a, at, _ = compute_alpha_K(chain, [1])
    assert a == pytest.approx(3.0) and at is not None
    with pytest.raises(ValidationError):
        compute_alpha_K(chain, [])
    with pytest.raises(ValidationError):
        compute_alpha_K(chain, [99])


def test_alpha_K_vacuous_on_full_core():
    chain = catastrophe_chain()
    a, at, notes = compute_alpha_K(chain, list(chain.transient_states))
    assert a == math.inf and at is None
    assert any("vacuous" in n for n in notes)


def test_alpha_K_monotone_in_prefix():
    # growing the core can only help: more targets and fewer sources
    chain = alternating_catastrophe_chain()
    prev = -math.inf
    for k in range(1, chain.n_transient):
        a, _, _ = compute_alpha_K(chain, range(1, k + 1))
        assert a >= prev - 1e-12
        prev = a


# -- the two verdicts -------------------------------------------------------------


def test_core_return_on_catastrophe():
    rep = check_core_return(catastrophe_chain(drop=3.0, absorb=1.0), [1])
    assert rep.core_return_holds
    assert rep.lambda0 == 1.0
    assert rep.c4_bound == pytest.approx(3.0 / (3.0 - 1.0))


def test_core_return_failure():
    # drop rate below the absorption sup: the test must fail
    rep = check_core_return(catastrophe_chain(drop=0.5, absorb=1.0), [1])
    assert not rep.core_return_holds
    assert rep.c4_bound is None


def test_core_return_on_the_whole_window_is_vacuous():
    # K covers every transient state: alpha_K is +inf, so the test holds at
    # lambda0 = C and the moment ceiling degenerates to 1
    chain = catastrophe_chain()
    rep = check_core_return(chain, list(chain.transient_states))
    assert rep.core_return_holds and rep.alpha_K == math.inf
    assert rep.lambda0 == rep.C
    assert rep.c4_bound == 1.0
    assert rep.notes[-1] == "alpha_K infinite (vacuous); c4 bound degenerates to 1"


def test_alternating_chain_splits_the_verdicts():
    chain = alternating_catastrophe_chain()
    rep = check_uniform_rates(chain)
    assert not rep.uniform_rates_holds  # no single column has a uniform floor
    sub = check_core_return(chain, [1, 2])
    assert sub.core_return_holds  # but the pair core works
    assert sub.alpha_K == pytest.approx(3.0)
    assert sub.c4_bound == pytest.approx(1.5)


RATE_FIELDS = ("n_states", "boundary_mode", "C", "C_attained_at", "q_bar", "alpha_uniform",
               "uniform_rates_holds")


@pytest.mark.parametrize(
    "make",
    [
        lambda: catastrophe_chain(drop=3.0),
        lambda: catastrophe_chain(n_states=9, drop=3.0, boundary="kill"),
        lambda: high_column_chain(),
    ]
    + [lambda s=s: random_return_chain(s) for s in range(8)],
    ids=["catastrophe", "catastrophe-kill", "high-column"] + [f"random-{s}" for s in range(8)],
)
def test_uniform_rates_attaches_witness_core(make):
    chain = make()
    rep = check_uniform_rates(chain)
    assert (rep.n_states, rep.boundary_mode) == (chain.n_states, chain.boundary_mode)
    assert rep.K == (minimal_core_oracle(chain) if rep.uniform_rates_holds else None)
    if rep.K is None:
        # no witness: the rate half is still every core-return report's
        other = check_core_return(chain, [1])
        assert [getattr(rep, f) for f in RATE_FIELDS] == [getattr(other, f) for f in RATE_FIELDS]
        return
    assert rep.core_return_holds
    # the report is the witness core's own core-return report
    assert rep == check_core_return(chain, rep.K)


def test_uniform_rates_prefix_scan_can_fail():
    # heavy column into the top state: the uniform-rates test holds, yet
    # no prefix core can satisfy the return test on this window
    chain = high_column_chain()
    rep = check_uniform_rates(chain)
    assert rep.uniform_rates_holds
    assert rep.K is None
    assert any("no prefix core" in n for n in rep.notes)
    assert find_minimal_core(chain) is None


def test_find_minimal_core_is_minimal():
    chain = alternating_catastrophe_chain()
    K = find_minimal_core(chain)
    assert K == (1, 2)
    a1, _, _ = compute_alpha_K(chain, [1])
    C, _ = compute_absorption_sup(chain)
    assert not a1 > C  # the singleton prefix genuinely fails


def sparse_jump_chain(seed):
    """Random chain whose rows hold up to 20 jumps, drawn towards low
    states, with a random absorption rate on every state: many states
    enter a prefix core through several jumps, so the scan adds many
    ranks per state and the first passing prefix varies."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 49))  # transient states 1..n
    entries = []
    for x in range(1, n + 1):
        entries.append((x, 0, float(rng.uniform(0.0, 1.0))))
        others = np.array([y for y in range(1, n + 1) if y != x])
        weights = 1.0 / others
        m = int(rng.integers(0, min(20, n - 1) + 1))
        for y in rng.choice(others, size=m, replace=False, p=weights / weights.sum()):
            entries.append((x, int(y), float(rng.uniform(0.05, 0.4))))
    return build_from_entries(entries, n + 1)


def top_column_chain(n_states, rate=2.0, absorb=0.5):
    """Every state is absorbed at `absorb` and jumps at `rate` to the
    second-highest state h, which jumps to the top: the only positive
    column floor sits at h, and the first passing prefix is {1..h}."""
    n = n_states - 1
    h = n - 1
    entries = []
    for x in range(1, n + 1):
        entries.append((x, 0, absorb))
        entries.append((x, n if x == h else h, rate))
    return build_from_entries(entries, n_states)


@pytest.mark.parametrize(
    "make",
    [
        lambda: catastrophe_chain(),
        lambda: catastrophe_chain(n_states=128, drop=3.0),
        lambda: alternating_catastrophe_chain(),
        lambda: high_column_chain(),
        lambda: top_column_chain(256),
        lambda: build_logistic(1.0, 1.0, 1.0, 64),
    ]
    + [lambda s=s: random_return_chain(s) for s in range(40)]
    + [lambda s=s: sparse_jump_chain(s) for s in range(30)]
    + [lambda: build_from_entries([(1, 0, 1.0)], 2)],  # one transient state: no proper prefix
)
def test_criterion_scans_match_oracles(make):
    chain = make()
    assert compute_alpha_uniform(chain) == alpha_uniform_oracle(chain)
    assert find_minimal_core(chain) == minimal_core_oracle(chain)


def test_minimal_core_scan_survives_summation_order():
    # state 3 enters {1, 2} at 0.7 + 0.4 and is absorbed at 0.8: summed
    # as (0.7 + 0.4) + 0.8 that is 1.9000000000000001 > C = 1.9, summed in
    # scan order (0.8 + 0.7) + 0.4 it is exactly C; the prefix {1, 2} passes
    chain = build_from_entries(
        [(1, 0, 1.9), (1, 2, 1.0), (2, 3, 1.0), (3, 1, 0.7), (3, 2, 0.4), (3, 0, 0.8)], 4
    )
    alpha, _, _ = compute_alpha_K(chain, [1, 2])
    assert alpha > 1.9 == compute_absorption_sup(chain)[0]
    assert find_minimal_core(chain) == minimal_core_oracle(chain) == (1, 2)


def count_calls(monkeypatch, owner, name):
    """Record the positional arguments of every call made through owner.name."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_alpha_K_calls(monkeypatch):
    """The compute_alpha_K calls the scan makes, as (chain, K) pairs."""
    return count_calls(monkeypatch, importlib.import_module("quasistat.criterion"), "compute_alpha_K")


@pytest.mark.parametrize("K", [None, [1], [1, 2, 3]])
def test_each_report_is_one_pass_over_one_twin(monkeypatch, K):
    # a kill window, so each as_reflecting() that is not handed the twin
    # would construct another one
    chain = catastrophe_chain(n_states=9, drop=3.0, boundary="kill")
    assert chain.kill_rates[-1] > 0
    criterion_mod = importlib.import_module("quasistat.criterion")
    q_bar = count_calls(monkeypatch, criterion_mod, "compute_q_bar")
    alpha = count_calls(monkeypatch, criterion_mod, "compute_alpha_uniform")
    built = count_calls(monkeypatch, AbsorbedChain, "__init__")
    rep = check_uniform_rates(chain) if K is None else check_core_return(chain, K)
    assert rep.core_return_holds and rep.boundary_mode == "kill"
    assert (len(q_bar), len(alpha), len(built)) == (1, 1, 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: catastrophe_chain(drop=3.0),
        lambda: catastrophe_chain(n_states=9, drop=3.0, boundary="kill"),
        lambda: top_column_chain(256),
    ],
    ids=["catastrophe", "catastrophe-kill", "top-column"],
)
def test_witness_core_is_confirmed_once(monkeypatch, make):
    # the report takes the witness core's alpha_K from the prefix scan
    # that confirmed it, and C from its own rate pass
    chain = make()
    criterion_mod = importlib.import_module("quasistat.criterion")
    sups = count_calls(monkeypatch, criterion_mod, "compute_absorption_sup")
    alphas = count_alpha_K_calls(monkeypatch)
    rep = check_uniform_rates(chain)
    assert rep.core_return_holds and rep.K == minimal_core_oracle(chain)
    cores = [tuple(K) for _, K in alphas]
    assert cores[-1] == rep.K and len(set(cores)) == len(cores)
    assert len(sups) == 1


def test_minimal_core_scan_moves_past_a_false_candidate(monkeypatch):
    # state 3 enters {1, 2} at 0.5 + (0.5 - 1e-12), below C = 1 but within
    # the summation margin: its ceiling passes at k = 2 while
    # compute_alpha_K fails there, so the scan must go on to {1, 2, 3}
    chain = build_from_entries(
        [(1, 0, 1.0), (1, 2, 1.0), (2, 1, 2.0), (3, 1, 0.5), (3, 2, 0.5 - 1e-12),
         (3, 4, 1.0), (4, 1, 2.0)],
        5,
    )
    alpha, _, _ = compute_alpha_K(chain, [1, 2])
    assert alpha < 1.0 == compute_absorption_sup(chain)[0]
    assert alpha * (1 + 1e-9) > 1.0
    calls = count_alpha_K_calls(monkeypatch)
    assert find_minimal_core(chain) == (1, 2, 3)
    assert [len(K) for _, K in calls] == [2, 3]
    assert minimal_core_oracle(chain) == (1, 2, 3)


def test_minimal_core_scan_confirms_only_the_passing_prefix(monkeypatch):
    # no prefix below the second-highest state has a passing ceiling, so
    # the scan confirms that one prefix and nothing else
    chain = top_column_chain(2048)
    calls = count_alpha_K_calls(monkeypatch)
    assert find_minimal_core(chain) == tuple(range(1, 2047))
    assert [len(K) for _, K in calls] == [2046]


def test_report_renders_text():
    rep = check_uniform_rates(catastrophe_chain(drop=3.0))
    text = rep.to_text()
    assert "uniform_rates_test = holds" in text
    assert "core_return_test = holds" in text
    assert "c4_bound" in text


# -- random-chain properties --------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_uniform_rates_implies_prefix_core(seed):
    chain = random_return_chain(seed)
    rep = check_uniform_rates(chain)
    if not rep.uniform_rates_holds:
        pytest.skip("uniform-rates test does not hold for this draw")
    K = find_minimal_core(chain)
    assert K is not None
    sub = check_core_return(chain, K)
    assert sub.core_return_holds


@pytest.mark.parametrize("seed", range(25))
def test_solved_moment_never_exceeds_rate_bound(seed):
    # whenever the core-return test holds, the linear-solve route must
    # come in at or under the closed-form ceiling
    chain = random_return_chain(seed)
    rep = check_uniform_rates(chain)
    if not rep.uniform_rates_holds or rep.K is None:
        pytest.skip("no witness core for this draw")
    est = compute_c4(chain, rep.K, rep.lambda0)
    assert est.value <= rep.c4_bound * (1 + 1e-9)


# -- certificates through the rate route ----------------------------------------------


def test_derive_certificate_via_criterion():
    chain = catastrophe_chain(drop=3.0, absorb=1.0)
    cert = derive_certificate_via_criterion(chain, [1], x0=1)
    assert cert.c4 == pytest.approx(1.5)
    assert cert.lambda0 == 1.0
    assert cert.provenance["c4"] == "certified_bound"
    ok, margin = check_ratio_inequality(chain, cert, geometric_grid(0.25, 30.0, 1.5))
    assert ok, f"margin {margin}"


def test_criterion_route_rejects_failing_core():
    with pytest.raises(CertificationError) as ei:
        derive_certificate_via_criterion(catastrophe_chain(drop=0.5), [1], x0=1)
    assert ei.value.part == "criterion"


def test_criterion_route_checks_the_anchor_before_any_evolution(monkeypatch):
    # the package's certify attribute is the function; the module is here
    certify_mod = importlib.import_module("quasistat.certify")
    calls = []
    monkeypatch.setattr(certify_mod, "compute_c1", lambda *a, **k: calls.append(a))
    with pytest.raises(ValidationError, match=r"anchor x0=9 must belong to the core set"):
        derive_certificate_via_criterion(catastrophe_chain(128), range(1, 9), x0=9)
    assert calls == []


def test_criterion_route_rejects_killed_windows():
    chain = build_logistic(1.0, 1.0, 1.0, 16, "kill")
    with pytest.raises(ValidationError, match="reflecting"):
        derive_certificate_via_criterion(chain, [1], x0=1)


def test_both_routes_agree_on_shared_constants():
    chain = catastrophe_chain(drop=3.0, absorb=1.0)
    from quasistat import certify

    direct = certify(chain, K=[1], x0=1, c3_strategy="absorption_rate")
    viarate = derive_certificate_via_criterion(chain, [1], x0=1)
    # same c1/c2/c3 by construction; only the c4 route differs
    assert direct.c1 == viarate.c1
    assert direct.c2 == viarate.c2
    assert direct.c3 == viarate.c3
    assert direct.lambda0 == viarate.lambda0
    # the closed form can never beat the exact solve
    assert direct.c4 <= viarate.c4 + 1e-12
    assert viarate.gamma <= direct.gamma + 1e-15
    # on this chain the two coincide exactly
    assert viarate.c4 == pytest.approx(direct.c4, abs=1e-9)
