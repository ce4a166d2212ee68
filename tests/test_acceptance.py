"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with its measured numbers and
the tolerance it was held to; the lines are replayed in a terminal
section after the run.  Tolerances are fixed here and nowhere else.
Monte Carlo checks run on pinned seeds, so their sampled values are
stable across reruns bit for bit.
"""

import numpy as np
from scipy.linalg import expm

from quasistat import (
    BirthDeathSpec,
    DistributionOnStates,
    build_logistic,
    check_core_return,
    check_qsd,
    check_ratio_inequality,
    check_uniform_rates,
    compute_c4,
    compute_qsd,
    compute_qsd_auto,
    conditional_distribution,
    conditional_estimate,
    conditional_propagator,
    decay_table,
    evolve_measure,
    find_minimal_core,
    fleming_viot,
    geometric_grid,
    logistic_certificate,
    simulate_batch,
    tail_expected_hitting,
    tv_distance,
    yaglom_limit,
)
from quasistat.bd import _inner_tail

from conftest import (
    alternating_catastrophe_chain,
    bd_hitting_oracle,
    catastrophe_chain,
    random_return_chain,
    random_small_absorbed_chain,
    record_acceptance,
)

LOGISTIC = BirthDeathSpec.logistic(1.0, 1.0, 1.0)


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    record_acceptance(f"ACCEPTANCE {num} {name}: {status} ({detail})")
    assert ok, f"{name}: {detail}"


def test_acceptance_1_qsd_fixed_point():
    # tolerance: invariance TV <= 1e-8 on t in {0.5, 1, 2, 5};
    # eigen residual <= 1e-8
    res = compute_qsd_auto(LOGISTIC, tol=1e-10)
    ok_fp, worst = check_qsd(res.chain, res.qsd, [0.5, 1.0, 2.0, 5.0], tol=1e-8)
    ok = ok_fp and res.eigen_residual <= 1e-8
    verdict(
        1,
        "qsd-fixed-point",
        ok,
        f"window n={res.truncation_n}, worst invariance TV {worst:.3e} <= 1e-8, "
        f"eigen residual {res.eigen_residual:.3e} <= 1e-8",
    )


def test_acceptance_2_mixing_bound_dominates():
    # tolerance: tv <= bound + 1e-9 for t = 1..12 from two extreme starts
    lc = logistic_certificate(1.0, 1.0, 1.0)
    chain, cert = lc.chain, lc.certificate
    mu = DistributionOnStates.delta(1, chain.n_states)
    nu = DistributionOnStates.delta(40, chain.n_states)
    rows = decay_table(chain, mu, nu, [float(t) for t in range(1, 13)],
                       certificate=cert, rho=lc.qsd.qsd)
    bad = [
        r.t
        for r in rows
        if r.tv_pair > r.certified_bound + 1e-9
        or r.tv_mu_to_qsd > r.certified_bound + 1e-9
        or r.tv_nu_to_qsd > r.certified_bound + 1e-9
    ]
    worst_ratio = max(
        max(r.tv_pair, r.tv_mu_to_qsd, r.tv_nu_to_qsd) / r.certified_bound for r in rows
    )
    verdict(
        2,
        "mixing-bound",
        not bad,
        f"gamma {cert.gamma:.3e}, all 12 rows under the bound "
        f"(max observed/bound {worst_ratio:.3e}, slack 1e-9)"
        if not bad
        else f"bound violated at t={bad}",
    )


def test_acceptance_3_yaglom_start_independence():
    # tolerance: limits from delta_1 and delta_40 within 1e-8 of each
    # other and within 1e-7 of the QSD solved by compute_qsd
    chain = build_logistic(1.0, 1.0, 1.0, 64)
    lim1, _ = yaglom_limit(chain, DistributionOnStates.delta(1, 64), tol=1e-11)
    lim2, _ = yaglom_limit(chain, DistributionOnStates.delta(40, 64), tol=1e-11)
    rho = compute_qsd(chain, tol=1e-13).qsd
    gap_pair = tv_distance(lim1, lim2)
    gap_rho = max(tv_distance(lim1, rho), tv_distance(lim2, rho))
    ok = gap_pair <= 1e-8 and gap_rho <= 1e-7
    verdict(
        3,
        "yaglom-start-independence",
        ok,
        f"TV between starts {gap_pair:.3e} <= 1e-8, to QSD {gap_rho:.3e} <= 1e-7",
    )


def test_acceptance_4_survival_ratio_inequality():
    # tolerance: relative margin >= -1e-9 on a geometric grid 0.5..40
    lc = logistic_certificate(1.0, 1.0, 1.0)
    ok, margin = check_ratio_inequality(
        lc.chain, lc.certificate, geometric_grid(0.5, 40.0, 1.5)
    )
    verdict(
        4,
        "survival-ratio-inequality",
        ok,
        f"worst relative margin {margin:.3e} >= -1e-9",
    )


def test_acceptance_5_hitting_series_vs_solver():
    # tolerance: series within rel 1e-8 of an independently assembled
    # sparse solve for x = 2..30; the crowding-term-free variant must
    # miss the same oracle by more than rel 1e-3
    oracle = bd_hitting_oracle(LOGISTIC, 1, 2000)
    rel = max(
        abs(tail_expected_hitting(LOGISTIC, 1, x) - float(oracle[x - 2])) / float(oracle[x - 2])
        for x in range(2, 31)
    )
    wrong = sum(_inner_tail(LOGISTIC, k) / (1.0 * k) for k in range(2, 11))
    wrong_rel = abs(wrong - float(oracle[8])) / float(oracle[8])
    ok = rel <= 1e-8 and wrong_rel > 1e-3
    verdict(
        5,
        "bd-hitting-oracle",
        ok,
        f"series vs solve rel err {rel:.3e} <= 1e-8; "
        f"variant without the crowding divisor off by {wrong_rel:.3e} > 1e-3",
    )


def test_acceptance_6_moment_ceiling_closed_form():
    # tolerance: solved ceiling within 1e-9 of drop/(drop - C) and of
    # the rate-test bound alpha_K/(alpha_K - C)
    chain = catastrophe_chain(drop=3.0, absorb=1.0)
    est = compute_c4(chain, [1], lambda0=1.0)
    rep = check_core_return(chain, [1])
    want = 3.0 / (3.0 - 1.0)
    ok = (
        abs(est.value - want) <= 1e-9
        and rep.core_return_holds
        and abs(rep.c4_bound - want) <= 1e-9
    )
    verdict(
        6,
        "moment-ceiling-closed-form",
        ok,
        f"solved {est.value:.12f} vs alpha_K/(alpha_K-C) {rep.c4_bound:.12f} "
        f"vs exact {want}, both within 1e-9",
    )


def test_acceptance_7_criterion_scope():
    # the uniform-rates test is strictly weaker than the core-return
    # test: it fails on the alternating chain whose pair core passes;
    # and on 100 random bounded-rate chains it always yields a prefix
    # core witness when it holds
    alt = alternating_catastrophe_chain()
    rep_u = check_uniform_rates(alt)
    rep_k = check_core_return(alt, [1, 2])
    split_ok = (not rep_u.uniform_rates_holds) and rep_k.core_return_holds

    held = 0
    witness_ok = True
    for seed in range(100):
        chain = random_return_chain(seed)
        rep = check_uniform_rates(chain)
        if not rep.uniform_rates_holds:
            continue
        held += 1
        K = find_minimal_core(chain)
        if K is None or not check_core_return(chain, K).core_return_holds:
            witness_ok = False
            break
    ok = split_ok and witness_ok and held >= 50
    verdict(
        7,
        "criterion-scope",
        ok,
        f"alternating chain: uniform-rates fails, core {{1,2}} holds "
        f"(alpha_K {rep_k.alpha_K}, C {rep_k.C}); prefix witness on {held}/100 "
        f"random chains where the uniform test held",
    )


def test_acceptance_8_monte_carlo_cross_checks():
    # tolerances: conditional-law TV < 0.02 at t=10 with 1e5 paths
    # (seed 20260815); ensemble TV to the QSD < 0.05 with 1e4 particles
    # at horizon 20 (seed 7); both runs bit-reproducible
    res = compute_qsd_auto(BirthDeathSpec.logistic(2.0, 1.0, 0.25), tol=1e-10)
    chain = res.chain
    mu = DistributionOnStates.delta(5, chain.n_states)
    batch = simulate_batch(chain, mu, horizon=10.0, n_paths=100_000, seed=20260815)
    est, frac = conditional_estimate(batch)
    exact = conditional_distribution(chain, mu, 10.0)
    tv_paths = tv_distance(est, exact)
    # counter-based streams: a shorter rerun must reproduce the prefix
    prefix = simulate_batch(chain, mu, horizon=10.0, n_paths=2_000, seed=20260815)
    reproducible = bool(
        np.array_equal(prefix.end_states, batch.end_states[:2_000])
        and np.array_equal(prefix.times, batch.times[:2_000])
    )

    lg = build_logistic(1.0, 1.0, 1.0, 64)
    rho = compute_qsd(lg, tol=1e-13).qsd
    snaps = fleming_viot(lg, n_particles=10_000, horizon=20.0, seed=7)
    tv_fv = tv_distance(snaps[-1].empirical_distribution(64), rho)
    snaps2 = fleming_viot(lg, n_particles=10_000, horizon=20.0, seed=7)
    reproducible = reproducible and bool(
        np.array_equal(snaps[-1].positions, snaps2[-1].positions)
    )

    ok = tv_paths < 0.02 and tv_fv < 0.05 and reproducible
    verdict(
        8,
        "monte-carlo-cross-checks",
        ok,
        f"paths: survival {frac:.4f}, TV {tv_paths:.4f} < 0.02; "
        f"ensemble: TV {tv_fv:.4f} < 0.05; reruns bitwise equal: {reproducible}",
    )


def test_acceptance_9_dual_route_evolution():
    # tolerance: series evolution within 1e-9 of the dense matrix
    # exponential on 20 random small windows at t in {0.1, 1, 10};
    # conditioned propagation composes to 1e-10
    worst = 0.0
    for seed in range(20):
        chain = random_small_absorbed_chain(seed)
        rng = np.random.default_rng(seed + 500)
        v = rng.uniform(0.0, 1.0, chain.n_transient)
        E = {t: expm(chain.sub_generator.toarray() * t) for t in (0.1, 1.0, 10.0)}
        for t, Et in E.items():
            got = evolve_measure(chain, v, t)
            worst = max(worst, float(np.max(np.abs(got - v @ Et))))

    chain = build_logistic(1.0, 1.0, 1.0, 30)
    mu = DistributionOnStates.delta(3, 30)
    direct = conditional_propagator(chain, mu, 0.0, 6.0, horizon=9.0)
    mid = conditional_propagator(chain, mu, 0.0, 2.5, horizon=9.0)
    chained = conditional_propagator(chain, mid, 2.5, 6.0, horizon=9.0)
    comp_gap = tv_distance(direct, chained)

    ok = worst <= 1e-9 and comp_gap <= 1e-10
    verdict(
        9,
        "dual-route-evolution",
        ok,
        f"series vs expm max abs err {worst:.3e} <= 1e-9 over 60 cases; "
        f"propagator composition TV {comp_gap:.3e} <= 1e-10",
    )
