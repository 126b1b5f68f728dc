"""Acceptance suite: one test per criterion, fixed seeds, stated tolerances.

Each test prints a single PASS line with the measured quantities so the
suite output doubles as a results table.
"""

import time

import numpy as np

from mixwass import (
    DualPolytope,
    SimConfig,
    TopicMatrix,
    cost_matrix,
    debias,
    kr_dual_value,
    mle_weights,
    sigma_hat,
    wasserstein_primal,
)
from mixwass.selfcheck import run_selftest
from mixwass.simulate import (
    run_ci_experiment,
    run_convergence_experiment,
    run_mle_vs_wls_experiment,
    run_normality_experiment,
)

from oracles import transport_min_by_vertex_enumeration

SEED = 2026
WORKERS = 2


def _random_cost(rng, K):
    p = max(2 * K, 8)
    A = rng.uniform(size=(p, K))
    return cost_matrix(TopicMatrix(A / A.sum(axis=0)), "tv")


def test_criterion_01_duality_suite():
    # 1,000 random instances, K in 2..10: primal equals dual to 1e-8, < 30 s.
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(1000):
        K = 2 + i % 9
        cost = _random_cost(rng, K)
        a = rng.dirichlet(np.ones(K))
        b = rng.dirichlet(np.ones(K))
        primal, _ = wasserstein_primal(a, b, cost)
        dual, _ = kr_dual_value(a - b, DualPolytope(cost))
        worst = max(worst, abs(primal - dual) / max(1.0, primal))
    wall = time.time() - t0
    assert worst <= 1e-8
    assert wall < 30.0
    print(f"ACCEPTANCE 01 PASS: duality gap max {worst:.2e} over 1000 instances in {wall:.1f}s")


def test_criterion_02_brute_force_oracle():
    # 100 random K=3 instances against transportation-polytope enumeration.
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        cost = _random_cost(rng, 3)
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        value, _ = wasserstein_primal(a, b, cost)
        oracle = transport_min_by_vertex_enumeration(a, b, cost.entries)
        worst = max(worst, abs(value - oracle))
    assert worst <= 1e-9
    print(f"ACCEPTANCE 02 PASS: primal vs vertex enumeration, max |diff| {worst:.2e}")


def test_criterion_03_classical_regime_identity():
    # p = 2K, dense interior weights, noiseless X = A alpha: the one-step
    # correction is a no-op (1e-6) and the MLE recovers alpha (1e-4).
    rng = np.random.default_rng(SEED + 2)
    worst_deb, worst_mle = 0.0, 0.0
    for i in range(200):
        K = 2 + i % 7
        A = rng.uniform(size=(2 * K, K))
        A /= A.sum(axis=0)
        while True:
            alpha = rng.dirichlet(np.ones(K))
            if alpha.min() >= 0.02:  # interior draw
                break
        X = A @ alpha
        est = mle_weights(X, A, max_iter=300_000)
        deb = debias(est, X, A)
        worst_deb = max(worst_deb, float(np.abs(deb.alpha - est.alpha).max()))
        worst_mle = max(worst_mle, float(np.abs(est.alpha - alpha).sum()))
    assert worst_deb <= 1e-6
    assert worst_mle <= 1e-4
    print(f"ACCEPTANCE 03 PASS: |debias-mle| max {worst_deb:.2e}, l1(mle-alpha) max {worst_mle:.2e}")


def test_criterion_04_covariance_null_space():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for i in range(200):
        K = 2 + i % 7
        A = rng.uniform(0.02, 1.0, size=(5 * K, K))
        A /= A.sum(axis=0)
        while True:
            alpha = rng.dirichlet(np.ones(K))
            if alpha.min() >= 0.02:
                break
        cov = sigma_hat(alpha, A)
        worst = max(worst, float(np.abs(cov.sigma @ np.ones(K)).max()))
    assert worst <= 1e-8
    worst_id = 0.0
    for _ in range(50):
        K = int(rng.integers(2, 8))
        alpha = rng.dirichlet(np.full(K, 2.0))
        alpha = np.clip(alpha, 1e-3, None)
        alpha /= alpha.sum()
        cov = sigma_hat(alpha, np.eye(K))
        expected = np.diag(alpha) - np.outer(alpha, alpha)
        worst_id = max(worst_id, float(np.abs(cov.sigma - expected).max()))
    assert worst_id <= 1e-8
    print(f"ACCEPTANCE 04 PASS: |Sigma 1|_inf max {worst:.2e}; identity-A defect {worst_id:.2e}")


def test_criterion_05_normality():
    # K=5, p=1000, tau=3, N=500, 500 reps: standardized active coordinates
    # of the debiased estimator pass KS vs N(0,1) at p > 0.01; the
    # simplex-restricted MLE fails at a boundary coordinate.  < 5 min.
    t0 = time.time()
    cfg = SimConfig(K=5, p=1000, N=500, tau=3, n_reps=500, seed=SEED, workers=WORKERS)
    rep = run_normality_experiment(cfg)
    wall = time.time() - t0
    deb = {r["coord"]: r for r in rep.records if r["estimator"] == "debiased"}
    mle = {r["coord"]: r for r in rep.records if r["estimator"] == "mle"}
    active_p = [r["p_value"] for r in deb.values() if r["active"]]
    assert active_p and all(p > 0.01 for p in active_p)
    boundary = [k for k, r in deb.items() if not r["active"]]
    assert boundary and all(mle[k]["p_value"] < 0.01 for k in boundary)
    assert wall < 300.0
    print(
        "ACCEPTANCE 05 PASS: debiased active-coord KS p "
        + ", ".join(f"{p:.3f}" for p in active_p)
        + f"; restricted-MLE boundary p {mle[boundary[0]]['p_value']:.2e}; {wall:.1f}s"
    )


def test_criterion_06_null_ci_table():
    # Null-case 95% CI table at K=5, p=500, N=1000, M=1000, 200 reps.
    t0 = time.time()
    cfg = SimConfig(
        K=5, p=500, N=1000, M=1000, n_reps=200, seed=SEED, methods=("plugin",), workers=WORKERS
    )
    rep = run_ci_experiment(cfg)
    wall = time.time() - t0
    s = rep.summary["plugin"]
    assert rep.failures == 0
    assert 0.90 <= s["coverage"] <= 0.985
    assert 0.8 * 0.063 <= s["mean_length"] <= 1.2 * 0.063
    assert wall < 900.0
    t0 = time.time()
    quick = run_ci_experiment(
        SimConfig(
            K=5, p=500, N=1000, M=1000, n_reps=200, seed=SEED, methods=("plugin",),
            workers=WORKERS, quick=True,
        )
    )
    qwall = time.time() - t0
    qs = quick.summary["plugin"]
    assert quick.config["quick"] and qs["n"] == 100
    assert 0.88 <= qs["coverage"] <= 0.99
    assert qwall < 240.0
    print(
        f"ACCEPTANCE 06 PASS: coverage {s['coverage']:.3f} (band 0.90-0.985), "
        f"length {s['mean_length']:.4f} (target 0.063 +-20%), {wall:.1f}s; "
        f"quick coverage {qs['coverage']:.3f}, {qwall:.1f}s"
    )


def test_criterion_07_alternative_ci_spot_check():
    # Alternative design at N=1000: the plug-in keeps nominal coverage
    # while the m-out-of-N bootstrap undercovers (< 0.85).
    cfg = SimConfig(
        K=5, p=500, N=1000, M=500, B=500, n_reps=10, n_outer=10, seed=SEED,
        design="alternative", methods=("plugin", "m_of_n"), workers=WORKERS,
    )
    rep = run_ci_experiment(cfg)
    plug = rep.summary["plugin"]["coverage"]
    mofn = rep.summary["m_of_n"]["coverage"]
    assert rep.failures == 0
    assert 0.90 <= plug <= 0.985
    assert mofn < 0.85
    print(f"ACCEPTANCE 07 PASS: plug-in coverage {plug:.3f}, m-of-N coverage {mofn:.3f} < 0.85")


def test_criterion_08_mle_vs_wls_ordering():
    # Dense weights at N=500, 1000 paired replicates: debiased-MLE CIs are
    # no wider than WLS CIs, and the paired difference clears 2 sigma.
    cfg = SimConfig(K=5, p=500, N=500, M=4000, n_reps=100, n_outer=10, seed=SEED, workers=WORKERS)
    rep = run_mle_vs_wls_experiment(cfg)
    len_mle = rep.summary["mle_debiased"]["mean_length"]
    len_wls = rep.summary["wls"]["mean_length"]
    diff = rep.summary["paired_length_diff"]
    assert rep.summary["mle_debiased"]["n"] >= 1000
    assert len_mle <= len_wls
    assert diff["mean"] - 2.0 * diff["se"] >= 0.0
    print(
        f"ACCEPTANCE 08 PASS: length MLE {len_mle:.4f} <= WLS {len_wls:.4f} "
        f"(paper 0.087 vs 0.090); paired diff {diff['mean']:.5f} +- {diff['se']:.5f}"
    )


def test_criterion_09_ks_convergence():
    # K=10, p=300, N=1000: two-sample KS between 2000 root-N distance draws
    # and 2000 limit-law draws stays below 0.04.  < 10 min.
    t0 = time.time()
    cfg = SimConfig(K=10, p=300, N=1000, n_reps=2000, M=2000, seed=SEED, workers=WORKERS)
    rep = run_convergence_experiment(cfg)
    wall = time.time() - t0
    d = rep.summary["ks_distance"]
    assert d <= 0.04
    assert wall < 600.0
    print(f"ACCEPTANCE 09 PASS: KS distance {d:.4f} <= 0.04 (paper 0.0087 at 10k draws), {wall:.1f}s")


def test_criterion_10_property_suite():
    results = run_selftest()
    for name, ok, detail in results:
        assert ok, f"property {name} failed: {detail}"
    print(f"ACCEPTANCE 10 PASS: all {len(results)} property checks passed")
