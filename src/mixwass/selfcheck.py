"""Runtime property suite behind the ``selftest`` CLI command.

Each check returns (name, ok, detail).  The same functions back the pytest
property tests, so the CLI and the test suite cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from . import numlin
from .estimators import MAX_ITER, TOL_KKT, CountVector, Method, _covariances, _design, _interior, _kkt_gaps, debias, mle_weights, sigma_hat, sigma_ls, wls_weights
from .inference import METHODS, _fit_rows, _pair_estimates, confidence_interval, derivative_bootstrap, limit_sampler, m_out_of_n_bootstrap
from .simulate import SimConfig, gen_topic_matrix, gen_weights, run_ci_experiment
from .transport import (
    DualPolytope,
    CostMatrix,
    cost_matrix,
    kr_dual_value,
    restricted_polytope,
    support_batch,
    tv_distance,
    wasserstein_primal,
)


def _random_cost(rng, K: int) -> CostMatrix:
    p = max(2 * K, 8)
    A = rng.uniform(size=(p, K))
    A /= A.sum(axis=0)
    return cost_matrix(A, "tv")


def check_duality(n_instances: int = 200, seed: int = 11) -> tuple[str, bool, str]:
    """|primal - dual| <= 1e-8 * max(1, value) on random instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        K = int(rng.integers(2, 11))
        cost = _random_cost(rng, K)
        a = rng.dirichlet(np.ones(K))
        b = rng.dirichlet(np.ones(K))
        primal, _ = wasserstein_primal(a, b, cost)
        dual, _ = kr_dual_value(a - b, DualPolytope(cost))
        worst = max(worst, abs(primal - dual) / max(1.0, primal))
    return ("strong-duality", worst <= 1e-8, f"max relative gap {worst:.2e}")


def check_metric_axioms(n_instances: int = 100, seed: int = 12) -> tuple[str, bool, str]:
    """Symmetry, identity, and triangle inequality of the distance."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        K = int(rng.integers(2, 7))
        cost = _random_cost(rng, K)
        a, b, c = (rng.dirichlet(np.ones(K)) for _ in range(3))
        w_ab, _ = wasserstein_primal(a, b, cost)
        w_ba, _ = wasserstein_primal(b, a, cost)
        w_aa, _ = wasserstein_primal(a, a, cost)
        w_ac, _ = wasserstein_primal(a, c, cost)
        w_cb, _ = wasserstein_primal(c, b, cost)
        worst = max(worst, abs(w_ab - w_ba), abs(w_aa), w_ab - w_ac - w_cb)
    return ("metric-axioms", worst <= 1e-8, f"max violation {worst:.2e}")


def check_joint_convexity(n_instances: int = 100, seed: int = 13) -> tuple[str, bool, str]:
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_instances):
        K = int(rng.integers(2, 7))
        cost = _random_cost(rng, K)
        a, a2, b, b2 = (rng.dirichlet(np.ones(K)) for _ in range(4))
        lam = rng.uniform()
        mix, _ = wasserstein_primal(lam * a + (1 - lam) * a2, lam * b + (1 - lam) * b2, cost)
        w1, _ = wasserstein_primal(a, b, cost)
        w2, _ = wasserstein_primal(a2, b2, cost)
        worst = max(worst, mix - lam * w1 - (1 - lam) * w2)
    return ("joint-convexity", worst <= 1e-8, f"max excess {worst:.2e}")


def check_dirac_agreement(n_instances: int = 50, seed: int = 14) -> tuple[str, bool, str]:
    """Distance between point masses reproduces the base metric (R2)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        K = int(rng.integers(2, 7))
        cost = _random_cost(rng, K)
        k, l = rng.choice(K, size=2, replace=False)
        e_k = np.zeros(K)
        e_k[k] = 1.0
        e_l = np.zeros(K)
        e_l[l] = 1.0
        w, _ = wasserstein_primal(e_k, e_l, cost)
        worst = max(worst, abs(w - cost.entries[k, l]))
    return ("dirac-agreement", worst <= 1e-8, f"max |W - d| {worst:.2e}")


def check_tv_upper_bound(n_instances: int = 100, seed: int = 15) -> tuple[str, bool, str]:
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_instances):
        K = int(rng.integers(2, 8))
        cost = _random_cost(rng, K)
        a = rng.dirichlet(np.ones(K))
        b = rng.dirichlet(np.ones(K))
        w, _ = wasserstein_primal(a, b, cost)
        worst = max(worst, w - cost.max_entry() * tv_distance(a, b))
    return ("tv-upper-bound", worst <= 1e-8, f"max excess {worst:.2e}")


def check_support_stability(n_instances: int = 50, seed: int = 16) -> tuple[str, bool, str]:
    """Support-function perturbation bound under cost-matrix noise."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_instances):
        K = int(rng.integers(2, 6))
        cost = _random_cost(rng, K)
        noise = rng.uniform(-1, 1, size=(K, K)) * 0.05
        noise = (noise + noise.T) / 2
        np.fill_diagonal(noise, 0.0)
        pert = np.clip(cost.entries + noise, 0.0, None)
        cost2 = CostMatrix(pert)
        eps = float(np.abs(cost.entries - cost2.entries).max())
        u = rng.normal(size=K)
        u /= max(np.abs(u).sum(), 1.0)  # ||u||_1 <= 1
        v1, _ = kr_dual_value(u, DualPolytope(cost))
        v2, _ = kr_dual_value(u, DualPolytope(cost2))
        worst = max(worst, abs(v1 - v2) - eps)
    return ("support-stability", worst <= 1e-8, f"max excess {worst:.2e}")


def check_vertex_lp_agreement(n_instances: int = 30, seed: int = 17) -> tuple[str, bool, str]:
    """Vertex-enumeration support values match the LP solver, on the base
    polytope and on its delta=0 optimal face.  The face's vertices are a
    filter of the base vertices at FACET_SLACK_UNIT scale, so the face is
    held to that scale, not to LP scale."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_face = 0.0
    for _ in range(n_instances):
        K = int(rng.integers(2, 7))
        cost = _random_cost(rng, K)
        poly = DualPolytope(cost)
        U = rng.normal(size=(10, K))
        fast = support_batch(poly, U)
        slow = np.array([kr_dual_value(u, poly)[0] for u in U])
        worst = max(worst, float(np.abs(fast - slow).max()))
        face = restricted_polytope(poly, rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K)), 0.0)
        fast = support_batch(face, U)
        slow = np.array([kr_dual_value(u, face)[0] for u in U])
        worst_face = max(worst_face, float(np.abs(fast - slow).max()))
    ok = worst <= 1e-8 and worst_face <= 2e-5
    return ("vertex-lp-agreement", ok, f"max |vertex - LP| {worst:.2e}, on the delta=0 face {worst_face:.2e}")


def check_interior_certified(n_instances: int = 20, seed: int = 18) -> tuple[str, bool, str]:
    """The MLE kernel's interior-point pass (``estimators._interior``) alone,
    from the uniform point, ends strictly inside the simplex within the KKT
    certificate, in at most 30 steps."""
    rng = np.random.default_rng(seed)
    worst, most, inside = 0.0, 0, True
    for i in range(n_instances):
        K = int(rng.integers(2, 6))
        A = gen_topic_matrix(6 * K, K, [seed, i])
        alpha = rng.dirichlet(np.ones(K)) if i % 2 else np.eye(K)[0]  # odd: dense, even: on the boundary
        X = rng.multinomial(200, A.matrix @ alpha)[None] / 200.0
        x, used = _interior(X, *_design(A), np.full(1, MAX_ITER))
        worst, most, inside = max(worst, float(_kkt_gaps(X, A, x)[0])), max(most, int(used[0])), inside and x.min() > 0.0
    ok = inside and worst <= TOL_KKT and most <= 30
    return ("interior-certified", ok, f"max KKT gap {worst:.2e} in at most {most} steps{'' if inside else ', a weight at 0'}")


def check_debias_fixed_point(n_instances: int = 30, seed: int = 19) -> tuple[str, bool, str]:
    """Debias reproduces the MLE on interior, full-support instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        K = int(rng.integers(2, 6))
        p = 4 * K
        A = rng.uniform(0.2, 1.0, size=(p, K))
        A /= A.sum(axis=0)
        alpha = rng.dirichlet(np.full(K, 5.0))
        X = A @ alpha  # noiseless interior instance
        est = mle_weights(X, A)
        deb = debias(est, X, A)
        if est.alpha.min() > 1e-8:
            worst = max(worst, float(np.abs(deb.alpha - est.alpha).max()))
    return ("debias-fixed-point", worst <= 1e-6, f"max |debias - mle| {worst:.2e}")


def check_sigma_nullspace(n_instances: int = 50, seed: int = 20) -> tuple[str, bool, str]:
    """Plug-in covariance annihilates the all-ones vector on full support."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        K = int(rng.integers(2, 7))
        p = 5 * K
        A = rng.uniform(0.05, 1.0, size=(p, K))
        A /= A.sum(axis=0)
        alpha = rng.dirichlet(np.ones(K) * 3.0)
        cov = sigma_hat(alpha, A)
        worst = max(worst, float(np.abs(cov.sigma @ np.ones(K)).max()))
    return ("sigma-nullspace", worst <= 1e-8, f"max |Sigma 1| {worst:.2e}")


def check_pinv_psd(n_instances: int = 50, seed: int = 21) -> tuple[str, bool, str]:
    """pinv is PSD on PSD inputs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        K = int(rng.integers(2, 8))
        B = rng.normal(size=(K, max(1, K - 2)))
        P = numlin.pinv(B @ B.T)
        worst = max(worst, max(0.0, -float(np.linalg.eigvalsh(P).min())))
    return ("pinv-psd", worst <= 1e-8, f"max defect {worst:.2e}")


def check_sampler_nonneg(seed: int = 22) -> tuple[str, bool, str]:
    """Limit samples are non-negative whenever f = 0 is feasible."""
    rng = np.random.default_rng(seed)
    K, p = 4, 40
    A = gen_topic_matrix(p, K, seed)
    cost = cost_matrix(A, "tv")
    alpha = rng.dirichlet(np.ones(K))
    X = rng.multinomial(300, A.matrix @ alpha) / 300.0
    est = mle_weights(X, A)
    s_plain = limit_sampler(est, est, A, cost, delta=None, M=200, seed=7)
    s_wide = limit_sampler(est, est, A, cost, delta=cost.max_entry() + 1.0, M=200, seed=7)
    ok = bool(s_plain.samples.min() >= 0 and s_wide.samples.min() >= 0)
    ok = ok and s_plain.zero_feasible and s_wide.zero_feasible
    return ("sampler-nonnegative", ok, f"min sample {min(s_plain.samples.min(), s_wide.samples.min()):.2e}")


def check_sampler_reproducible(seed: int = 23) -> tuple[str, bool, str]:
    rng = np.random.default_rng(seed)
    K, p = 3, 30
    A = gen_topic_matrix(p, K, seed)
    cost = cost_matrix(A, "tv")
    alpha = rng.dirichlet(np.ones(K))
    X = rng.multinomial(200, A.matrix @ alpha) / 200.0
    est = mle_weights(X, A)
    s1 = limit_sampler(est, est, A, cost, delta=None, M=100, seed=99)
    s2 = limit_sampler(est, est, A, cost, delta=None, M=100, seed=99)
    ok = bool(np.array_equal(s1.samples, s2.samples))
    return ("sampler-reproducible", ok, "bitwise equal" if ok else "mismatch")


def check_quantile_monotone(seed: int = 24) -> tuple[str, bool, str]:
    """CI quantile ordering: nested levels give nested intervals."""
    rng = np.random.default_rng(seed)
    from .inference import LimitSampleSet

    samples = LimitSampleSet(rng.exponential(size=500), delta=None, seed=seed, zero_feasible=True)
    wide = confidence_interval(0.5, samples, 0.05, 400, 400)
    narrow = confidence_interval(0.5, samples, 0.5, 400, 400)
    ok = wide.lower <= narrow.lower <= narrow.upper <= wide.upper and wide.width >= 0
    gammas = np.linspace(0.05, 0.95, 19)
    qs = [samples.quantile(g) for g in gammas]
    ok = ok and bool(np.all(np.diff(qs) >= 0))
    return ("quantile-monotone", bool(ok), f"width {wide.width:.3f} >= {narrow.width:.3f}")


def check_batch_matches_single(seed: int = 25, Ks=(3, 5, 8)) -> tuple[str, bool, str]:
    """The one fit path gives each document the bits of the public
    single-document functions: the MLE, debiased and WLS estimates with
    their iterations, certificates, KKT gaps and plug-in covariances, for
    corpora of 1, 2, 3, 33 and 70 documents (a lone row, a doubled row
    of the two-row products, runs of ``_CHUNK`` rows), dense and sparse."""
    rng = np.random.default_rng(seed)
    compared = differ = 0
    for K in Ks:
        A = gen_topic_matrix(12 * K, K, [seed, K])
        for tau in (0, K // 2):  # dense, and sparse with half the topics
            XB = np.stack([rng.multinomial(300, A.matrix @ gen_weights(K, tau, rng).values) for _ in range(70)]) / 300.0
            single = []
            for X in XB:
                mle, wls = mle_weights(X, A), wls_weights(X, A)
                fits = [(mle, None), (debias(mle, X, A), sigma_hat(mle, A).sigma), (wls, sigma_ls(wls, X, A).sigma)]
                single.append(dict(zip(Method, fits)))  # MLE, DEBIASED, WLS
            for n, method in itertools.product((1, 2, 3, 33, 70), Method):
                fits = _fit_rows(XB[:n], A, method)
                sigma = _covariances(fits, XB[:n], A)
                for b in range(n):
                    (one, cov), batched = single[b][method], fits.estimate(b)
                    same = np.array_equal(one.alpha, batched.alpha) and vars(one) | {"alpha": 0} == vars(batched) | {"alpha": 0}
                    same &= cov is None if sigma is None else np.array_equal(cov, sigma[b])
                    compared, differ = compared + 1, differ + (not same)
    return ("batch-vs-single", differ == 0, f"{differ} of {compared} fits differ")


def check_limit_batch_matches_single(seed: int = 29, K: int = 5, deltas=(None, 0.0)) -> tuple[str, bool, str]:
    """Every interval method over a chunk of 8 fitted pairs gives each pair
    the bits of its public single-pair function (``limit_sampler``,
    ``derivative_bootstrap``, ``m_out_of_n_bootstrap``), at each slab width
    of ``deltas``; by default on the full polytope and on the delta=0 face."""
    rng = np.random.default_rng(seed)
    p, N, n, M, B = 60, 300, 8, 200, 40
    A = gen_topic_matrix(p, K, seed)
    poly = DualPolytope(cost_matrix(A, "tv"))
    alpha = rng.dirichlet(np.ones(K), size=2)
    counts = [rng.multinomial(N, A.matrix @ a, size=n) for a in alpha]
    pairs, _ = _pair_estimates(*counts, N, N, A, poly)
    seeds = [int(s) for s in rng.integers(0, 2**32, size=n)]
    docs = [[CountVector(c[b]) for c in counts] for b in range(n)]
    single = {
        "plugin": lambda b, d: limit_sampler(pairs.mle_i[b], pairs.mle_j[b], A, poly, delta=d, M=M, seed=seeds[b]),
        "deriv_bs": lambda b, d: derivative_bootstrap(*docs[b], A, poly, delta=d, B=B, seed=seeds[b]),
        "m_of_n": lambda b, d: m_out_of_n_bootstrap(*docs[b], A, poly, gamma=0.5, B=B, seed=seeds[b]),
    }
    differ = 0
    for delta in deltas:
        for name, method in METHODS.items():
            for b, law in enumerate(method.sampler(pairs, A, poly, seeds, dict(M=M, B=B, gamma=0.5, delta=delta))):
                one = single[name](b, delta)
                differ += not (np.array_equal(law.samples, one.samples) and law.meta == one.meta)
    return ("limit-batch-vs-single", differ == 0, f"{differ} of {len(deltas) * len(METHODS) * n} sample sets differ")


def check_mle_certified(n_instances: int = 40, seed: int = 28) -> tuple[str, bool, str]:
    """Every MLE fit of random dense and sparse instances meets its KKT
    certificate and says so."""
    rng = np.random.default_rng(seed)
    worst, failed = 0.0, 0
    for i in range(n_instances):
        K = int(rng.integers(2, 11))
        A = gen_topic_matrix(10 * K, K, [seed, i]).matrix
        alpha = rng.dirichlet(np.ones(K))
        if i % 2:  # sparse: about half the topics absent
            alpha[rng.uniform(size=K) < 0.5] = 0.0
            alpha = alpha / alpha.sum() if alpha.sum() > 0 else np.eye(K)[0]
        N = int(rng.choice([50, 500, 5000]))
        est = mle_weights(rng.multinomial(N, A @ alpha) / N, A)
        worst = max(worst, est.kkt_gap)
        failed += not (est.converged and est.kkt_gap <= TOL_KKT)
    return ("mle-certified", failed == 0, f"{failed} uncertified, max KKT gap {worst:.2e}")


def check_worker_determinism(seed: int = 26) -> tuple[str, bool, str]:
    """Driver reports are identical under different worker counts."""
    cfg = SimConfig(K=3, p=40, N=120, n_reps=40, M=100, seed=seed, methods=("plugin",), level=0.3)
    r1 = run_ci_experiment(cfg)
    r2 = run_ci_experiment(dataclasses.replace(cfg, workers=2))
    ok = r1.failures == 0 and r1.fingerprint() == r2.fingerprint()
    return ("worker-determinism", ok, "fingerprints equal" if ok else "fingerprints differ")


def check_ci_length_decreases(seed: int = 27) -> tuple[str, bool, str]:
    """Mean plug-in CI length shrinks along N in {100, 500, 1000, 3000}."""
    lengths = []
    ok = True
    for N in (100, 500, 1000, 3000):
        cfg = SimConfig(K=3, p=60, N=N, n_reps=24, M=200, seed=seed, methods=("plugin",), level=0.1)
        rep = run_ci_experiment(cfg)
        ok = ok and rep.failures == 0
        lengths.append(rep.summary["plugin"]["mean_length"])
    ok = ok and bool(np.all(np.diff(lengths) < 0))
    return ("ci-length-decreasing", ok, "lengths " + ", ".join(f"{v:.4f}" for v in lengths))


ALL_CHECKS = [
    check_duality,
    check_metric_axioms,
    check_joint_convexity,
    check_dirac_agreement,
    check_tv_upper_bound,
    check_support_stability,
    check_vertex_lp_agreement,
    check_interior_certified,
    check_debias_fixed_point,
    check_sigma_nullspace,
    check_pinv_psd,
    check_sampler_nonneg,
    check_sampler_reproducible,
    check_quantile_monotone,
    check_batch_matches_single,
    check_limit_batch_matches_single,
    check_mle_certified,
    check_worker_determinism,
    check_ci_length_decreases,
]


def run_selftest(quick: bool = False) -> list[tuple[str, bool, str]]:
    checks = ALL_CHECKS
    if quick:
        checks = [c for c in checks if c not in (check_worker_determinism, check_ci_length_decreases)]
    return [c() for c in checks]
