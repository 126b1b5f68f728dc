import dataclasses
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from scipy import stats as sstats

import mixwass
from mixwass import SimConfig, gen_document, gen_topic_matrix, gen_weights, perturb_topics
from mixwass import DualPolytope, TopicMatrix, cost_matrix, estimators, inference, limit_sampler, mle_weights, simulate
from mixwass.errors import InvalidParam, LPFailure, SingularInformation
from mixwass.simulate import (
    run_ci_experiment,
    run_convergence_experiment,
    run_mle_vs_wls_experiment,
    run_normality_experiment,
)


# --- generators ---------------------------------------------------------------


def test_gen_topic_matrix_basics():
    A = gen_topic_matrix(7, 1, 0)
    assert A.K == 1 and abs(A.matrix.sum() - 1.0) <= 1e-12
    B = gen_topic_matrix(50, 4, 123)
    assert np.abs(B.matrix.sum(axis=0) - 1.0).max() <= 1e-12
    C = gen_topic_matrix(50, 4, 123)
    assert np.array_equal(B.matrix, C.matrix)


def test_gen_weights_sparse_support():
    w = gen_weights(1, 1, 0)
    assert w.values.tolist() == [1.0]
    for seed in range(10):
        w = gen_weights(5, 3, seed)
        assert int(np.sum(w.values > 0)) == 3
        assert w.values.sum() == pytest.approx(1.0)


def test_gen_weights_dense_k2_marginal_uniform():
    # Dirichlet(1,1) marginal is Unif(0,1); KS over 10k draws.
    draws = np.array([gen_weights(2, 0, [99, i]).values[0] for i in range(10_000)])
    assert sstats.kstest(draws, "uniform").pvalue > 0.01


def test_gen_weights_validates_tau():
    with pytest.raises(InvalidParam):
        gen_weights(3, 5, 0)


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.1, True])
def test_perturb_topics_refuses_a_bad_noise_by_name(noise):
    # A NaN noise used to fail as InvalidSimplex on the perturbed matrix.
    with pytest.raises(InvalidParam, match="^noise must be"):
        perturb_topics(gen_topic_matrix(30, 3, 5), noise, 0)


def test_gen_document_point_mass_and_single_draw():
    doc = gen_document(np.array([0.0, 1.0, 0.0]), 25, 0)
    assert doc.counts[1] == 25 and doc.N == 25
    one = gen_document(np.array([0.3, 0.7]), 1, 1)
    assert one.counts.sum() == 1 and one.counts.max() == 1


def test_gen_document_binomial_mean():
    r = np.array([0.3, 0.7])
    means = np.array([gen_document(r, 100, [7, i]).counts[0] for i in range(10_000)]).mean()
    se = np.sqrt(100 * 0.3 * 0.7 / 10_000)
    assert abs(means - 30.0) <= 4.0 * se


def test_perturb_topics():
    A = gen_topic_matrix(30, 3, 5)
    assert perturb_topics(A, 0.0, 0) is A
    B = perturb_topics(A, 0.1, 0)
    assert np.abs(B.matrix.sum(axis=0) - 1.0).max() <= 1e-12
    assert np.abs(B.matrix - A.matrix).max() > 0


# --- SimConfig ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(InvalidParam):
        SimConfig(K=5, p=3)
    with pytest.raises(InvalidParam):
        SimConfig(tau=9, K=5)
    with pytest.raises(InvalidParam):
        SimConfig(gamma=1.5)
    with pytest.raises(InvalidParam):
        SimConfig(methods=("nope",))
    with pytest.raises(InvalidParam):
        SimConfig(design="both")
    with pytest.raises(InvalidParam, match="unknown metric 'foo'"):
        SimConfig(metric="foo")  # refused when built, not when a driver starts


def test_config_rejects_empty_monte_carlo_and_bad_workers():
    for bad in (dict(M=0), dict(B=0), dict(workers=-3), dict(workers=0)):
        with pytest.raises(InvalidParam):
            SimConfig(**bad)


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -0.1, True])
def test_config_rejects_non_finite_or_negative_delta(delta):
    # delta=True used to be a slab width of 1.0.
    with pytest.raises(InvalidParam, match="delta"):
        SimConfig(delta=delta)


_SIZES = ("K", "p", "N", "N_j", "tau", "n_reps", "n_outer", "M", "B", "seed", "workers")


@pytest.mark.parametrize(
    "bad", [dict(M=500.5), dict(n_reps=4.5), dict(K=3.0), dict(N=100.5), dict(N_j=99.5), dict(seed=1.0), *({n: True} for n in _SIZES)]
)
def test_config_refuses_non_integer_sizes(bad):
    # They used to pass validation; then the driver died in numpy, or N=100.5
    # drew 100-word documents.  A bool is not a size: K=True ran with K=1.
    with pytest.raises(InvalidParam, match="integer"):
        SimConfig(**bad)


@pytest.mark.parametrize("a_noise", [float("nan"), float("inf"), -0.5, "0.1"])
def test_config_refuses_a_bad_topic_noise_when_built(a_noise):
    # NaN used to fail in the driver as a non-finite topic matrix.
    message = "a real number" if isinstance(a_noise, str) else "finite and >= 0"
    with pytest.raises(InvalidParam, match=f"^a_noise must be {message}"):
        SimConfig(a_noise=a_noise)


def test_integer_sizes_may_be_numpy_integers():
    assert SimConfig(K=np.int64(3), p=np.int32(40), N=np.int64(100), N_j=None).N == 100
    with pytest.raises(InvalidParam, match="integer"):
        gen_document(np.full(4, 0.25), 10.5, 0)
    assert gen_document(np.full(4, 0.25), np.int64(10), 0).N == 10


def test_config_quick_scaling():
    cfg = SimConfig(n_reps=500, M=2000, B=2000, quick=True)
    scaled = cfg.scaled()
    assert (scaled.n_reps, scaled.M, scaled.B) == (100, 500, 500)
    assert SimConfig(n_reps=500).scaled().n_reps == 500


# --- drivers ---------------------------------------------------------------------


SMALL = dict(K=3, p=40, N=150, M=80, B=60, seed=7, level=0.3)


def test_ci_experiment_single_record():
    cfg = SimConfig(n_reps=1, methods=("plugin",), **SMALL)
    rep = run_ci_experiment(cfg)
    assert rep.kind == "ci-null"
    assert len(rep.records) == 1
    assert rep.summary["plugin"]["n"] == 1
    assert rep.failures == 0 and not rep.invalid


def test_ci_experiment_deterministic_fingerprint():
    # B=80 meets the level-0.3 minimum of 67 draws, so m-of-n runs.
    cfg = SimConfig(n_reps=8, methods=("plugin", "m_of_n"), **{**SMALL, "B": 80})
    r1 = run_ci_experiment(cfg)
    r2 = run_ci_experiment(cfg)
    assert r1.failures == 0
    assert r1.fingerprint() == r2.fingerprint()


def test_ci_experiment_worker_invariance():
    cfg = SimConfig(n_reps=40, methods=("plugin",), **SMALL)
    r1 = run_ci_experiment(cfg)
    r2 = run_ci_experiment(dataclasses.replace(cfg, workers=2))
    assert r1.fingerprint() == r2.fingerprint()


def test_ci_experiment_alternative_design():
    cfg = SimConfig(n_reps=3, n_outer=2, design="alternative", methods=("plugin",), **SMALL)
    rep = run_ci_experiment(cfg)
    assert rep.kind == "ci-alternative"
    assert len(rep.records) == 6
    true_ws = {r["true_W"] for r in rep.records}
    assert len(true_ws) == 2 and all(w > 0 for w in true_ws)


def test_ci_experiment_unequal_sizes():
    cfg = SimConfig(n_reps=2, N_j=90, methods=("plugin",), **SMALL)
    rep = run_ci_experiment(cfg)
    assert len(rep.records) == 2


def test_normality_experiment_smoke():
    cfg = SimConfig(K=3, p=60, N=250, tau=2, n_reps=150, seed=3, estimators=("mle_debiased", "wls"))
    rep = run_normality_experiment(cfg)
    names = {r["estimator"] for r in rep.records}
    assert names == {"mle", "debiased", "wls"}
    for rec in rep.records:
        assert len(rec["draws"]) == 150
    # The restricted MLE at a boundary coordinate is the negative control:
    # its KS statistic exceeds the debiased estimator's at the same coord.
    zero_coords = [r["coord"] for r in rep.records if r["estimator"] == "debiased" and not r["active"]]
    assert zero_coords
    k = zero_coords[0]
    ks = {r["estimator"]: r["ks_stat"] for r in rep.records if r["coord"] == k}
    assert ks["mle"] > ks["debiased"]


def test_convergence_experiment_smoke():
    cfg = SimConfig(K=3, p=50, N=300, n_reps=120, M=150, seed=11)
    rep = run_convergence_experiment(cfg)
    assert 0.0 <= rep.summary["ks_distance"] <= 1.0
    assert rep.summary["n_stat"] == 120
    assert rep.summary["n_limit"] == 150
    draws = rep.records[0]
    assert min(draws["stat_draws"]) >= 0.0
    assert min(draws["limit_draws"]) >= 0.0


def test_mle_vs_wls_experiment_smoke():
    cfg = SimConfig(K=3, p=50, N=200, n_reps=10, n_outer=2, M=500, seed=13, level=0.1)
    rep = run_mle_vs_wls_experiment(cfg)
    assert set(rep.summary) == {"mle_debiased", "wls", "paired_length_diff"}
    assert rep.summary["mle_debiased"]["n"] == 20
    assert len(rep.summary["paired_length_diff"]["per_outer"]) == 2
    for o in rep.summary["paired_length_diff"]["per_outer"]:
        assert o["length_mle"] > 0 and o["length_wls"] > 0


def test_failed_replicates_flag_report_invalid(monkeypatch):
    # A sampler that fails every replicate; the report is flagged invalid
    # instead of silently aggregating.
    def singular(alphas, A):
        raise SingularInformation("injected fault")

    monkeypatch.setattr(inference, "_sigma_batch", singular)
    cfg = SimConfig(K=3, p=40, N=100, n_reps=5, M=500, level=0.05, seed=1, methods=("plugin",))
    rep = run_ci_experiment(cfg)
    assert rep.failures == 5
    assert rep.invalid
    assert all(r["error"] == "SingularInformation: injected fault" for r in rep.records)


def _em_batch_sizes(monkeypatch) -> Counter:
    """Counts of ``_em_batch`` calls by batch size, from now on."""
    sizes = Counter()
    real = estimators._em_batch

    def counted(X, *args, **kwargs):
        sizes[len(X)] += 1
        return real(X, *args, **kwargs)

    monkeypatch.setattr(estimators, "_em_batch", counted)
    return sizes


@pytest.mark.parametrize("method,size", [("plugin", "M"), ("deriv_bs", "B"), ("m_of_n", "B")])
def test_ci_experiment_refuses_a_size_too_small_for_its_level_before_any_fit(monkeypatch, method, size):
    # 20/level = 400 draws at level 0.05: the run stops before it fits a pair.
    sizes = _em_batch_sizes(monkeypatch)
    cfg = SimConfig(K=3, p=40, N=100, n_reps=5, M=500, B=500, level=0.05, seed=1, methods=(method,))
    with pytest.raises(InvalidParam, match=f"need {size} >= 400 samples for level 0.05"):
        run_ci_experiment(dataclasses.replace(cfg, **{size: 399}))
    assert not sizes


def test_bootstraps_take_the_chunk_fits_and_refit_no_pair(monkeypatch):
    # The chunk's 8 pairs are one batch of 16 fits, and each bootstrap's B
    # resampled pairs are 2B rows in runs of 32 (six of 32 and one of 8);
    # no pair is fitted again as a batch of one.
    sizes = _em_batch_sizes(monkeypatch)
    cfg = SimConfig(
        K=3, p=40, N=120, n_reps=8, n_outer=1, M=100, B=100, level=0.3, seed=5, design="alternative", methods=("deriv_bs", "m_of_n")
    )
    rep = run_ci_experiment(cfg)
    assert rep.failures == 0
    assert dict(sizes) == {32: 6 * 16, 8: 16, 16: 1}


def test_config_rejects_negative_seed():
    with pytest.raises(InvalidParam, match="seed must be >= 0"):
        SimConfig(seed=-1)


def _ci_pairs(rep):
    return [
        (r["W_tilde"], r["methods"]["plugin"]["lower"], r["methods"]["plugin"]["upper"])
        for r in rep.records
        if r["error"] is None
    ]


def _conv_pairs(rep):
    return [(w / np.sqrt(rep.config["N"]),) for w in rep.records[0]["stat_draws"]]


def _mle_ls_pairs(rep):
    return [(r["mle_debiased"]["W"], r["wls"]["W"]) for r in rep.records if "error" not in r]


# Each driver with the per-pair values of its report; the first value of a
# pair is its debiased distance estimate.
FAULT_DRIVERS = {
    "ci": (run_ci_experiment, dict(methods=("plugin",)), _ci_pairs),
    "convergence": (run_convergence_experiment, {}, _conv_pairs),
    "mle-vs-wls": (run_mle_vs_wls_experiment, dict(n_outer=1), _mle_ls_pairs),
}


@pytest.mark.parametrize("driver", sorted(FAULT_DRIVERS))
def test_ci_experiment_isolates_a_failing_replicate(monkeypatch, driver):
    # A fault in the batched stage costs only the replicate it belongs to.
    run, extra, pairs = FAULT_DRIVERS[driver]
    cfg = SimConfig(n_reps=8, **extra, **SMALL)
    clean = run(cfg)
    bad_W = pairs(clean)[5][0]
    real_support_batch = inference.support_batch

    def faulty_support_batch(poly, directions):
        W = real_support_batch(poly, directions)
        if np.any(np.isclose(W, bad_W, rtol=1e-9, atol=0.0)):
            raise LPFailure("injected fault")
        return W

    monkeypatch.setattr(inference, "support_batch", faulty_support_batch)
    rep = run(cfg)
    assert rep.failures == 1 and rep.invalid
    if driver != "convergence":
        assert rep.records[5]["error"] == "LPFailure: injected fault"
    want = pairs(clean)
    del want[5]
    got = pairs(rep)
    assert len(got) == len(want)
    for w, g in zip(want, got):
        assert g == pytest.approx(w, rel=1e-9, abs=1e-12)


def test_plugin_chunk_loses_only_the_replicate_with_singular_information(monkeypatch):
    # Topic 0 owns words 0-9 and shares none.  A document of only those
    # words fits alpha = e_0, whose information matrix over its support
    # (words 0-9) has rank 1: sigma_hat raises SingularInformation.
    K, p, N = 3, 40, 200
    rng = np.random.default_rng(3)
    A = rng.uniform(0.1, 1.0, size=(p, K))
    A[:10, 1:] = 0.0
    A[10:, 0] = 0.0
    A /= A.sum(axis=0)
    counts_i = rng.multinomial(N, A @ np.full(K, 1.0 / K), size=6)
    counts_j = rng.multinomial(N, A @ np.full(K, 1.0 / K), size=6)
    counts_i[2] = rng.multinomial(N, A[:, 0])
    monkeypatch.setattr(simulate, "_draw_pairs", lambda config, outer, reps, *rest: (counts_i[reps], counts_j[reps]))
    config = SimConfig(K=K, p=p, N=N, M=200, level=0.3, n_reps=6, methods=("plugin",))
    poly = DualPolytope(cost_matrix(A, "tv"))

    def chunk(reps):
        return simulate._ci_chunk_worker((config, TopicMatrix(A), poly, 0, np.asarray(reps), None, None, 0.0, None))

    records = chunk(range(6))
    mle = [mle_weights(counts[2] / N, A) for counts in (counts_i, counts_j)]
    with pytest.raises(SingularInformation) as exc:
        limit_sampler(*mle, A, poly, delta=None, M=200, seed=0)
    assert [r["error"] for r in records] == [None, None, f"SingularInformation: {exc.value}", None, None, None]
    assert np.isfinite(records[2]["W_tilde"])  # the pair itself was estimated
    for c in range(6):
        assert chunk([c]) == [records[c]]


def test_import_leaves_scipy_stats_unloaded():
    # No scipy module at all: each solver is imported where it is called.
    src = os.path.dirname(os.path.dirname(mixwass.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mixwass, mixwass.io, mixwass.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_report_roundtrip_dict():
    cfg = SimConfig(n_reps=2, methods=("plugin",), **SMALL)
    rep = run_ci_experiment(cfg)
    d = rep.to_dict()
    assert d["fingerprint"] == rep.fingerprint()
    assert d["config"]["K"] == 3
    assert "wall_clock_s" in d


def test_mle_vs_wls_replicate_does_not_depend_on_its_chunk_width():
    # Replicate 32 is a chunk of its own at 33 replicates and the first of a
    # full chunk at 64: each WLS fit is its own matrix-vector product, so it
    # gets the same bits either way.
    cfg = SimConfig(K=5, p=80, N=300, n_reps=33, n_outer=1, M=200, seed=2, level=0.1)
    narrow = run_mle_vs_wls_experiment(cfg).records
    wide = run_mle_vs_wls_experiment(dataclasses.replace(cfg, n_reps=64)).records
    assert narrow == wide[:33]
