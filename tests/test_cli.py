"""The CLI's option resolution: flags, config files and MIXWASS_THREADS.

Every option is declared once and each source of its value goes through
that declaration, so an ill-typed or unknown setting is an error wherever
it comes from.  The smoke matrix runs every command to stdout and to a file.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixwass
import mixwass.selfcheck
from mixwass import CountVector, cost_matrix, derivative_bootstrap, gen_topic_matrix, m_out_of_n_bootstrap, wls_weights
from mixwass.cli import _settings, build_parser, main
from mixwass.errors import InfeasibleRow
from mixwass.io import load_counts, load_topics, save_counts, save_topics


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Topics (p=40, K=3) and two documents of 400 words."""
    tmp = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(1)
    A = gen_topic_matrix(40, 3, 2)
    r = A.matrix @ rng.dirichlet(np.ones(3))
    save_topics(A, tmp / "topics.csv")
    save_counts([CountVector(rng.multinomial(400, r)) for _ in range(2)], tmp / "counts.csv")
    return tmp, ["--counts", str(tmp / "counts.csv"), "--topics", str(tmp / "topics.csv")]


_TABLE = ["--K", "3", "--p", "40", "--N", "120", "--reps", "4", "--outer", "2", "--M", "60", "--B", "60", "--level", "0.35", "--seed", "5"]


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _config(tmp, table) -> str:
    path = tmp / "cfg.json"
    path.write_text(json.dumps(table))
    return str(path)


# --- smoke matrix -------------------------------------------------------------

_SMOKE = [
    *[["estimate", "--method", m] for m in ("mle", "debias", "wls")],
    ["distance", "--estimator", "debias"],
    *[["ci", "--method", m, "--M", "400", "--B", "400", "--seed", "3"] for m in ("plugin", "deriv-bs", "m-of-n")],
    *[["simulate-table", kind, *_TABLE] for kind in ("null-ci", "alt-ci", "mle-vs-wls", "ks-convergence", "normality")],
]


@pytest.mark.parametrize("argv", _SMOKE, ids=lambda a: "-".join(a[:3]))
def test_cli_smoke_stdout_and_out_give_the_same_report(files, tmp_path, capsys, argv):
    inputs = [] if argv[0] == "simulate-table" else files[1]
    code, out, _ = _run([*argv, *inputs], capsys)
    assert code == 0
    printed = json.loads(out)
    code, out, _ = _run([*argv, *inputs, "--out", str(tmp_path / "r.json")], capsys)
    assert code == 0 and out.startswith("report written to")
    written = json.loads((tmp_path / "r.json").read_text())
    assert set(printed) == set(written) == {"manifest", "report"}
    assert printed["manifest"]["config_hash"] == written["manifest"]["config_hash"]
    if argv[0] == "simulate-table":
        assert printed["report"]["fingerprint"] == written["report"]["fingerprint"]
    else:
        assert printed["report"] == written["report"]


def test_cli_subprocess_simulate_table_to_stdout():
    src = str(Path(mixwass.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("MIXWASS_THREADS", None)
    cmd = [sys.executable, "-m", "mixwass.cli", "simulate-table", "null-ci", *_TABLE]
    res = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["report"]["summary"]["plugin"]["n"] == 4


# --- one regression test per defect of the old resolution ---------------------


def test_cli_simulate_table_zero_workers_exit_2(tmp_path, capsys):
    code, _, err = _run(["simulate-table", "null-ci", *_TABLE, "--workers", "0", "--out", str(tmp_path / "t.json")], capsys)
    assert code == 2 and "workers must be >= 1" in err
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("threads,message", [("abc", "MIXWASS_THREADS: invalid int value 'abc'"), ("0", "workers must be >= 1")])
def test_cli_bad_mixwass_threads_exit_2(monkeypatch, capsys, threads, message):
    monkeypatch.setenv("MIXWASS_THREADS", threads)
    code, _, err = _run(["simulate-table", "null-ci", *_TABLE], capsys)
    assert code == 2 and message in err


def test_cli_ill_typed_delta_flag_is_a_usage_error(files, capsys):
    code, _, err = _run(["ci", *files[1], "--delta", "abc"], capsys)
    assert code == 1 and "usage" in err and "--delta" in err


@pytest.mark.parametrize("delta", ["nan", "inf"])
@pytest.mark.parametrize("method", ["plugin", "deriv-bs"])
def test_cli_non_finite_delta_exits_2(files, tmp_path, capsys, monkeypatch, delta, method):
    sizes = _count_em_batch(monkeypatch)
    code, _, err = _run(["ci", *files[1], "--method", method, "--B", "400", "--delta", delta, "--out", str(tmp_path / "ci.json")], capsys)
    assert code == 2 and "delta must be finite" in err
    assert not (tmp_path / "ci.json").exists()
    assert sizes == []  # refused before any fit


@pytest.mark.parametrize(
    "table,named",
    [
        ({"level": "abc"}, "key 'level': invalid float value 'abc'"),
        ({"doc_i": "x"}, "key 'doc_i': invalid int value 'x'"),
        ({"M": 100.9}, "key 'M': invalid int value 100.9"),
        ({"levle": 0.3}, "unknown key 'levle'"),
        ([1, 2], "expected a table of option values, not list"),
    ],
    ids=["level-abc", "doc_i-x", "M-float", "unknown-key", "not-a-table"],
)
def test_cli_ci_bad_config_file_exits_2_naming_file_and_key(files, tmp_path, capsys, table, named):
    cfg = _config(tmp_path, table)
    # At level 0.2, M=100 is enough: a truncated M would run.
    code, _, err = _run(["ci", *files[1], "--level", "0.2", "--config", cfg], capsys)
    assert code == 2
    assert f"config file {cfg}: {named}" in err


@pytest.mark.parametrize(
    "table,named",
    [({"quick": "false"}, "key 'quick': expected true or false, not 'false'"), ({"reps": 2}, "unknown key 'reps'")],
    ids=["quick-string", "flag-name-as-key"],
)
def test_cli_simulate_table_bad_config_file_exits_2(tmp_path, capsys, table, named):
    cfg = _config(tmp_path, table)
    code, _, err = _run(["simulate-table", "null-ci", *_TABLE, "--config", cfg], capsys)
    assert code == 2 and f"config file {cfg}: {named}" in err


def test_cli_simulate_table_config_methods_array(tmp_path):
    cfg = _config(tmp_path, {"methods": ["m_of_n"], "n_reps": 3})
    assert main(["simulate-table", "alt-ci", *_TABLE, "--config", cfg, "--out", str(tmp_path / "t.json")]) == 0
    report = json.loads((tmp_path / "t.json").read_text())["report"]
    assert report["config"]["methods"] == ["m_of_n"]
    assert set(report["summary"]) == {"m_of_n"} and report["summary"]["m_of_n"]["n"] == 2 * 4


# --- one resolution for every source --------------------------------------------


def _table_settings(argv, cfg=None):
    parser = build_parser()
    return _settings(parser.commands["simulate-table"], ["null-ci", *argv], cfg)


def test_cli_precedence_flag_config_environment_default(tmp_path, monkeypatch):
    monkeypatch.delenv("MIXWASS_THREADS", raising=False)
    assert not hasattr(_table_settings([]), "workers")
    monkeypatch.setenv("MIXWASS_THREADS", "3")
    assert _table_settings([]).workers == 3
    cfg = _config(tmp_path, {"workers": 2, "M": None})
    assert _table_settings([], cfg).workers == 2
    assert not hasattr(_table_settings([], cfg), "M")
    assert _table_settings(["--workers", "1"], cfg).workers == 1
    monkeypatch.setenv("MIXWASS_THREADS", "")
    assert not hasattr(_table_settings([]), "workers")


def test_cli_config_file_gives_the_flags_fingerprint(tmp_path):
    keys = {"--K": "K", "--p": "p", "--N": "N", "--reps": "n_reps", "--outer": "n_outer", "--M": "M", "--B": "B", "--level": "level", "--seed": "seed"}
    pairs = dict(zip(_TABLE[::2], _TABLE[1::2]))
    cfg = tmp_path / "cfg.toml"
    cfg.write_text("".join(f"{keys[flag]} = {value}\n" for flag, value in pairs.items()) + 'delta = "none"\nmethods = ["plugin"]\n')
    assert main(["simulate-table", "null-ci", *_TABLE, "--delta", "none", "--out", str(tmp_path / "a.json")]) == 0
    assert main(["simulate-table", "null-ci", "--config", str(cfg), "--out", str(tmp_path / "b.json")]) == 0
    a, b = (json.loads((tmp_path / n).read_text()) for n in ("a.json", "b.json"))
    assert a["manifest"]["config_hash"] == b["manifest"]["config_hash"]
    assert a["report"]["fingerprint"] == b["report"]["fingerprint"]
    assert a["report"]["config"]["delta"] is None


_COMMAND_KEYS = {
    "estimate": ["counts", "topics", "seed", "out", "method"],
    "distance": ["counts", "topics", "seed", "out", "doc_i", "doc_j", "metric", "estimator"],
}
_JUNK_KEYS = ["config", "levle", "reps", "", "M", "quick"]
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(["mle", "wls", "l2", "0", "1.0", ",", "none"])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _valid_values(tmp: Path) -> dict:
    """Values that run, so that some drawn files exit 0."""
    counts, methods = str(tmp / "counts.csv"), st.sampled_from(["mle", "debias", "wls"])
    return {
        "counts": st.sampled_from([counts, [counts], f"{counts},"]),
        "topics": st.just(str(tmp / "topics.csv")),
        "seed": st.integers(0, 2**64),
        "method": methods,
        "estimator": methods,
        "doc_i": st.integers(0, 1),
        "doc_j": st.integers(0, 1),
        "metric": st.sampled_from(["tv", "l2"]),
    }


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_COMMAND_KEYS)), st.booleans(), st.data())
def test_cli_config_file_of_any_json_exits_0_2_or_3(files, command, with_flags, data):
    valid = _valid_values(files[0])
    keys = data.draw(st.lists(st.sampled_from(_COMMAND_KEYS[command]), unique=True), label="keys")
    # At most one key holds any JSON value, and at most one is junk.
    wild = data.draw(st.sampled_from([None, *keys]), label="wild")
    keys += data.draw(st.lists(st.sampled_from(_JUNK_KEYS), max_size=1), label="junk")
    table = {k: data.draw(valid[k] if k in valid and k != wild else _JSON, label=k) for k in keys}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(table))
        # The --out flag keeps a drawn "out" key from writing anywhere.
        argv = [command, "--config", str(cfg), "--out", f"{tmp}/r.json", *(files[1] if with_flags else [])]
        assert main(argv) in (0, 2, 3)


# --- ci: one fit for every method, and its certificate ---------------------------


def test_cli_ci_centres_every_method_on_its_own_fit(files, tmp_path):
    tmp, inputs = files
    A = load_topics(tmp / "topics.csv")
    doc_i, doc_j = load_counts(tmp / "counts.csv", p=A.p)
    cost = cost_matrix(A, "tv")
    points = []
    for method in ("plugin", "deriv-bs", "m-of-n"):
        assert main(["ci", *inputs, "--method", method, "--B", "400", "--seed", "2", "--out", str(tmp_path / "ci.json")]) == 0
        report = json.loads((tmp_path / "ci.json").read_text())["report"]
        points.append(report["point"])
        assert report["converged_i"] is True and report["converged_j"] is True
        assert 0.0 <= report["kkt_gap_i"] <= 1e-9 and 0.0 <= report["kkt_gap_j"] <= 1e-9
    assert points[0] == points[1] == points[2]
    assert derivative_bootstrap(doc_i, doc_j, A, cost, B=20).meta["W_tilde"] == points[0]
    assert m_out_of_n_bootstrap(doc_i, doc_j, A, cost, B=20).meta["W_tilde"] == points[0]


@pytest.mark.parametrize("estimator", ["mle", "debias", "wls"])
def test_cli_reports_carry_the_mle_certificate(files, tmp_path, estimator):
    _, inputs = files
    assert main(["distance", *inputs, "--estimator", estimator, "--out", str(tmp_path / "d.json")]) == 0
    assert main(["estimate", *inputs, "--method", estimator, "--out", str(tmp_path / "e.json")]) == 0
    dist = json.loads((tmp_path / "d.json").read_text())["report"]
    gaps = [e["kkt_gap"] for e in json.loads((tmp_path / "e.json").read_text())["report"]["estimates"]]
    if estimator == "wls":
        assert [dist[k] for k in ("converged_i", "converged_j", "kkt_gap_i", "kkt_gap_j")] == [None] * 4
        assert gaps == [None, None]
    else:
        assert dist["converged_i"] is True and dist["converged_j"] is True
        assert [dist["kkt_gap_i"], dist["kkt_gap_j"]] == gaps


# --- ci: the manifest, the level bound and the seed ------------------------------


def _ci_hash(inputs, tmp_path, *flags) -> str:
    assert main(["ci", *inputs, "--level", "0.4", "--seed", "2", *flags, "--out", str(tmp_path / "ci.json")]) == 0
    return json.loads((tmp_path / "ci.json").read_text())["manifest"]["config_hash"]


@pytest.mark.parametrize(
    "method,unread", [("plugin", ("--B", "50", "60")), ("m-of-n", ("--delta", "0", "0.1")), ("deriv-bs", ("--gamma", "0.3", "0.6"))]
)
def test_cli_ci_manifest_hashes_only_the_settings_its_method_reads(files, tmp_path, method, unread):
    flag, a, b = unread
    base = ["--method", method, "--M", "100", "--B", "100"]
    assert _ci_hash(files[1], tmp_path, *base, flag, a) == _ci_hash(files[1], tmp_path, *base, flag, b)
    assert _ci_hash(files[1], tmp_path, *base) != _ci_hash(files[1], tmp_path, *base, "--level", "0.3")


def _count_em_batch(monkeypatch) -> list[int]:
    sizes = []
    real = mixwass.estimators._em_batch

    def counted(X, *args, **kwargs):
        sizes.append(len(X))
        return real(X, *args, **kwargs)

    monkeypatch.setattr(mixwass.estimators, "_em_batch", counted)
    return sizes


@pytest.mark.parametrize("method", ["deriv-bs", "m-of-n"])
def test_cli_bootstrap_ci_fits_each_document_once(files, tmp_path, monkeypatch, method):
    # The observed pair is one batch of two; the B resampled pairs are 2B
    # rows, fitted in runs of 32.
    sizes = _count_em_batch(monkeypatch)
    assert main(["ci", *files[1], "--method", method, "--B", "60", "--level", "0.4", "--out", str(tmp_path / "ci.json")]) == 0
    assert sizes == [2, 32, 32, 32, 24]


@pytest.mark.parametrize("method,size", [("plugin", "M"), ("deriv-bs", "B"), ("m-of-n", "B")])
def test_cli_ci_size_too_small_for_the_level_exits_2_before_any_fit(files, capsys, monkeypatch, method, size):
    sizes = _count_em_batch(monkeypatch)
    code, _, err = _run(["ci", *files[1], "--method", method, f"--{size}", "399"], capsys)
    assert code == 2 and f"need {size} >= 400 samples for level 0.05" in err
    assert sizes == []


def test_cli_simulate_table_refuses_a_nan_topic_noise_by_name(capsys):
    code, out, err = _run(["simulate-table", "null-ci", "--a-noise", "nan", "--K", "3", "--p", "40"], capsys)
    assert code == 2 and "a_noise must be finite and >= 0" in err and out == ""


def test_cli_simulate_table_size_too_small_for_the_level_exits_2(capsys):
    table = ["--K", "3", "--p", "40", "--N", "120", "--reps", "8", "--outer", "2", "--M", "100", "--B", "50", "--level", "0.3"]
    code, out, err = _run(["simulate-table", "alt-ci", *table, "--seed", "5"], capsys)
    assert code == 2 and "need B >= 67 samples for level 0.3" in err and out == ""


@pytest.mark.parametrize("method", ["plugin", "deriv-bs", "m-of-n"])
def test_cli_ci_negative_seed_exits_2(files, capsys, method):
    code, _, err = _run(["ci", *files[1], "--method", method, "--B", "400", "--seed", "-1"], capsys)
    assert code == 2 and "seed" in err


def test_cli_simulate_table_negative_seed_exits_2(capsys):
    code, _, err = _run(["simulate-table", "null-ci", *_TABLE, "--seed", "-1"], capsys)
    assert code == 2 and "seed must be >= 0" in err


# --- golden reports: the batched fit path keeps every report's bytes -----------


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Topics (p=60, K=5) and 70 documents of 50 to 800 words, every other one sparse."""
    tmp = tmp_path_factory.mktemp("corpus")
    rng = np.random.default_rng(11)
    A = gen_topic_matrix(60, 5, 4)
    docs = []
    for d in range(70):
        alpha = rng.dirichlet(np.ones(5))
        if d % 2:
            alpha[rng.choice(5, size=2, replace=False)] = 0.0
        docs.append(CountVector(rng.multinomial(int(rng.integers(50, 800)), A.matrix @ (alpha / alpha.sum()))))
    save_topics(A, tmp / "topics.csv")
    save_counts(docs, tmp / "counts.csv")
    return tmp, ["--counts", str(tmp / "counts.csv"), "--topics", str(tmp / "topics.csv")]


_GOLDEN_ARGV = {
    **{f"estimate-{m}": ["estimate", "--method", m] for m in ("mle", "debias", "wls")},
    **{f"distance-{e}": ["distance", "--estimator", e, "--doc-i", "1", "--doc-j", "0"] for e in ("debias", "mle", "wls")},
    **{f"ci-{m}": ["ci", "--method", m, "--M", "400", "--B", "400", "--seed", "3"] for m in ("plugin", "deriv-bs", "m-of-n")},
}


def _report_digest(argv, out) -> str:
    """sha256 of a command's report object as sorted JSON, which keeps every float's repr."""
    assert main([*argv, "--out", str(out)]) == 0
    report = json.loads(Path(out).read_text())["report"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _golden_digests(data, tmp_path) -> dict:
    # Each input's files, and the pair that distance and ci take from it (estimate fits every document).
    inputs = {"files": (data["files"][1], []), "corpus": (data["corpus"][1], ["--doc-i", "5", "--doc-j", "40"])}
    return {
        f"{name}-{run}": _report_digest([*argv, *paths, *(pair if argv[0] != "estimate" else [])], tmp_path / "r.json")
        for name, (paths, pair) in inputs.items()
        for run, argv in _GOLDEN_ARGV.items()
    }


# The reports of the per-document fits before the batched fit path replaced
# them, re-pinned once when the MLE became Newton first: its fits moved
# within their KKT certificates, by at most 2.4e-9.  The two ci-plugin
# digests were re-pinned once more, with the plug-in driver fingerprints
# below, for two reasons of the limit draws alone: each law now draws its
# normals as (M, K) rows, and the root's rows are centred, so that every
# draw is orthogonal to 1.  No fit, distance or bootstrap moved.  Every
# MLE digest was re-pinned once more when the first Newton round started
# from the clipped WLS point instead of the uniform point: the fits moved
# within their KKT certificates, by at most 2.1e-9, the distances by at
# most 2.6e-11, and the WLS digests did not move.
_GOLDEN = {
    "files-estimate-mle": "29da727e20fb8f777d302afca6d6ad0e70aadf6c3c442049c5c8781e0dcb185a",
    "files-estimate-debias": "50db7cd23372e8519c992e94aaf123e3d374e1582c4e2b58630953a9d3592aa0",
    "files-estimate-wls": "71d6ad1aee0643c24445365fd47aa02f7d29f7f131bb2ec1c4685c50d6c24650",
    "files-distance-debias": "a70cd2918cfa9cbacc9607c602012db2c542c034fdeef52b1d315abd80ce801e",
    "files-distance-mle": "42ee0352bf08b139d0ea984d8e3397b5b3212c9a98c2e43b7f2307a03f764b35",
    "files-distance-wls": "506bd5df0856bffc693c3d06f44a82b307f77b50ff45f0a264624e48990d8c21",
    "files-ci-plugin": "38891b060bc233f47322d5036c6b4c94c9433d0f65c3870fc444f268f4a57727",
    "files-ci-deriv-bs": "7eb42035d2018f5e5a28f14e451f1ccaa244b4b74ad4293181e46d45f87a661d",
    "files-ci-m-of-n": "8dd84831cf9cec9ab355ee2f633ddeb15efa339657272a8a38eb05da637a26ab",
    "corpus-estimate-mle": "15de830320dc15bec0053be994e87a60b6afc90059aa5a30a5742e662327b95f",
    "corpus-estimate-debias": "423658e898759ee8fa95d91ba1fed2a4f25136929c2871e87101efbefe8abcef",
    "corpus-estimate-wls": "cabf9a0ae48353074b2815b3c77235871b50f7354f0bc63bd3dd8b9cb7a06b0e",
    "corpus-distance-debias": "2e51ee2a2ea6f80b54ac2b0f878780c74bb247dbd045e6f294e882480141aece",
    "corpus-distance-mle": "f534c9ea9a13cdc417a398b2aa7709f61a7e57dfb8c246c0eb23120316111a8a",
    "corpus-distance-wls": "5366737b489062ec44cec7b96e0199854188312edea5441edf3236c6d3d3dd8c",
    "corpus-ci-plugin": "8a58d960c5bddd8dc8eb89c8292c758b4c19bac667f69b4423801867be61e867",
    "corpus-ci-deriv-bs": "d90b62aafc99a9ae8bc526e6bad7d982b3564436e7063866622c9cdac479cae3",
    "corpus-ci-m-of-n": "451c9f0bc504b148d057574b9ade8418546e0300e74c3c06670ef5bd53986c70",
}


def test_cli_reports_match_the_per_document_fits_byte_for_byte(files, corpus, tmp_path):
    assert _golden_digests({"files": files, "corpus": corpus}, tmp_path) == _GOLDEN


# Each driver's fingerprint at the settings below (and --B 100 for alt-ci,
# whose B must be >= 67 at level 0.3), recorded before every bootstrap
# resample and the WLS driver's pairs went through one pair path, and
# re-pinned once when the MLE became Newton first.  Every driver but
# normality samples the plug-in law, and those four were re-pinned with the
# ci-plugin digests above: (M, K) draws from a row-centred root.  All five
# were re-pinned with the MLE digests above, for the WLS start alone; each
# driver's W_tilde moved by at most 9.7e-11.
_FINGERPRINTS = {
    "null-ci": "e8e36d69c1997ae9837024cdaf7126b66b73d9a89efeab15fdbe8973838d0b00",
    "mle-vs-wls": "d518e30581827ca97369e840d169396c266379ceb09553961c5c6442a5cb998b",
    "ks-convergence": "515bf90d7b51ce7b556ac8fe33fbeaf917912636d73c9a1f92124e3bca01f182",
    "normality": "1bb89657df681d69502dbc05afb2bdcca050584ad44c9661fad4b7613ec72288",
    "alt-ci": "99f311ad2d35841c4eb582ebe86bdd744bf2104a3f1222bfadeda530cca37f0d",
}


def test_cli_driver_fingerprints_do_not_move(capsys):
    table = ["--K", "3", "--p", "40", "--N", "120", "--reps", "8", "--outer", "2", "--M", "100", "--B", "50", "--level", "0.3", "--seed", "5"]
    got = {}
    for kind in _FINGERPRINTS:
        code, out, err = _run(["simulate-table", kind, *table, *(["--B", "100"] if kind == "alt-ci" else [])], capsys)
        assert code == 0, err
        got[kind] = json.loads(out)["report"]["fingerprint"]
    assert got == _FINGERPRINTS


@pytest.mark.parametrize("verdicts,code", [((True, True, True), 0), ((True, False, True), 3)])
def test_cli_selftest_reports_each_property_and_exits_by_the_verdict(monkeypatch, capsys, verdicts, code):
    calls = []

    def stub(quick):
        calls.append(quick)
        return [(f"prop-{k}", ok, f"detail {k}") for k, ok in enumerate(verdicts)]

    monkeypatch.setattr(mixwass.selfcheck, "run_selftest", stub)
    got, out, _ = _run(["selftest", "--quick"], capsys)
    assert got == code and calls == [True]
    lines = out.splitlines()
    assert lines[:3] == [f"{'PASS' if ok else 'FAIL'}  prop-{k}: detail {k}" for k, ok in enumerate(verdicts)]
    assert lines[3].startswith(f"{sum(verdicts)}/3 properties passed (")


def test_cli_fits_a_corpus_in_chunks_and_a_pair_as_one_batch(corpus, tmp_path, monkeypatch):
    sizes = _count_em_batch(monkeypatch)
    assert main(["estimate", *corpus[1], "--out", str(tmp_path / "e.json")]) == 0
    assert sizes == [32, 32, 6]
    sizes.clear()
    assert main(["distance", *corpus[1], "--doc-i", "5", "--doc-j", "40", "--out", str(tmp_path / "d.json")]) == 0
    assert sizes == [2]


@pytest.fixture(scope="module")
def infeasible(tmp_path_factory):
    """Topics (p=40, K=3) whose row 5 is zero, and 70 documents of which
    document 40 has 3 of its 403 words on word 5."""
    tmp = tmp_path_factory.mktemp("infeasible")
    rng = np.random.default_rng(6)
    M = gen_topic_matrix(40, 3, 7).matrix.copy()
    M[5] = 0.0
    A = M / M.sum(axis=0)
    docs = [rng.multinomial(400, A @ rng.dirichlet(np.ones(3))) for _ in range(70)]
    docs[40][5] = 3
    np.savetxt(tmp / "topics.csv", A, delimiter=",")
    save_counts([CountVector(d) for d in docs], tmp / "counts.csv")
    return tmp, ["--counts", str(tmp / "counts.csv"), "--topics", str(tmp / "topics.csv")]


_WORD_5 = "word 5 has positive count but zero probability under every topic"


@pytest.mark.parametrize("method", ["mle", "debias", "wls"])
def test_cli_infeasible_document_exits_2_for_every_method(infeasible, tmp_path, capsys, method):
    # WLS used to drop word 5 silently: alpha summed to 0.99256 and both commands exited 0.
    code, _, err = _run(["estimate", *infeasible[1], "--method", method, "--out", str(tmp_path / "e.json")], capsys)
    assert code == 2 and f"error: {_WORD_5}" in err
    pair = ["--doc-i", "40", "--doc-j", "3"]
    code, _, err = _run(["distance", *infeasible[1], *pair, "--estimator", method, "--out", str(tmp_path / "d.json")], capsys)
    assert code == 2 and f"error: {_WORD_5}" in err
    assert not (tmp_path / "e.json").exists() and not (tmp_path / "d.json").exists()
    # Its neighbours fit.
    assert main(["distance", *infeasible[1], "--doc-i", "39", "--doc-j", "41", "--estimator", method]) == 0


def test_wls_weights_refuses_a_word_no_topic_emits(infeasible):
    tmp = infeasible[0]
    A = load_topics(tmp / "topics.csv")
    doc = load_counts(tmp / "counts.csv", p=A.p)[40]
    with pytest.raises(InfeasibleRow, match=_WORD_5):
        wls_weights(doc.frequencies, A)
