import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mixwass
from mixwass import CountVector, gen_topic_matrix
from mixwass.cli import main
from mixwass.errors import InvalidParam, InvalidSimplex, MixwassError, ParseError
from mixwass.io import (
    RunManifest,
    load_counts,
    load_limit_samples,
    load_report,
    load_topics,
    save_counts,
    save_limit_samples,
    save_report,
    save_topics,
)
from mixwass.inference import LimitSampleSet


# --- counts ----------------------------------------------------------------


def test_load_counts_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert load_counts(path, p=3) == []


def test_load_counts_single_long_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("0,3,7\n")
    docs = load_counts(path, p=5)
    assert len(docs) == 1
    assert docs[0].N == 7
    assert docs[0].counts.tolist() == [0, 0, 0, 7, 0]


def test_load_counts_long_form_with_header(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("doc_id,word_id,count\n0,0,2\n0,1,3\n1,2,4\n")
    docs = load_counts(path, p=3)
    assert len(docs) == 2
    assert docs[0].counts.tolist() == [2, 3, 0]
    assert docs[1].counts.tolist() == [0, 0, 4]


def test_load_counts_dense_form(tmp_path):
    path = tmp_path / "dense.csv"
    path.write_text("1,2,3,4\n4,3,2,1\n")
    docs = load_counts(path, p=4)
    assert len(docs) == 2
    assert docs[0].N == 10


def test_load_counts_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("doc_id,word_id,count\n0,1,2\n0,2,-3\n")
    with pytest.raises(ParseError, match="line 3"):
        load_counts(path, p=3)
    path.write_text("doc_id,word_id,count\n0,1,2.5\n")
    with pytest.raises(ParseError, match="line 2"):
        load_counts(path, p=3)
    path.write_text("1,2\n1,2,3\n")
    with pytest.raises(ParseError):
        load_counts(path, p=4)
    for token in ("inf", "nan", "1e300", "9.3e18"):
        path.write_text(f"doc_id,word_id,count\n0,1,2\n\n0,2,{token}\n")
        with pytest.raises(ParseError, match="line 4"):
            load_counts(path, p=3)
    # Counts are summed in int64: a running total past 2**62 is refused.
    path.write_text("doc_id,word_id,count\n0,1,3000000000000000000\n0,1,3000000000000000000\n")
    with pytest.raises(ParseError, match="line 3"):
        load_counts(path, p=3)
    # A word id at or past p is refused at its line, however large.
    for word in (2**50, 2**61):
        path.write_text(f"doc_id,word_id,count\n0,1,2\n0,{word},1\n\n1,{word},1\n")
        with pytest.raises(ParseError, match=r"line 3: word_id out of range \[0, 3\)"):
            load_counts(path, p=3)


def test_load_counts_requires_an_integer_p(tmp_path):
    # Without p a long-form file would size each document by its largest word id.
    path = tmp_path / "long.csv"
    path.write_text("doc_id,word_id,count\n0,1,2\n")
    for p in (None, 0, True, 2.0, "3"):
        with pytest.raises(InvalidParam, match="^p must be"):
            load_counts(path, p=p)
    with pytest.raises(TypeError):
        load_counts(path)


@st.composite
def _count_matrix(draw):
    """Counts of 1-4 documents over 1-8 words; every document has a word."""
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    C = np.array(draw(st.lists(st.integers(0, 50), min_size=n * p, max_size=n * p)), dtype=np.int64).reshape(n, p)
    C[np.arange(n), np.arange(n) % p] += 1
    return C


@settings(max_examples=60, deadline=None)
@given(_count_matrix(), st.randoms(use_true_random=False))
def test_counts_roundtrip_long_and_dense(C, rnd):
    # Long form with arbitrary doc ids, shuffled rows, each count split over
    # duplicate (doc, word) rows, and blank lines.
    n, p = C.shape
    ids = sorted(rnd.sample(range(1000), n))
    rows = []
    for d, w in zip(*np.nonzero(C)):
        part = rnd.randint(0, int(C[d, w]))
        rows += [f"{ids[d]},{w},{part}", f"{ids[d]}, {w} ,{C[d, w] - part}"]
    rows += [""] * rnd.randint(0, 3)
    rnd.shuffle(rows)
    dense = [",".join(map(str, row)) for row in C]
    with tempfile.TemporaryDirectory() as tmp:
        long_path, dense_path = Path(tmp) / "long.csv", Path(tmp) / "dense.csv"
        long_path.write_text("\n".join(["doc_id,word_id,count", *rows]) + "\n")
        dense_path.write_text("\n\n".join(dense) + "\n")
        for docs in (load_counts(long_path, p=p), load_counts(dense_path, p=p)):
            assert len(docs) == n
            assert all(d.counts.dtype == np.int64 for d in docs)
            assert np.array_equal(np.array([d.counts for d in docs]), C)


def test_counts_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    docs = [CountVector(rng.multinomial(60, rng.dirichlet(np.ones(8)))) for _ in range(4)]
    path = tmp_path / "docs.csv"
    save_counts(docs, path)
    loaded = load_counts(path, p=8)
    assert len(loaded) == 4
    for a, b in zip(docs, loaded):
        assert np.array_equal(a.counts, b.counts)


# --- topics -----------------------------------------------------------------


def test_load_topics_identity(tmp_path):
    path = tmp_path / "I.csv"
    path.write_text("1,0,0\n0,1,0\n0,0,1\n")
    A = load_topics(path)
    assert np.array_equal(A.matrix, np.eye(3))


def test_load_topics_renormalizes_within_tolerance(tmp_path):
    path = tmp_path / "near.csv"
    col = np.array([0.5, 0.5 + 1e-7])
    path.write_text(f"{col[0]},{col[0]}\n{col[1]},{col[1]}\n")
    A = load_topics(path)
    assert np.abs(A.matrix.sum(axis=0) - 1.0).max() <= 1e-12


def test_load_topics_rejects_bad_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0.5\n0.4,0.5\n")
    with pytest.raises(InvalidSimplex):
        load_topics(path)


def test_topics_roundtrip(tmp_path):
    A = gen_topic_matrix(12, 3, 5)
    path = tmp_path / "A.csv"
    save_topics(A, path)
    B = load_topics(path)
    assert np.abs(A.matrix - B.matrix).max() <= 1e-15


# --- samples / report --------------------------------------------------------


def test_limit_samples_roundtrip(tmp_path):
    s = LimitSampleSet(np.array([0.5, 0.25, 1.5]), delta=None, seed=3, zero_feasible=True)
    path = tmp_path / "samples.csv"
    save_limit_samples(s, path)
    loaded = load_limit_samples(path)
    assert np.array_equal(loaded, s.samples)


def test_report_with_manifest_roundtrip(tmp_path):
    counts = tmp_path / "c.csv"
    counts.write_text("0,1,2\n")
    manifest = RunManifest.create("test", {"x": 1}, seed=9, input_paths={"counts": counts})
    save_report({"value": 1.5, "seed": 9}, tmp_path / "r.json", manifest)
    doc = load_report(tmp_path / "r.json")
    assert doc["report"]["value"] == 1.5
    assert doc["manifest"]["seed"] == 9
    assert doc["manifest"]["config_hash"]
    assert RunManifest(**doc["manifest"]) == manifest


# --- CLI ----------------------------------------------------------------------


@pytest.fixture
def data(tmp_path):
    rng = np.random.default_rng(1)
    A = gen_topic_matrix(40, 3, 2)
    alpha = rng.dirichlet(np.ones(3))
    r = A.matrix @ alpha
    docs = [CountVector(rng.multinomial(400, r)) for _ in range(2)]
    topics = tmp_path / "topics.csv"
    counts = tmp_path / "counts.csv"
    save_topics(A, topics)
    save_counts(docs, counts)
    return tmp_path, topics, counts


def test_cli_version(capsys):
    code = main(["--version"])
    assert code == 0
    assert "mixwass 0.1.0" in capsys.readouterr().out


def test_cli_unknown_flag_exits_1(capsys):
    assert main(["distance", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_cli_estimate(data, capsys):
    tmp, topics, counts = data
    out = tmp / "est.json"
    code = main(["estimate", "--counts", str(counts), "--topics", str(topics), "--method", "debias", "--out", str(out)])
    assert code == 0
    doc = load_report(out)
    assert len(doc["report"]["estimates"]) == 2
    alpha = doc["report"]["estimates"][0]["alpha"]
    assert abs(sum(alpha) - 1.0) <= 1e-6


def test_cli_distance(data):
    tmp, topics, counts = data
    out = tmp / "dist.json"
    code = main(["distance", "--counts", str(counts), "--topics", str(topics), "--out", str(out)])
    assert code == 0
    doc = load_report(out)
    assert doc["report"]["W_tilde"] >= 0.0


def test_cli_ci_writes_report_and_samples(data):
    tmp, topics, counts = data
    out = tmp / "ci.json"
    samples = tmp / "samples.csv"
    code = main(
        [
            "ci",
            "--counts",
            str(counts),
            "--topics",
            str(topics),
            "--level",
            "0.05",
            "--method",
            "plugin",
            "--M",
            "500",
            "--seed",
            "7",
            "--out",
            str(out),
            "--samples-out",
            str(samples),
        ]
    )
    assert code == 0
    doc = load_report(out)
    rep = doc["report"]
    assert rep["lower"] <= rep["upper"]
    assert rep["seed"] == 7
    assert rep["M"] == 500
    loaded = load_limit_samples(samples)
    assert loaded.size == 500


@pytest.mark.parametrize("method", ["deriv-bs", "m-of-n"])
def test_cli_bootstrap_ci_point_is_debiased_distance(data, method):
    tmp, topics, counts = data
    inputs = ["--counts", str(counts), "--topics", str(topics)]
    assert main(["distance", *inputs, "--estimator", "debias", "--out", str(tmp / "d.json")]) == 0
    ci_args = ["ci", *inputs, "--method", method, "--B", "400", "--seed", "3", "--out", str(tmp / "ci.json")]
    assert main(ci_args) == 0
    assert load_report(tmp / "ci.json")["report"]["point"] == load_report(tmp / "d.json")["report"]["W_tilde"]


def test_cli_ci_missing_file_exits_2(tmp_path):
    code = main(["ci", "--counts", str(tmp_path / "nope.csv"), "--topics", str(tmp_path / "nope2.csv")])
    assert code == 2


def test_cli_validation_error_exits_2(data):
    tmp, topics, counts = data
    code = main(["ci", "--counts", str(counts), "--topics", str(topics), "--level", "2.0"])
    assert code == 2


def test_cli_numerical_failure_exits_3(tmp_path, capsys):
    # Duplicate topics make the plug-in information matrix singular.
    topics = tmp_path / "dup.csv"
    col = np.full(6, 1.0 / 6)
    rows = "\n".join(f"{v},{v}" for v in col)
    topics.write_text(rows + "\n")
    counts = tmp_path / "c.csv"
    counts.write_text("1,2,0,1,3,1\n")
    code = main(["estimate", "--counts", str(counts), "--topics", str(topics), "--method", "debias"])
    assert code == 3
    assert "singular" in capsys.readouterr().err.lower()


def test_cli_config_file_with_flag_override(data):
    tmp, topics, counts = data
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"counts": str(counts), "topics": str(topics), "M": 400, "seed": 3}))
    out = tmp / "ci2.json"
    code = main(["ci", "--config", str(cfg), "--level", "0.1", "--out", str(out)])
    assert code == 0
    rep = load_report(out)["report"]
    assert rep["M"] == 400 and rep["seed"] == 3 and rep["level"] == 0.1


@pytest.mark.parametrize("name,text", [("bad.json", '{"counts": 1,'), ("bad.toml", 'counts = "a\nM = ')])
def test_cli_malformed_config_file_exits_2(data, capsys, name, text):
    tmp, _, _ = data
    cfg = tmp / name
    cfg.write_text(text)
    assert main(["ci", "--config", str(cfg)]) == 2
    assert f"config file {cfg}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--doc-i", "-1"], ["--doc-j", "-2"], ["--doc-i", "2"]])
def test_cli_document_index_out_of_range_exits_2(data, capsys, flags):
    tmp, topics, counts = data
    assert main(["distance", "--counts", str(counts), "--topics", str(topics), *flags]) == 2
    assert "out of range" in capsys.readouterr().err


def test_cli_simulate_table_quick(tmp_path):
    out = tmp_path / "table.json"
    code = main(
        [
            "simulate-table",
            "null-ci",
            "--K",
            "3",
            "--p",
            "40",
            "--N",
            "150",
            "--reps",
            "6",
            "--M",
            "80",
            "--level",
            "0.3",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rep = load_report(out)["report"]
    assert rep["summary"]["plugin"]["n"] == 6
    assert rep["config"]["seed"] == 5
    assert rep["fingerprint"]


@pytest.mark.parametrize("flags", [["--workers", "-3"], ["--M", "0"], ["--B", "0"]])
def test_cli_simulate_table_bad_sizes_exit_2(tmp_path, capsys, flags):
    args = ["simulate-table", "null-ci", "--K", "3", "--p", "40", "--reps", "2", "--seed", "1", *flags]
    assert main([*args, "--out", str(tmp_path / "t.json")]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_cli_report_regenerates_bit_identically(tmp_path):
    args = [
        "simulate-table",
        "null-ci",
        "--K",
        "3",
        "--p",
        "40",
        "--N",
        "120",
        "--reps",
        "4",
        "--M",
        "80",
        "--level",
        "0.3",
        "--seed",
        "11",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    r1 = load_report(out1)["report"]
    r2 = load_report(out2)["report"]
    assert r1["failures"] == 0
    assert r1["fingerprint"] == r2["fingerprint"]
    r1.pop("wall_clock_s"), r2.pop("wall_clock_s")
    r1.pop("created_utc"), r2.pop("created_utc")
    assert r1 == r2


_BAD_TOKENS = ["inf", "nan", "1e300", "-1", "2.5", "x", ""]


def _fuzz_inputs():
    """Valid long-form counts and topics files (p=12, K=3), as lists of lines."""
    rng = np.random.default_rng(4)
    A = gen_topic_matrix(12, 3, 4)
    X = rng.multinomial(200, A.matrix @ np.full(3, 1 / 3), size=2)
    counts = ["doc_id,word_id,count"] + [f"{d},{w},{X[d, w]}" for d, w in zip(*np.nonzero(X))]
    topics = [",".join(repr(float(v)) for v in row) for row in A.matrix]
    return counts, topics


@st.composite
def _malformed(draw, lines):
    """``lines`` broken by one edit, plus blank lines that break nothing."""
    lines = list(lines)
    edit = draw(st.sampled_from(["substitute", "drop", "add", "header"]))
    if edit == "header":
        # A misspelt counts header, or a header on the headerless topics.
        if lines[0].startswith("doc_id"):
            lines[0] = "doc,word,count"
        else:
            lines.insert(0, "a,b,c")
    else:
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(",")
        if edit == "substitute":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
        elif edit == "drop":
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        else:
            tokens.append(draw(st.sampled_from(["0", *_BAD_TOKENS])))
        lines[i] = ",".join(tokens)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    return lines


_COUNTS, _TOPICS = _fuzz_inputs()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["counts", "topics"]), st.sampled_from(["estimate", "distance", "ci"]), st.data())
def test_cli_malformed_inputs_exit_2_or_3(which, command, data):
    files = {"counts": _COUNTS, "topics": _TOPICS}
    files[which] = data.draw(_malformed(files[which]))
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in files.items():
            (Path(tmp) / f"{name}.csv").write_text("\n".join(body) + "\n")
        argv = [command, "--counts", f"{tmp}/counts.csv", "--topics", f"{tmp}/topics.csv"]
        assert main(argv) in (2, 3)


_DENSE = [",".join(map(str, row)) for row in np.random.default_rng(5).integers(0, 20, size=(3, 12))]
# Tokens on which numpy's one-pass parsers, integer or float, and ``float`` could part ways.
_READER_TOKENS = [
    *("3.0", "1e3", "1_000", "#", "#3", '"3"', "'3'", " 7 ", "", "3\x1f", str(2**61), str(2**62 - 1), str(2**62), "4.611686018427388e18"),
    *(str(2**53 + 1), str(2**63 - 1), str(2**63), "+3", "-0", "007", "\uff13", "1.", ".5", "inf", "nan", "3\t"),
]


@st.composite
def _counts_text(draw):
    """A long-form or dense counts file as text, with up to three edits."""
    lines = list(draw(st.sampled_from([_COUNTS, _DENSE])))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["token", "ragged", "blank"]))
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t  "])))
            continue
        tokens = lines[i].split(",")
        if edit == "token":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_READER_TOKENS))
        else:
            tokens = tokens[:-1] if draw(st.booleans()) else [*tokens, "1"]
        lines[i] = ",".join(tokens)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol


def _read_counts(path, p, one_pass: bool):
    """load_counts' documents or error text, with or without the one-pass parse."""
    with pytest.MonkeyPatch.context() as mp:
        if not one_pass:
            mp.setattr(mixwass.io, "_one_pass", lambda lines, dtype=float: None)
        try:
            return [d.counts.tolist() for d in load_counts(path, p=p)]
        except MixwassError as exc:
            return f"{type(exc).__name__}: {exc}"


@settings(max_examples=200, deadline=None)
@given(_counts_text(), st.sampled_from([3, 12]))
@example("doc_id,word_id,count\r\n0,1,3\x1f\r\n0,2,1_000\r\n", 12)
@example("\n".join(_DENSE[:1] + ["  "] + _DENSE[1:]) + "\n", 12)
def test_one_pass_and_line_by_line_reading_agree(text, p):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        path.write_bytes(text.encode())
        assert _read_counts(path, p, True) == _read_counts(path, p, False)


def test_a_clean_counts_file_is_read_without_the_line_by_line_pass(tmp_path, monkeypatch):
    path = tmp_path / "counts.csv"
    path.write_text("\r\n".join(_COUNTS) + "\r\n\r\n")
    expected = _read_counts(path, 12, False)

    def line_by_line(*args):
        raise AssertionError("line-by-line reading of a clean file")

    monkeypatch.setattr(mixwass.io, "_floats", line_by_line)
    assert _read_counts(path, 12, True) == expected
    path.write_text("\n".join(_COUNTS[:2] + ["0,1,1_000"] + _COUNTS[2:]) + "\n")
    with pytest.raises(AssertionError, match="line-by-line"):
        load_counts(path, p=12)


def test_cli_subprocess_non_finite_count_is_a_clean_error(tmp_path):
    (tmp_path / "topics.csv").write_text("\n".join(_TOPICS) + "\n")
    (tmp_path / "bad.csv").write_text("doc_id,word_id,count\n0,1,5\n0,2,inf\n")
    src = str(Path(mixwass.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "mixwass.cli", "estimate", "--counts", str(tmp_path / "bad.csv"), "--topics", str(tmp_path / "topics.csv")]
    res = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert [ln for ln in res.stderr.splitlines() if ln.startswith("error:")] == ["error: line 3: an entry is not an int64 integer: '0,2,inf'"]


def test_cli_subprocess_estimate_loads_no_scipy_module(tmp_path):
    (tmp_path / "topics.csv").write_text("\n".join(_TOPICS) + "\n")
    (tmp_path / "counts.csv").write_text("\n".join(_COUNTS) + "\n")
    src = str(Path(mixwass.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["estimate", "--counts", str(tmp_path / "counts.csv"), "--topics", str(tmp_path / "topics.csv"), "--out", str(tmp_path / "e.json")]
    code = f"import sys; from mixwass.cli import main; rc = main({argv!r}); print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert res.stdout.splitlines()[-1] == "0 []"


def test_cli_counts_read_against_topics_p(tmp_path):
    # save_counts writes no rows for unused words, so these documents' long
    # form ends at word 44 while the topics have p=50 rows.
    rng = np.random.default_rng(2)
    A = gen_topic_matrix(50, 3, 6)
    r = (A.matrix @ np.array([0.5, 0.3, 0.2]))[:45]
    docs = [CountVector(np.concatenate([rng.multinomial(300, r / r.sum()), np.zeros(5, dtype=np.int64)])) for _ in range(2)]
    topics, counts = tmp_path / "A.csv", tmp_path / "c.csv"
    save_topics(A, topics)
    save_counts(docs, counts)
    inputs = ["--counts", str(counts), "--topics", str(topics)]
    assert main(["distance", *inputs, "--estimator", "mle", "--out", str(tmp_path / "d.json")]) == 0
    assert main(["estimate", *inputs, "--method", "mle", "--out", str(tmp_path / "e.json")]) == 0
    assert main(["ci", *inputs, "--M", "400", "--seed", "1", "--out", str(tmp_path / "ci.json")]) == 0
    dist = load_report(tmp_path / "d.json")["report"]
    est = load_report(tmp_path / "e.json")["report"]["estimates"]
    assert [dist["alpha_i"], dist["alpha_j"]] == [e["alpha"] for e in est]
    assert set(load_report(tmp_path / "e.json")["manifest"]["inputs"]) == {"topics", "counts"}
    for name in ("d.json", "ci.json"):
        assert set(load_report(tmp_path / name)["manifest"]["inputs"]) == {"topics", str(counts)}
