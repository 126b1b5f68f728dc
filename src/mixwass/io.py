"""File formats, run manifests, and result persistence.

Counts are read from CSV in two shapes: long form with header
``doc_id,word_id,count`` or a dense matrix with one document per row.
Topics are a headerless CSV of p rows by K columns.  Reports are JSON with
the full config echo and seed; sample dumps are single-column CSV.  Every
table is parsed in one C pass; only a table that pass or a check refuses is
read again line by line, for the line of its :class:`ParseError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidSimplex, ParseError, check_count
from .estimators import CountVector
from .inference import LimitSampleSet
from .transport import TopicMatrix

LONG_HEADER = ("doc_id", "word_id", "count")


def _read_lines(path) -> list[str]:
    """The lines of a text file, split as ``str.splitlines`` splits them."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return text.splitlines()


def _floats(lines: list[str], width: int) -> np.ndarray | None:
    """The lines as a (len(lines), width) float table; None if a token is not a number."""
    try:
        return np.array(",".join(lines).split(",") if lines else [], dtype=float).reshape(len(lines), width)
    except ValueError:
        return None


def _one_pass(lines: list[str]) -> np.ndarray | None:
    """The non-empty lines as a float table parsed in one C pass, or None.

    None leaves the lines to ``_read_table``'s line-by-line reading: no
    non-empty line, a ragged line, a token numpy's parser refuses, a line
    of only white space, or a U+001F anywhere, which numpy's parser strips
    as white space and ``float`` does not.  What the pass accepts it reads
    as ``float`` reads each token.
    """
    if not any(lines) or "\x1f" in "".join(lines):
        return None
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None


def _read_table(lines: list[str], width: int, checks=(), start: int = 0) -> np.ndarray:
    """Comma-separated ``lines[start:]`` as a float table of ``width`` columns.

    Blank lines are skipped.  A line fails when it has another number of
    columns, when one of its tokens is not a number, or when one of
    ``checks`` flags it; a check is (reason, function from the table to a
    per-row failure mask).  The table is parsed in one pass
    (``_one_pass``); only when that pass or a check fails are the lines
    numbered and read one by one, to raise :class:`ParseError` at the first
    line that fails, with its first reason.
    """
    body = lines[start:]
    table = _one_pass(body)
    if table is not None and table.shape[1] == width and not any(check(table).any() for _, check in checks):
        return table
    numbered = [(i, ln) for i, ln in enumerate(body, start=start + 1) if ln.strip()]
    lines = [ln for _, ln in numbered]
    ragged = np.flatnonzero(np.array([ln.count(",") for ln in lines], dtype=int) != width - 1)
    end = int(ragged[0]) if ragged.size else len(lines)
    why = f"expected {width} columns"
    table = _floats(lines[:end], width)
    if table is None:
        end = next(i for i, ln in enumerate(lines) if _floats([ln], width) is None)
        why = "a token is not a number"
        table = _floats(lines[:end], width)
    for reason, check in checks:
        bad = np.flatnonzero(check(table))
        if bad.size and bad[0] < end:
            end, why = int(bad[0]), reason
    if end < len(lines):
        lineno, line = numbered[end]
        raise ParseError(f"{why}: {line.strip()!r}", lineno)
    return table


def _count_checks(long_form: bool, p: int) -> list:
    """Checks of a counts table: long form with word ids below ``p``, or dense.

    Counts are summed in int64, so a file's running total stays below 2**62.
    """
    counts = (lambda T: T[:, 2]) if long_form else (lambda T: T.sum(axis=1))
    checks = [
        (
            "an entry is not an int64 integer",
            lambda T: ~(np.isfinite(T) & (T == np.floor(T)) & (np.abs(T) < 2.0**63)).all(axis=1),
        ),
        ("an entry is negative", lambda T: (T < 0).any(axis=1)),
        ("the counts up to this line sum past 2**62", lambda T: np.cumsum(counts(T)) >= 2.0**62),
    ]
    if long_form:
        checks.append((f"word_id out of range [0, {p})", lambda T: T[:, 1] >= p))
    return checks


def load_counts(path, p: int) -> list[CountVector]:
    """Load per-document word counts over a vocabulary of ``p`` words from CSV.

    Long form (``doc_id,word_id,count`` header, or headerless three-column
    rows unless ``p`` is 3) sums the counts of each document over its rows,
    whose word ids lie in [0, p); dense form has one document per row with
    ``p`` columns.  Raises :class:`ParseError` with a line number on
    malformed input, and :class:`InvalidParam` unless ``p`` is an integer >= 1.
    """
    check_count(p, "p")
    lines = _read_lines(path)
    head = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if head is None:
        return []
    first = tuple(t.strip().lower() for t in lines[head].split(","))
    long_form = first == LONG_HEADER or (len(first) == 3 and p != 3)
    width = 3 if long_form else p
    start = head + 1 if first == LONG_HEADER else head
    table = _read_table(lines, width, _count_checks(long_form, p), start).astype(np.int64)
    if long_form and len(table):
        doc_ids, doc = np.unique(table[:, 0], return_inverse=True)
        counts = np.zeros((doc_ids.size, p), dtype=np.int64)
        np.add.at(counts, (doc, table[:, 1]), table[:, 2])
        table = counts
    return [CountVector(row) for row in table]


def save_counts(docs: list[CountVector], path) -> None:
    """Write documents in long form (header ``doc_id,word_id,count``)."""
    lines = [",".join(LONG_HEADER)]
    for d, doc in enumerate(docs):
        for w in np.flatnonzero(doc.counts):
            lines.append(f"{d},{int(w)},{int(doc.counts[w])}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_topics(path) -> TopicMatrix:
    """Load a p x K topic matrix from headerless CSV.

    Columns whose sums are within 1e-6 of one are renormalized; larger
    deviation raises :class:`InvalidSimplex`.
    """
    lines = _read_lines(path)
    head = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if head is None:
        raise ParseError("topics file is empty", None)
    M = _read_table(lines, lines[head].count(",") + 1, start=head)
    sums = M.sum(axis=0)
    off = np.abs(sums - 1.0)
    if off.max() > 1e-6:
        k = int(off.argmax())
        raise InvalidSimplex(f"topic column {k} sums to {sums[k]!r} (tolerance 1e-6)")
    if M.min() < 0:
        raise InvalidSimplex("topic matrix has negative entries")
    return TopicMatrix(M / sums)


def save_topics(A: TopicMatrix, path) -> None:
    lines = [",".join(repr(float(v)) for v in row) for row in A.matrix]
    Path(path).write_text("\n".join(lines) + "\n")


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one CLI run: enough to regenerate the report."""

    command: str
    config_hash: str
    seed: int
    version: str
    build_hash: str
    created_utc: str
    inputs: dict

    @staticmethod
    def create(command: str, config: dict, seed: int, input_paths: dict | None = None) -> "RunManifest":
        from . import __version__, build_hash

        blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
        return RunManifest(
            command=command,
            config_hash=hashlib.sha256(blob.encode()).hexdigest(),
            seed=int(seed),
            version=__version__,
            build_hash=build_hash(),
            created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            inputs={name: file_digest(p) for name, p in (input_paths or {}).items()},
        )


def report_json(report, manifest: RunManifest | None = None) -> str:
    """The JSON document of a report (dict or ExperimentReport) and its manifest."""
    body = report.to_dict() if hasattr(report, "to_dict") else report
    doc = {"manifest": dataclasses.asdict(manifest) if manifest else None, "report": body}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_report(report, path, manifest: RunManifest | None = None) -> None:
    """Write :func:`report_json` to ``path``."""
    Path(path).write_text(report_json(report, manifest))


def load_report(path) -> dict:
    return json.loads(Path(path).read_text())


def save_limit_samples(sample_set: LimitSampleSet, path) -> None:
    """Dump a sample set as single-column CSV with a ``sample`` header."""
    lines = ["sample"]
    lines.extend(repr(float(s)) for s in sample_set.samples)
    Path(path).write_text("\n".join(lines) + "\n")


def load_limit_samples(path) -> np.ndarray:
    lines = _read_lines(path)
    if not lines or lines[0].strip() != "sample":
        raise ParseError("expected 'sample' header", 1)
    return _read_table(lines, 1, start=1)[:, 0]
