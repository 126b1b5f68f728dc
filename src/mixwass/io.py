"""File formats, run manifests, and result persistence.

Counts are read from CSV in two shapes: long form with header
``doc_id,word_id,count`` or a dense matrix with one document per row.
Topics are a headerless CSV of p rows by K columns.  Reports are JSON with
the full config echo and seed; sample dumps are single-column CSV.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidSimplex, ParseError
from .estimators import CountVector
from .inference import LimitSampleSet
from .transport import TopicMatrix

LONG_HEADER = ("doc_id", "word_id", "count")


def _split_csv_line(line: str) -> list[str]:
    return [tok.strip() for tok in line.split(",")]


def _read_text(path) -> str:
    p = Path(path)
    if not p.exists():
        raise ParseError(f"cannot read {p}: no such file")
    return p.read_text()


def load_counts(path, p: int | None = None) -> list[CountVector]:
    """Load per-document word counts from CSV.

    Long form (``doc_id,word_id,count`` header, or headerless three-column
    rows when ``p`` is given and differs from 3) accumulates counts per
    document; dense form has one document per row with ``p`` columns.
    Raises :class:`ParseError` with a line number on malformed input.
    """
    text = _read_text(path)
    lines = [(i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not lines:
        return []
    first_no, first = lines[0]
    tokens = _split_csv_line(first)
    long_form = tuple(t.lower() for t in tokens) == LONG_HEADER
    if long_form:
        lines = lines[1:]
    elif len(tokens) == 3 and (p is None or p != 3):
        long_form = True

    def parse_int(tok: str, lineno: int, what: str) -> int:
        try:
            val = float(tok)
        except ValueError:
            raise ParseError(f"{what} {tok!r} is not a number", lineno) from None
        if val != int(val):
            raise ParseError(f"{what} {tok!r} is not an integer", lineno)
        return int(val)

    if long_form:
        docs: dict[int, dict[int, int]] = {}
        max_word = -1
        for lineno, line in lines:
            toks = _split_csv_line(line)
            if len(toks) != 3:
                raise ParseError(f"expected 3 columns, got {len(toks)}", lineno)
            doc = parse_int(toks[0], lineno, "doc_id")
            word = parse_int(toks[1], lineno, "word_id")
            cnt = parse_int(toks[2], lineno, "count")
            if doc < 0 or word < 0:
                raise ParseError("doc_id and word_id must be non-negative", lineno)
            if cnt < 0:
                raise ParseError(f"negative count {cnt}", lineno)
            if p is not None and word >= p:
                raise ParseError(f"word_id {word} out of range [0, {p})", lineno)
            docs.setdefault(doc, {})
            docs[doc][word] = docs[doc].get(word, 0) + cnt
            max_word = max(max_word, word)
        dim = p if p is not None else max_word + 1
        out = []
        for doc_id in sorted(docs):
            counts = np.zeros(dim, dtype=np.int64)
            for w, c in docs[doc_id].items():
                counts[w] = c
            out.append(CountVector(counts))
        return out

    width = len(tokens) if p is None else p
    rows = []
    for lineno, line in lines:
        toks = _split_csv_line(line)
        if len(toks) != width:
            raise ParseError(f"expected {width} columns, got {len(toks)}", lineno)
        rows.append([parse_int(t, lineno, "count") for t in toks])
        if min(rows[-1]) < 0:
            raise ParseError("negative count", lineno)
    return [CountVector(np.asarray(row, dtype=np.int64)) for row in rows]


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
    text = _read_text(path)
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        toks = _split_csv_line(line)
        try:
            rows.append([float(t) for t in toks])
        except ValueError:
            raise ParseError(f"non-numeric entry in {toks!r}", lineno) from None
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise ParseError(f"ragged row: expected {len(rows[0])} columns", lineno)
    if not rows:
        raise ParseError("topics file is empty", None)
    M = np.asarray(rows, dtype=float)
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


def save_report(report, path, manifest: RunManifest | None = None) -> None:
    """Serialize a report (dict or ExperimentReport) plus manifest to JSON."""
    body = report.to_dict() if hasattr(report, "to_dict") else report
    doc = {"manifest": dataclasses.asdict(manifest) if manifest else None, "report": body}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_report(path) -> dict:
    return json.loads(Path(path).read_text())


def save_limit_samples(sample_set: LimitSampleSet, path) -> None:
    """Dump a sample set as single-column CSV with a ``sample`` header."""
    lines = ["sample"]
    lines.extend(repr(float(s)) for s in sample_set.samples)
    Path(path).write_text("\n".join(lines) + "\n")


def load_limit_samples(path) -> np.ndarray:
    text = _read_text(path).splitlines()
    if not text or text[0].strip() != "sample":
        raise ParseError("expected 'sample' header", 1)
    try:
        return np.asarray([float(t) for t in text[1:] if t.strip()], dtype=float)
    except ValueError:
        raise ParseError("non-numeric sample value", None) from None
