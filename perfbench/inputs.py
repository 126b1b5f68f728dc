"""Seeded benchmark inputs, drawn with the benchmark's own numpy generator.

Every input is a function of (workload seed, stream, index) only.  Nothing
here calls ``mixwass.simulate``, so a refactor of the program's own
generators cannot change what the benchmark feeds it.  The recipe matches
the paper's simulation protocol: topics with i.i.d. Unif(0,1) entries
normalized per column, dense weights Dirichlet(1,...,1), sparse weights
with a uniform support of size tau, multinomial documents.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

P = 500  # vocabulary size
N = 1000  # words per document

_TOPICS, _PAIR, _MC, _SIM = range(4)


def _rng(seed: int, *parts: int) -> np.random.Generator:
    return np.random.default_rng([seed, *parts])


def derived_seed(seed: int, stream: int, index: int) -> int:
    """A 32-bit seed for the program, addressed by (seed, stream, index)."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def mc_seed(seed: int, index: int) -> int:
    return derived_seed(seed, _MC, index)


def sim_seed(seed: int, index: int) -> int:
    return derived_seed(seed, _SIM, index)


def topics(seed: int, K: int) -> np.ndarray:
    M = _rng(seed, _TOPICS, K).uniform(size=(P, K))
    return M / M.sum(axis=0, keepdims=True)


def _weights(g: np.random.Generator, K: int, tau: int) -> np.ndarray:
    if tau == 0:
        return g.dirichlet(np.ones(K))
    alpha = np.zeros(K)
    support = g.choice(K, size=tau, replace=False)
    entries = g.uniform(size=tau)
    alpha[support] = entries / entries.sum()
    return alpha


def pair_counts(seed: int, index: int, A: np.ndarray, distinct: bool, tau: int) -> tuple[np.ndarray, np.ndarray]:
    """Word counts of two documents; equal weights unless ``distinct``."""
    g = _rng(seed, _PAIR, index)
    K = A.shape[1]
    a_i = _weights(g, K, tau)
    a_j = _weights(g, K, tau) if distinct else a_i
    return g.multinomial(N, A @ a_i), g.multinomial(N, A @ a_j)


def write_topics(path: Path, A: np.ndarray) -> None:
    """Headerless p x K CSV, the format ``mixwass.io.load_topics`` reads."""
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in A) + "\n")


def write_pair(path: Path, x_i: np.ndarray, x_j: np.ndarray) -> None:
    """Long-form counts CSV (``doc_id,word_id,count``) holding two documents."""
    lines = ["doc_id,word_id,count"]
    for d, x in enumerate((x_i, x_j)):
        lines.extend(f"{d},{int(w)},{int(x[w])}" for w in np.flatnonzero(x))
    path.write_text("\n".join(lines) + "\n")
