"""Lexical retrieval: Okapi BM25 over token documents, tf-idf vectors over
local structures, and a seeded random scorer.

The idf used throughout is the positive Lucene-style variant
``ln((N - n + 0.5) / (n + 0.5) + 1)``.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from typing import Iterable, Mapping

RETRIEVER_VARIANTS = (
    "bm25-utterance",
    "bm25-symbols",
    "random",
    "oracle-bm25-gold-symbols",
)

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def tokenize_utterance(text: str) -> list[str]:
    """Lower-cased tokens split on any non-alphanumeric character."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def lucene_idf(n_docs: int, doc_freq: int) -> float:
    return math.log((n_docs - doc_freq + 0.5) / (doc_freq + 0.5) + 1.0)


class Bm25Index:
    """Okapi BM25 over pre-tokenized documents keyed by id."""

    def __init__(self, docs: Mapping[str, list[str]], k1: float = 1.2, b: float = 0.75):
        self.k1 = k1
        self.b = b
        self.doc_ids = sorted(docs)
        self.doc_tokens = {i: list(docs[i]) for i in self.doc_ids}
        self.doc_len = {i: len(self.doc_tokens[i]) for i in self.doc_ids}
        self.n_docs = len(self.doc_ids)
        total = sum(self.doc_len.values())
        self.avgdl = total / self.n_docs if total else 1.0
        self.term_freqs = {i: Counter(self.doc_tokens[i]) for i in self.doc_ids}
        df: Counter = Counter()
        for tf in self.term_freqs.values():
            for term in tf:
                df[term] += 1
        self.df = dict(df)

    def idf(self, term: str) -> float:
        return lucene_idf(self.n_docs, self.df.get(term, 0))

    def scores(self, query: Iterable[str]) -> dict[str, float]:
        """BM25 score of every document for the query (empty query scores 0)."""
        query = list(query)
        out: dict[str, float] = {}
        for doc_id in self.doc_ids:
            tf = self.term_freqs[doc_id]
            norm = self.k1 * (
                1 - self.b + self.b * self.doc_len[doc_id] / self.avgdl
            )
            score = 0.0
            for term in query:
                freq = tf.get(term, 0)
                if not freq:
                    continue
                score += self.idf(term) * freq * (self.k1 + 1) / (freq + norm)
            out[doc_id] = score
        return out

    def rank(self, query: Iterable[str]) -> list[tuple[str, float]]:
        """(id, score) pairs in descending score order; ties broken by id."""
        scores = self.scores(query)
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


class LsTfidfVector:
    """Sparse, L2-normalized tf-idf vector over local-structure canonicals."""

    __slots__ = ("weights",)

    def __init__(self, weights: dict[str, float], normalize: bool = True):
        if normalize:
            norm = math.sqrt(sum(w * w for w in weights.values()))
            weights = {k: w / norm for k, w in weights.items()} if norm else {}
        self.weights = weights

    def is_zero(self) -> bool:
        return not self.weights

    def dot(self, other: "LsTfidfVector") -> float:
        a, b = self.weights, other.weights
        if len(b) < len(a):
            a, b = b, a
        return sum(w * b[k] for k, w in a.items() if k in b)


def ls_tfidf_vectors(
    ls_counts_by_id: Mapping[str, Mapping[str, int]]
) -> dict[str, LsTfidfVector]:
    """Normalized tf-idf vectors; an example with no structures gets a zero vector."""
    n_docs = len(ls_counts_by_id)
    df: Counter = Counter()
    for counts in ls_counts_by_id.values():
        for canonical in counts:
            df[canonical] += 1
    vectors = {}
    for doc_id, counts in ls_counts_by_id.items():
        weights = {
            canonical: tf * lucene_idf(n_docs, df[canonical])
            for canonical, tf in counts.items()
        }
        vectors[doc_id] = LsTfidfVector(weights)
    return vectors


def cosine(u: LsTfidfVector, v: LsTfidfVector) -> float:
    """Dot product of normalized vectors; zero vectors yield 0."""
    return u.dot(v)


def random_scores(ids: Iterable[str], seed: int) -> dict[str, float]:
    """Seed-deterministic pseudo-random score per id."""
    rng = random.Random(seed)
    return {i: rng.random() for i in sorted(ids)}
