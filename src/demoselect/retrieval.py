"""Lexical retrieval: posting lists, Okapi BM25 over token documents, tf-idf
vectors over local structures, and a seeded random scorer.

BM25 scores a query term at a time, walking only its terms' postings. The
idf used throughout is the positive Lucene-style variant
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


def term_postings(docs: Mapping[str, Iterable[str]]) -> dict[str, list[str]]:
    """The ids of the documents holding each term, in id order."""
    postings: dict[str, list[str]] = {}
    for doc_id in sorted(docs):
        for term in dict.fromkeys(docs[doc_id]):
            postings.setdefault(term, []).append(doc_id)
    return postings


class Bm25Index:
    """Okapi BM25 over pre-tokenized documents keyed by id; ``postings`` maps a
    term to its ``(doc_id, tf)`` pairs in id order."""

    def __init__(self, docs: Mapping[str, list[str]], k1: float = 1.2, b: float = 0.75):
        self.k1 = k1
        self.b = b
        self.doc_ids = sorted(docs)
        self.n_docs = len(self.doc_ids)
        total = sum(len(docs[i]) for i in self.doc_ids)
        self.avgdl = total / self.n_docs if total else 1.0
        self.norm = {
            i: k1 * (1 - b + b * len(docs[i]) / self.avgdl) for i in self.doc_ids
        }
        self.postings: dict[str, list[tuple[str, int]]] = {}
        for doc_id in self.doc_ids:
            for term, freq in Counter(docs[doc_id]).items():
                self.postings.setdefault(term, []).append((doc_id, freq))

    def idf(self, term: str) -> float:
        return lucene_idf(self.n_docs, len(self.postings.get(term, ())))

    def scores(self, query: Iterable[str]) -> dict[str, float]:
        """BM25 score of every document for the query (empty query scores 0);
        a repeated query term counts once per occurrence."""
        out = dict.fromkeys(self.doc_ids, 0.0)
        for term in query:
            postings = self.postings.get(term, ())
            idf = lucene_idf(self.n_docs, len(postings))
            for doc_id, freq in postings:
                out[doc_id] += idf * freq * (self.k1 + 1) / (freq + self.norm[doc_id])
        return out

    def rank(self, query: Iterable[str]) -> list[tuple[str, float]]:
        """(id, score) pairs in descending score order; ties broken by id."""
        scores = self.scores(query)
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


class LsTfidfVector:
    """Sparse, L2-normalized tf-idf vector over local-structure canonicals."""

    __slots__ = ("weights",)

    def __init__(self, weights: dict[str, float]):
        norm = math.sqrt(sum(w * w for w in weights.values()))
        self.weights = {k: w / norm for k, w in weights.items()} if norm else {}

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
    df = Counter(c for counts in ls_counts_by_id.values() for c in counts)
    idf = {canonical: lucene_idf(n_docs, n) for canonical, n in df.items()}
    return {
        doc_id: LsTfidfVector({c: tf * idf[c] for c, tf in counts.items()})
        for doc_id, counts in ls_counts_by_id.items()
    }


def cosine(u: LsTfidfVector, v: LsTfidfVector) -> float:
    """Dot product of normalized vectors; zero vectors yield 0."""
    return u.dot(v)


def random_scores(ids: Iterable[str], seed: int) -> dict[str, float]:
    """Seed-deterministic pseudo-random score per id."""
    rng = random.Random(seed)
    return {i: rng.random() for i in sorted(ids)}
