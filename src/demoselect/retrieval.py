"""Lexical retrieval: posting lists, Okapi BM25 over token documents, tf-idf
rows over local structures, and a seeded random scorer.

A BM25 posting's whole contribution, ``idf * tf * (K1 + 1) / (tf + norm)``,
depends only on the indexed documents, so the index computes it once per
posting when it is built. A query then adds its terms' impact arrays into a
dense score vector, in query order. The idf used throughout is the
positive Lucene-style variant ``ln((N - n + 0.5) / (n + 0.5) + 1)``.

Documents are rows: row ``r`` is the ``r``-th of the sorted document ids.
Scores (:class:`Scores`), posting lists (:class:`RowPostings`, or
:class:`ColumnPostings` as an index stores them) and sparse rows
(:class:`SparseRows`) are arrays aligned with those rows, each served as a
read-only mapping that builds no per-document dict. Sparse rows,
like every group of rows in an index file, are stored back to back with
their offsets (see :func:`row_slices`). These are the only form the
selectors of :mod:`demoselect.selection` take: their ``ids`` must be the
selection pool's ids, or the selector raises ``ValueError``.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Mapping
from functools import reduce
from itertools import chain, compress
from operator import add

import numpy as np

RETRIEVER_VARIANTS = (
    "bm25-utterance",
    "bm25-symbols",
    "random",
    "oracle-bm25-gold-symbols",
)

# Okapi BM25's textbook parameters (Robertson & Zaragoza 2009). An index file
# stores impacts computed with them, so changing either needs a new
# corpus.INDEX_VERSION.
K1 = 1.2
B = 0.75

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


def row_of(ids: list[str], key: object) -> int:
    """The row of ``key`` in the sorted ``ids``; a KeyError if it is absent."""
    try:
        row = bisect_left(ids, key)
    except TypeError:
        raise KeyError(key) from None
    if row == len(ids) or ids[row] != key:
        raise KeyError(key)
    return row


class Scores(Mapping):
    """Scores of sorted ids: ``array[r]`` is the score of ``ids[r]``. A
    read-only mapping from id to float over the two; looking an id up
    bisects ``ids``."""

    def __init__(self, ids: list[str], array: np.ndarray):
        array.flags.writeable = False
        self.ids = ids
        self.array = array

    def __getitem__(self, key: str) -> float:
        return float(self.array[row_of(self.ids, key)])

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def values(self) -> list[float]:
        return self.array.tolist()

    def items(self) -> list[tuple[str, float]]:
        return list(zip(self.ids, self.array.tolist()))


class RowPostings(dict):
    """Posting lists as row arrays: a term maps to the rows of the
    documents holding it, ascending, and row ``r`` is the document
    ``ids[r]``."""

    def __init__(self, ids: list[str], lists: Mapping[str, np.ndarray]):
        super().__init__(lists)
        self.ids = ids


class ColumnPostings(Mapping):
    """Posting lists stored term by term, as a CSC matrix stores its columns:
    the sorted ``terms[t]`` maps to the rows ``rows[offsets[t]:offsets[t + 1]]``
    of the documents holding it, ascending, and row ``r`` is the document
    ``ids[r]``. A term holding no row is absent. A lookup bisects ``terms``
    and slices that term's rows, so nothing is built for a term never looked up."""

    def __init__(self, ids: list[str], terms: list[str], offsets: np.ndarray, rows: np.ndarray):
        self.ids = ids
        self.terms = terms
        self.offsets = offsets
        self.rows = rows

    def __getitem__(self, term: str) -> np.ndarray:
        t = row_of(self.terms, term)
        start, end = self.offsets[t : t + 2].tolist()
        if start == end:
            raise KeyError(term)
        return self.rows[start:end]

    def take(self, codes: np.ndarray) -> list[np.ndarray]:
        """The rows of each term of ``codes``, their places in ``terms``, read
        in one pass; the code ``len(terms)`` stands for a term that ``terms``
        lacks, and has no rows."""
        starts = self.offsets[codes].tolist()
        ends = self.offsets[np.minimum(codes + 1, len(self.terms))].tolist()
        rows = self.rows
        return [rows[start:end] for start, end in zip(starts, ends)]

    def __iter__(self):
        return compress(self.terms, np.diff(self.offsets).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(np.diff(self.offsets)))


class SparseRows(Mapping):
    """Sparse rows of sorted ids, stored back to back (see
    :func:`row_slices`): the row of ``ids[r]`` is the slice
    ``[offsets[r]:offsets[r + 1]]`` of ``columns`` and ``weights``. A
    read-only mapping from id to its ``(columns, weights)`` row."""

    def __init__(self, ids, offsets, columns, weights):
        self.ids = ids
        self.offsets = offsets
        self.columns = columns
        self.weights = weights
        self.nonempty = np.flatnonzero(np.diff(offsets))  # the rows holding an entry

    def take(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The lengths of ``rows``, and their columns and weights back to back."""
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        # row i's entries, from starts[i] on, follow those of the rows before it
        shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        index = np.arange(len(shift)) + shift
        return lengths, self.columns[index], self.weights[index]

    def __getitem__(self, key: str) -> tuple[np.ndarray, np.ndarray]:
        row = row_of(self.ids, key)
        start, end = self.offsets[row:row + 2].tolist()
        return self.columns[start:end], self.weights[start:end]

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


class Bm25Index:
    """Okapi BM25 over pre-tokenized documents keyed by id. Its postings are
    stored term by term: ``terms[t]``'s are ``rows[offsets[t]:offsets[t + 1]]``,
    ascending positions in ``doc_ids``, each with its BM25 contribution for
    that term in ``contrib``. ``impacts`` maps a term to its ``(rows,
    contrib)`` slices."""

    def __init__(self, docs: Mapping[str, list[str]]):
        doc_ids = sorted(docs)
        n = len(doc_ids)
        # One key per (term, document) pair, ordered by term, then document;
        # terms are numbered in the order they first occur.
        vocab: dict[str, int] = {}
        term_of = [vocab.setdefault(t, len(vocab)) for i in doc_ids for t in docs[i]]
        doc_of = np.repeat(np.arange(n, dtype=np.int64), [len(docs[i]) for i in doc_ids])
        keys, tf = np.unique(np.array(term_of, dtype=np.int64) * n + doc_of, return_counts=True)
        terms, rows = np.divmod(keys, n)
        self._index(doc_ids, list(vocab), terms, rows.astype(np.intp), tf)

    @classmethod
    def from_postings(
        cls,
        doc_ids: list[str],
        terms: list[str],
        term_of: np.ndarray,
        rows: np.ndarray,
        tf: np.ndarray,
    ) -> "Bm25Index":
        """The index over documents with the sorted ids ``doc_ids`` where the
        document at row ``rows[e]`` holds the term ``terms[term_of[e]]``
        ``tf[e]`` times: one posting per (term, document) pair, ordered by
        term, then row."""
        index = cls.__new__(cls)
        index._index(doc_ids, terms, term_of, rows, tf)
        return index

    def _index(self, doc_ids, terms, term_of, rows, tf) -> None:
        n = len(doc_ids)
        lengths = np.bincount(rows, weights=tf, minlength=n).astype(np.int64)
        total = int(lengths.sum())
        avgdl = total / n if total else 1.0
        df = np.bincount(term_of, minlength=len(terms))
        # math.log per term: np.log may differ from it in the last bit
        idf = np.array([lucene_idf(n, d) for d in df.tolist()])
        # the IEEE operations of K1 * (1 - B + B * length / avgdl), in its order
        norm = K1 * ((1 - B) + B * lengths / avgdl)
        # Elementwise IEEE operations in the order of the per-document formula,
        # so every float equals ``idf * tf * (K1 + 1) / (tf + norm)`` in Python.
        contrib = idf[term_of] * tf * (K1 + 1) / (tf + norm[rows])
        offsets = np.concatenate(([0], np.cumsum(df)))
        self._attach(doc_ids, terms, offsets, rows, contrib)

    @classmethod
    def from_arrays(
        cls,
        doc_ids: list[str],
        terms: list[str],
        offsets: np.ndarray,
        rows: np.ndarray,
        contrib: np.ndarray,
    ) -> "Bm25Index":
        """The index whose postings are these arrays, as an index built over
        documents with the sorted ids ``doc_ids`` stores them."""
        index = cls.__new__(cls)
        index._attach(doc_ids, terms, offsets, rows, contrib)
        return index

    def _attach(self, doc_ids, terms, offsets, rows, contrib) -> None:
        self.doc_ids = doc_ids
        self.n_docs = len(doc_ids)
        self.terms = terms
        self.offsets = offsets
        self.rows = rows
        self.contrib = contrib
        self.impacts: dict[str, tuple[np.ndarray, np.ndarray]] = row_slices(
            terms, offsets, rows, contrib
        )

    def idf(self, term: str) -> float:
        rows, _ = self.impacts.get(term, ((), ()))
        return lucene_idf(self.n_docs, len(rows))

    def scores(self, query: Iterable[str]) -> Scores:
        """BM25 score of every document for the query (empty query scores 0),
        aligned with ``doc_ids``; a repeated query term counts once per
        occurrence. One ``bincount`` sums the query terms' postings, laid end
        to end in query order; it adds in input order, so each document sums
        its contributions in query order, and the floats equal those of a
        per-document loop over the query."""
        hits = [impact for impact in map(self.impacts.get, query) if impact is not None]
        if not hits:
            return Scores(self.doc_ids, np.zeros(self.n_docs))
        rows, contrib = zip(*hits)
        out = np.bincount(np.concatenate(rows), np.concatenate(contrib), self.n_docs)
        return Scores(self.doc_ids, out)

    def rank(self, query: Iterable[str]) -> list[tuple[str, float]]:
        """(id, score) pairs in descending score order; ties broken by id."""
        scores = self.scores(query)
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def row_slices(
    keys: Iterable, offsets: np.ndarray, *arrays: np.ndarray
) -> dict[object, tuple[np.ndarray, ...]]:
    """Rows stored back to back: the i-th key's row is the slice
    ``[offsets[i]:offsets[i + 1]]`` of each array (a view)."""
    bounds = offsets.tolist()
    return {key: tuple(a[s:e] for a in arrays) for key, s, e in zip(keys, bounds, bounds[1:])}


def sequential_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from ``0.0``: the same bits on every Python,
    unlike the compensated ``sum`` of 3.12+ or numpy's pairwise sum."""
    return reduce(add, values, 0.0)


def normalized_arrays(
    weights_by_id: Mapping[str, Mapping[str, float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each id's weight map as an L2-normalized sparse row, the rows stored
    back to back (see :func:`row_slices`): ``(offsets, columns, weights)``.
    A row holds the columns of its map's names, which index the sorted
    vocabulary of all names, and their weights, both in the map's order. A
    map whose weights are all zero (or empty) gets an empty row. The norm
    sums the squares one by one in map order, so every weight equals
    ``w / math.sqrt(sequential_sum(w * w for w in map))``."""
    maps = list(weights_by_id.values())
    column = {name: j for j, name in enumerate(sorted(set().union(*maps)))}
    norms = [math.sqrt(sequential_sum(w * w for w in weights.values())) for weights in maps]
    kept = [weights if norm else {} for weights, norm in zip(maps, norms)]
    lengths = [len(weights) for weights in kept]
    columns = np.fromiter(map(column.__getitem__, chain.from_iterable(kept)), np.intp)
    values = np.fromiter(chain.from_iterable(w.values() for w in kept), np.float64)
    values /= np.repeat(norms, lengths)
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))), columns, values


def normalized_rows(
    weights_by_id: Mapping[str, Mapping[str, float]]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """:func:`normalized_arrays` as one ``(columns, weights)`` row per id."""
    return row_slices(weights_by_id, *normalized_arrays(weights_by_id))


def ls_tfidf_arrays(
    ls_counts_by_id: Mapping[str, Mapping[str, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized tf-idf rows over the local structures, back to back (see
    :func:`normalized_arrays`); an example with no structures gets an empty
    row."""
    n_docs = len(ls_counts_by_id)
    df = Counter(chain.from_iterable(ls_counts_by_id.values()))
    idf = {canonical: lucene_idf(n_docs, n) for canonical, n in df.items()}
    return normalized_arrays(
        {
            doc_id: {c: tf * idf[c] for c, tf in counts.items()}
            for doc_id, counts in ls_counts_by_id.items()
        }
    )


def ls_tfidf_vectors(
    ls_counts_by_id: Mapping[str, Mapping[str, int]]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """:func:`ls_tfidf_arrays` as one ``(columns, weights)`` row per id."""
    return row_slices(ls_counts_by_id, *ls_tfidf_arrays(ls_counts_by_id))


def random_scores(ids: Iterable[str], seed: int) -> Scores:
    """Seed-deterministic pseudo-random score per id, drawn in id order.
    A list of ids already in order, such as a pool's, is kept as the
    scores' ids, so that they align with the pool by identity."""
    rng = random.Random(seed)
    ordered = sorted(ids)
    # timsort confirms a sorted list in one pass, faster than comparing
    # neighbours in Python
    ids = ids if ordered == ids else ordered
    return Scores(ids, np.array([rng.random() for _ in ids], dtype=np.float64))
