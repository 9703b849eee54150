from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoselect import (
    Bm25Index,
    build_indexes,
    gen_fixture,
    ls_tfidf_vectors,
    make_example,
    random_scores,
    tokenize_utterance,
)
from demoselect.retrieval import lucene_idf, normalized_arrays

from geo_pool import POOL_ROWS, TEST_UTTERANCE
from helpers import pool_rows, reference_tfidf

TOY_DOCS = {"d1": ["a", "b"], "d2": ["a"], "d3": ["c"]}

# Frozen from a by-hand Okapi computation (k1=1.2, b=0.75, avgdl=4/3,
# idf = ln((N - n + 0.5) / (n + 0.5) + 1)).
HAND_SCORES = {
    ("c",): {"d1": 0.0, "d2": 0.0, "d3": 1.0925692944940748},
    ("a",): {"d1": 0.39019169220400696, "d2": 0.523548346501579, "d3": 0.0},
    ("a", "c"): {
        "d1": 0.39019169220400696,
        "d2": 0.523548346501579,
        "d3": 1.0925692944940748,
    },
}


def test_tokenize_question():
    assert tokenize_utterance("What states border Texas?") == [
        "what",
        "states",
        "border",
        "texas",
    ]


def test_tokenize_empty():
    assert tokenize_utterance("") == []


def test_tokenize_splits_apostrophes():
    assert tokenize_utterance("Jake's supervisor") == ["jake", "s", "supervisor"]


@pytest.mark.parametrize("query", sorted(HAND_SCORES))
def test_bm25_matches_hand_computation(query):
    index = Bm25Index(TOY_DOCS)
    scores = index.scores(list(query))
    for doc_id, expected in HAND_SCORES[query].items():
        assert scores[doc_id] == pytest.approx(expected, abs=1e-9)


def test_bm25_single_term_ranking():
    index = Bm25Index(TOY_DOCS)
    ranked = index.rank(["c"])
    assert ranked[0][0] == "d3"
    assert ranked[0][1] > 0
    assert ranked[1][1] == ranked[2][1] == 0.0


def test_bm25_prefers_shorter_doc_at_equal_tf():
    index = Bm25Index(TOY_DOCS)
    scores = index.scores(["a"])
    assert scores["d2"] > scores["d1"] > 0


def test_bm25_empty_query_scores_zero():
    index = Bm25Index(TOY_DOCS)
    scores = index.scores([])
    assert set(scores.values()) == {0.0}
    assert [doc for doc, _ in index.rank([])] == ["d1", "d2", "d3"]


def test_bm25_added_query_term_never_hurts():
    rng = random.Random(4)
    vocab = list("abcdefgh")
    for _ in range(40):
        docs = {
            f"d{i}": [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
            for i in range(6)
        }
        index = Bm25Index(docs)
        target = rng.choice(list(docs))
        query = [rng.choice(vocab) for _ in range(3)]
        base = index.scores(query)[target]
        extra = rng.choice(docs[target])
        boosted = index.scores(query + [extra])[target]
        assert boosted >= base - 1e-12


def test_bm25_ranking_stable_under_corpus_duplication():
    rng = random.Random(8)
    vocab = list("abcdef")
    for _ in range(25):
        docs = {
            f"d{i}": [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
            for i in range(5)
        }
        doubled = dict(docs)
        doubled.update({f"copy-{k}": v for k, v in docs.items()})
        query = [rng.choice(vocab) for _ in range(3)]
        base_order = [d for d, _ in Bm25Index(docs).rank(query)]
        doubled_order = [
            d for d, _ in Bm25Index(doubled).rank(query) if not d.startswith("copy-")
        ]
        assert doubled_order == base_order


def _per_document_scores(docs, query, k1=1.2, b=0.75):
    """BM25 by the textbook formula, one document at a time."""
    ids = sorted(docs)
    total = sum(len(docs[i]) for i in ids)
    avgdl = total / len(ids) if total else 1.0
    df = Counter(term for i in ids for term in set(docs[i]))
    out = {}
    for doc_id in ids:
        tf = Counter(docs[doc_id])
        norm = k1 * (1 - b + b * len(docs[doc_id]) / avgdl)
        score = 0.0
        for term in query:
            freq = tf.get(term, 0)
            if freq:
                score += lucene_idf(len(ids), df[term]) * freq * (k1 + 1) / (freq + norm)
        out[doc_id] = score
    return out


def test_bm25_scores_equal_per_document_formula():
    geo = [make_example(*row) for row in POOL_ROWS]
    rng = random.Random(12)
    vocab = list("abcdefghij")
    random_docs = {
        f"r{i:02d}": [rng.choice(vocab) for _ in range(rng.randint(0, 9))]
        for i in range(30)
    }
    cases = [
        ({ex.id: ex.utt_tokens for ex in geo}, tokenize_utterance(TEST_UTTERANCE)),
        ({ex.id: ex.symbol_seq for ex in geo}, ["river", "state", "river", "answer"]),
        (random_docs, [rng.choice(vocab) for _ in range(6)]),
    ]
    for docs, query in cases:
        index = Bm25Index(docs)
        for q in (query, query + query[:2], query + ["zz-unknown"], ["zz-unknown"], []):
            scores = index.scores(q)
            assert list(scores) == sorted(docs)
            assert scores == _per_document_scores(docs, q)
        for term in set(query) | {"zz-unknown"}:
            document_frequency = sum(term in doc for doc in docs.values())
            assert index.idf(term) == lucene_idf(len(docs), document_frequency)


def test_bm25_symbols_scores_equal_the_per_document_formula_bit_for_bit():
    # the symbol BM25 of a built index: its length norms are one numpy
    # expression, its idfs one math.log per term, and every score holds the
    # bits of the per-document formula in Python floats
    bundle = build_indexes(gen_fixture(n_train=80, n_test=4, seed=9).corpus)
    docs = {i: ex.symbol_seq for i, ex in bundle.pool.items()}
    names = sorted({c for seq in docs.values() for c in seq})
    rng = random.Random(4)
    for query in ([], names, [rng.choice(names) for _ in range(7)], [names[0], "zz-unknown"]):
        scores = bundle.bm25_symbols.scores(query)
        expected = _per_document_scores(docs, query)
        assert [v.hex() for v in scores.values()] == [expected[i].hex() for i in scores.ids]


# "" is an empty term; "zz-unknown" occurs in no document.
VOCAB = ["a", "b", "c", "d", "e", ""]


def _per_term_scores(index: Bm25Index, query) -> np.ndarray:
    """Scores summed by one fancy ``+=`` per query term, in query order."""
    out = np.zeros(index.n_docs)
    for term in query:
        impact = index.impacts.get(term)
        if impact is not None:
            rows, contrib = impact
            out[rows] += contrib
    return out


@settings(max_examples=300, deadline=None)
@given(
    docs=st.dictionaries(
        st.text("pqrs", min_size=1, max_size=3),
        st.lists(st.sampled_from(VOCAB), max_size=8),
        max_size=12,
    ),
    query=st.lists(st.sampled_from([*VOCAB, "zz-unknown"]), max_size=10),
)
def test_bm25_scores_equal_the_per_term_loop_bit_for_bit(docs, query):
    # one bincount over the query terms' postings adds as the per-term loop
    # does, repeated and unknown terms included
    index = Bm25Index(docs)
    got = index.scores(query).array
    assert got.dtype == np.float64 and got.shape == (len(docs),)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in _per_term_scores(index, query).tolist()]


def test_bm25_utterance_scores_equal_the_per_term_loop_bit_for_bit():
    fixture = gen_fixture(n_train=200, n_test=20, seed=5)
    bundle = build_indexes(fixture.corpus)
    index = bundle.bm25_utterance
    for example in fixture.corpus.split("test"):
        tokens = example.utt_tokens
        for query in (tokens, tokens + tokens[:3], [*tokens, "zz-unknown"], ["zz-unknown"]):
            expected = _per_term_scores(index, query).tolist()
            assert [v.hex() for v in index.scores(query).values()] == [v.hex() for v in expected]


def test_column_postings_take_reads_each_code_as_a_lookup():
    bundle = build_indexes(gen_fixture(n_train=60, n_test=10, seed=2).corpus)
    postings, vocab = bundle.ls_postings, bundle.vocab
    # every code, the code of the absent names, and codes in any order
    codes = np.array([*range(len(vocab) + 1), len(vocab), 0, len(vocab) - 1])
    empty = np.empty(0, np.intp)
    expected = [postings.get(vocab[c], empty) if c < len(vocab) else empty for c in codes]
    got = postings.take(codes)
    assert len(got) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


@settings(max_examples=300, deadline=None)
@given(
    docs=st.dictionaries(
        st.text("pqrs", min_size=1, max_size=3),
        st.lists(st.sampled_from(VOCAB), max_size=8),
        max_size=12,
    ),
    query=st.lists(st.sampled_from([*VOCAB, "zz-unknown"]), max_size=8),
)
def test_bm25_scores_equal_per_document_formula_on_random_documents(docs, query):
    index = Bm25Index(docs)
    scores = index.scores(query)
    assert list(scores) == sorted(docs)
    assert all(type(value) is float for value in scores.values())
    assert scores == _per_document_scores(docs, query)
    for term in set(query):
        document_frequency = sum(term in doc for doc in docs.values())
        assert index.idf(term) == lucene_idf(len(docs), document_frequency)


def test_idf_positive_and_decreasing():
    values = [lucene_idf(10, n) for n in range(11)]
    assert all(v > 0 for v in values)
    assert values == sorted(values, reverse=True)


# --- tf-idf vectors ---------------------------------------------------------

TOY_LS_COUNTS = {
    "e1": {"common": 2, "rare": 1},
    "e2": {"common": 1},
    "e3": {"common": 1, "other": 3},
}


def _hand_vector(doc_id):
    n = len(TOY_LS_COUNTS)
    df = {"common": 3, "rare": 1, "other": 1}
    raw = {
        k: tf * math.log((n - df[k] + 0.5) / (df[k] + 0.5) + 1)
        for k, tf in TOY_LS_COUNTS[doc_id].items()
    }
    norm = math.sqrt(sum(w * w for w in raw.values()))
    return {k: w / norm for k, w in raw.items()}


def _named(counts_by_id, row):
    """A row's weights keyed by structure name."""
    vocab = sorted({c for counts in counts_by_id.values() for c in counts})
    columns, weights = row
    return dict(zip((vocab[c] for c in columns.tolist()), weights.tolist()))


def _dot(u, v):
    """Dot product of two rows of one vocabulary."""
    width = max(u[0].max(initial=-1), v[0].max(initial=-1)) + 1
    dense_u, dense_v = np.zeros(width), np.zeros(width)
    dense_u[u[0]] = u[1]
    dense_v[v[0]] = v[1]
    return float(dense_u @ dense_v)


def test_tfidf_matches_hand_table():
    vectors = ls_tfidf_vectors(TOY_LS_COUNTS)
    for doc_id in TOY_LS_COUNTS:
        expected = _hand_vector(doc_id)
        weights = _named(TOY_LS_COUNTS, vectors[doc_id])
        assert set(weights) == set(expected)
        for key, value in expected.items():
            assert weights[key] == pytest.approx(value, abs=1e-12)


def test_tfidf_vectors_are_unit_length():
    vectors = ls_tfidf_vectors(TOY_LS_COUNTS)
    for _, weights in vectors.values():
        assert math.sqrt(sum(w * w for w in weights.tolist())) == pytest.approx(1.0)


def test_ubiquitous_structure_gets_minimal_weight():
    vectors = ls_tfidf_vectors(TOY_LS_COUNTS)
    weights = _named(TOY_LS_COUNTS, vectors["e1"])
    assert weights["common"] < weights["rare"]


def test_identical_multisets_have_cosine_one():
    vectors = ls_tfidf_vectors({"a": {"x": 2, "y": 1}, "b": {"x": 2, "y": 1}})
    assert _dot(vectors["a"], vectors["b"]) == pytest.approx(1.0)


def test_disjoint_supports_have_cosine_zero():
    vectors = ls_tfidf_vectors({"a": {"x": 1}, "b": {"y": 1}})
    assert _dot(vectors["a"], vectors["b"]) == 0.0


def test_overlapping_vectors_cosine_hand_value():
    vectors = ls_tfidf_vectors(TOY_LS_COUNTS)
    left, right = _hand_vector("e1"), _hand_vector("e3")
    expected = sum(left[k] * right.get(k, 0.0) for k in left)
    assert _dot(vectors["e1"], vectors["e3"]) == pytest.approx(expected, abs=1e-12)


def test_zero_structure_example_gets_zero_vector():
    vectors = ls_tfidf_vectors({"a": {"x": 1}, "empty": {}})
    columns, weights = vectors["empty"]
    assert len(columns) == 0 and len(weights) == 0
    assert _dot(vectors["empty"], vectors["a"]) == 0.0


def test_tfidf_columns_index_the_sorted_vocabulary():
    vectors = ls_tfidf_vectors({"a": {"y": 1, "x": 2}, "b": {"z": 1, "x": 1}})
    assert vectors["a"][0].tolist() == [1, 0]
    assert vectors["b"][0].tolist() == [2, 0]


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from([f"d{i}" for i in range(8)]),
        # up to 40 structures per example: numpy sums 8 or more terms pairwise
        st.dictionaries(
            st.sampled_from([f"s{i} -> t{i % 7}" for i in range(60)]),
            st.integers(min_value=1, max_value=40),
            max_size=40,
        ),
        max_size=8,
    )
)
def test_tfidf_weights_equal_dict_arithmetic(counts_by_id):
    vectors = ls_tfidf_vectors(counts_by_id)
    expected = reference_tfidf(counts_by_id)
    assert list(vectors) == list(expected)
    for doc_id, row in vectors.items():
        assert row[0].dtype == np.intp and row[1].dtype == np.float64
        # exact equality, entry for entry and in map order
        assert list(_named(counts_by_id, row).items()) == list(expected[doc_id].items())
        assert (len(row[0]) == 0) == (not counts_by_id[doc_id])


def test_norm_sums_squares_left_to_right():
    # squares 1, 1e-16, 1e-16, 1e-16, 1e-16: each small one is lost added to
    # 1.0 alone, so the norm is 1.0; a compensated sum (Python 3.12's sum,
    # math.fsum) keeps them and gets 1.0000000000000002
    weights = {"a": 1.0, "b": 1e-8, "c": 1e-8, "d": 1e-8, "e": 1e-8}
    assert math.sqrt(math.fsum(w * w for w in weights.values())) == 1.0000000000000002
    _, _, values = normalized_arrays({"x": weights})
    assert values.tolist() == list(weights.values())


def test_random_scores_deterministic():
    first = random_scores(["a", "b", "c"], seed=5)
    second = random_scores(["c", "a", "b"], seed=5)
    assert first == second
    assert random_scores(["a", "b", "c"], seed=6) != first


def test_random_scores_keep_the_pools_id_list():
    pool = pool_rows([row[0] for row in POOL_ROWS])
    scores = random_scores(pool.ids, seed=5)
    assert scores.ids is pool.ids
    # the draw is unchanged: one number per id, in id order
    rng = random.Random(5)
    assert scores.array.tolist() == [rng.random() for _ in pool.ids]
    assert scores == random_scores(reversed(pool.ids), seed=5)
