"""Shared test utilities: independent oracles and random program generation."""

from __future__ import annotations

import itertools
import math
import random
import re
import sys
from collections import Counter

from hypothesis import strategies as st

from demoselect import (
    ParseError,
    ProgramAst,
    StructureGraph,
    anonymize,
    parse_program,
    render,
    repair_parentheses,
)
from demoselect.retrieval import lucene_idf

SYMBOLS = ("f", "g", "h", "scan", "join", "pick", "a", "b", "top")
STRING_VALUES = ("x", "y town", "omaha")
NUMBER_VALUES = ("3", "17", "2.5")


def brute_force_local_structures(graph: StructureGraph, max_size: int | None = None):
    """Canonical forms of every rule-valid node subset (see the counts below)."""
    return set(brute_force_local_structure_counts(graph, max_size))


def brute_force_local_structure_counts(
    graph: StructureGraph, max_size: int | None = None
) -> Counter:
    """Reference enumeration: test every node subset against the raw rule,
    and count the valid subsets per canonical form.

    A subset is a structure when it is connected in the augmented graph and,
    for every pair of its nodes, a sibling edge joins them iff both are
    leaves of the fragment. Single-node subsets exclude the synthetic root.
    """
    n = graph.node_count
    limit = n if max_size is None else min(max_size, n)
    neighbors = [set() for _ in range(n)]
    for p, c in graph.tree_edges:
        neighbors[p].add(c)
        neighbors[c].add(p)
    sib_pairs = set()
    for a, b in graph.sibling_edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
        sib_pairs.add(frozenset((a, b)))
    found: Counter = Counter()
    for size in range(1, limit + 1):
        for subset in itertools.combinations(range(n), size):
            nodes = set(subset)
            if size == 1 and subset[0] == 0:
                continue
            stack, seen = [subset[0]], {subset[0]}
            while stack:
                v = stack.pop()
                for u in neighbors[v]:
                    if u in nodes and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) != size:
                continue
            leaves = {
                v
                for v in nodes
                if not any(c in nodes for c in graph.children[v])
            }
            valid = True
            for x, y in itertools.combinations(subset, 2):
                is_sib = frozenset((x, y)) in sib_pairs
                if is_sib != (x in leaves and y in leaves):
                    valid = False
                    break
            if valid:
                found[_serialize_fragment(graph, nodes)] += 1
    return found


def _serialize_fragment(graph: StructureGraph, nodes: set[int]) -> str:
    """Canonical text of a rule-valid fragment, derived only from its edges."""
    tops = sorted(v for v in nodes if graph.parents[v] not in nodes)
    if len(tops) == 2:
        a, b = tops  # pre-order indexes follow argument order
        return f"{graph.symbols[a]} <-> {graph.symbols[b]}"
    assert len(tops) == 1, f"fragment has {len(tops)} top nodes"
    path = []
    v = tops[0]
    while True:
        kids = sorted(c for c in graph.children[v] if c in nodes)
        path.append(v)
        if not kids:
            return " -> ".join(graph.symbols[i] for i in path)
        if len(kids) == 1:
            v = kids[0]
            continue
        assert len(kids) == 2, "valid fragments fork into at most two leaves"
        prefix = " -> ".join(graph.symbols[i] for i in path)
        return f"{prefix} -> {graph.symbols[kids[0]]} <-> {graph.symbols[kids[1]]}"


def random_program(rng: random.Random, max_nodes: int = 11) -> str:
    """Random well-formed program text with at most ``max_nodes`` symbols."""

    def grow(budget: int) -> tuple[str, int]:
        if budget <= 1 or rng.random() < 0.35:
            roll = rng.random()
            if roll < 0.2:
                return f'"{rng.choice(STRING_VALUES)}"', 1
            if roll < 0.3:
                return rng.choice(NUMBER_VALUES), 1
            return rng.choice(SYMBOLS), 1
        arity = rng.randint(1, min(3, budget - 1))
        used = 1
        parts = []
        for i in range(arity):
            share = (budget - used) // (arity - i) or 1
            text, count = grow(share)
            parts.append(text)
            used += count
        return f"{rng.choice(SYMBOLS)} ({', '.join(parts)})", used

    text, _ = grow(rng.randint(1, max_nodes))
    return text


def node_count(ast: ProgramAst) -> int:
    return sum(1 for _ in ast.iter_nodes())


def reference_tfidf(ls_counts_by_id) -> dict[str, dict[str, float]]:
    """Normalized tf-idf weights by dict arithmetic: ``tf * idf`` per
    structure, divided by the root of the squares summed in map order; an
    example whose weights are all zero gets an empty map."""
    n_docs = len(ls_counts_by_id)
    df = Counter(c for counts in ls_counts_by_id.values() for c in counts)
    out = {}
    for doc_id, counts in ls_counts_by_id.items():
        weights = {c: tf * lucene_idf(n_docs, df[c]) for c, tf in counts.items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        out[doc_id] = {c: w / norm for c, w in weights.items()} if norm else {}
    return out


def random_texts():
    """Program-like text, well-formed or not: random programs, their
    prefixes, programs with surplus closers, and free text over the
    notation's characters (quotes, numerals and separators included)."""
    programs = st.integers(0, 2**32 - 1).map(lambda seed: random_program(random.Random(seed)))
    return st.one_of(
        programs,
        st.tuples(programs, st.integers(0, 80)).map(lambda p: p[0][: p[1]]),
        programs.map(lambda text: text + "))"),
        st.text(alphabet="fgab (),\"'3.-e5 ", max_size=30),
    )


def count_parses(monkeypatch) -> Counter:
    """Count ``parse_program`` calls per text, wherever the package calls it."""
    parsed: Counter = Counter()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "demoselect" and hasattr(module, "parse_program"):
            original = module.parse_program

            def counted(text, *args, _original=original, **kwargs):
                parsed[text] += 1
                return _original(text, *args, **kwargs)

            monkeypatch.setattr(module, "parse_program", counted)
    return parsed


# --- reference copies of the first evaluation front end ------------------------
#
# Evaluation once parsed a prediction, re-parsed its repaired text when that
# failed, and scanned unparseable text with a tokenizer of its own. The
# copies below keep that behaviour so the one front end can be checked
# against it.

_REFERENCE_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?\Z")


def reference_token_scan_symbols(text: str) -> set[str]:
    symbols: set[str] = set()
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "\"'":
            j = text.find(ch, i + 1)
            symbols.add("string")
            i = n if j < 0 else j + 1
        elif ch.isspace() or ch in "(),":
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "(),\"'":
                j += 1
            token = text[i:j]
            symbols.add("number" if _REFERENCE_NUMBER_RE.match(token) else token)
            i = j
    return symbols


def reference_symbols_and_template(text, dialect) -> tuple[set[str], str | None]:
    try:
        parsed = parse_program(text, dialect)
    except ParseError:
        parsed = None
        repair = repair_parentheses(text, dialect)
        if repair.ok:
            try:
                parsed = parse_program(repair.text, dialect)
            except ParseError:
                parsed = None
    if parsed is None:
        return reference_token_scan_symbols(text), None
    anon = anonymize(parsed)
    return set(anon.symbol_sequence()), render(anon)
