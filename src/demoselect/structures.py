"""Sibling-augmented program graphs and their local structures.

A program tree is augmented with "sibling" edges between consecutive
arguments of the same function. A local structure (LS) is a connected
induced fragment of that graph in which a sibling edge joins a node pair
iff both nodes are leaves of the fragment. Under that rule every valid
fragment is one of:

* a downward path of tree nodes,
* a downward path whose last node forks into two consecutive child leaves,
* a bare pair of consecutive sibling leaves.

The enumerator below exploits that shape; the test suite checks it against
a subset-by-subset brute force that only applies the raw rule.

A structure is its canonical string: the symbols down a path joined by
``PARENT_SEP``, with a fork's two leaves joined by ``SIBLING_SEP``. The
enumerator yields one string per occurrence (a distinct node subset), so two
occurrences of the same labeled shape are one structure counted twice, and
every index, posting list and coverage element keys on that string.
:class:`LocalStructure` pairs a string with its node count; it is only the
view that :func:`enumerate_local_structures` returns to the acceptance
criteria and the structure tests.

The mock model and evaluation compare structure sets as codes: a structure's
code is its number in a vocabulary, an index's or one made of the sets at
hand (:func:`coded_sets`). A demonstration is a row of codes, and a
gold program a :class:`CodedStructures`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .programs import (
    DEFAULT_DIALECT,
    DialectConfig,
    ProgramAst,
    anonymize,
    parse_program,
)

PARENT_SEP = " -> "
SIBLING_SEP = " <-> "


@dataclass
class StructureGraph:
    """Indexed tree plus sibling edges; node 0 is the synthetic root."""

    symbols: list[str]
    parents: list[int | None]
    children: list[list[int]]
    sibling_edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.symbols)

    @property
    def tree_edges(self) -> list[tuple[int, int]]:
        return [(p, c) for c, p in enumerate(self.parents) if p is not None]


def build_structure_graph(ast: ProgramAst) -> StructureGraph:
    """Index the tree in pre-order and add consecutive-sibling edges."""
    symbols: list[str] = []
    parents: list[int | None] = []
    children: list[list[int]] = []

    def add(node, parent_idx):
        idx = len(symbols)
        symbols.append(node.symbol)
        parents.append(parent_idx)
        children.append([])
        if parent_idx is not None:
            children[parent_idx].append(idx)
        for child in node.children:
            add(child, idx)

    add(ast.root, None)
    sibling_edges = []
    for kids in children:
        for a, b in zip(kids, kids[1:]):
            sibling_edges.append((a, b))
    return StructureGraph(symbols, parents, children, sibling_edges)


def ls_size(canonical: str) -> int:
    """Node count of a structure given only its canonical form: symbols hold
    no space, and each separator, ``PARENT_SEP`` or ``SIBLING_SEP``, holds
    exactly two and joins two nodes, so the spaces count the separators twice."""
    return 1 + canonical.count(" ") // 2


def is_symbol(canonical: str) -> bool:
    """Whether a structure is one symbol: symbols hold no space, separators do."""
    return " " not in canonical


def _iter_occurrences(g: StructureGraph, max_size: int | None):
    """Yield the canonical form of every distinct node subset realizing a
    structure: each path extends its prefix's form by one symbol, and each
    fork grows upward from its sibling pair by one parent at a time."""
    limit = g.node_count if max_size is None else max_size
    if limit >= 1:
        # Single symbols; the synthetic root is excluded at this size only.
        yield from g.symbols[1:]
    if limit < 2:
        return

    # Downward paths of two or more nodes, each start's paths in pre-order.
    for start in range(g.node_count):
        head = g.symbols[start] + PARENT_SEP
        stack = [(head + g.symbols[c], c, 2) for c in reversed(g.children[start])]
        while stack:
            canonical, v, size = stack.pop()
            yield canonical
            if size < limit:
                for c in reversed(g.children[v]):
                    stack.append((canonical + PARENT_SEP + g.symbols[c], c, size + 1))

    # Consecutive-sibling leaf pairs, bare or at the bottom of a path.
    for a, b in g.sibling_edges:
        canonical = g.symbols[a] + SIBLING_SEP + g.symbols[b]
        yield canonical
        node = g.parents[a]
        size = 3
        while node is not None and size <= limit:
            canonical = g.symbols[node] + PARENT_SEP + canonical
            yield canonical
            node = g.parents[node]
            size += 1


def count_local_structures(
    g: StructureGraph, max_size: int | None = None
) -> Counter:
    """Occurrence counts per canonical form (distinct node subsets)."""
    return Counter(_iter_occurrences(g, max_size))


@dataclass(frozen=True, order=True)
class LocalStructure:
    """A distinct structure with its node count, as the acceptance criteria
    and the structure tests read it; every other path keys on the string."""

    canonical: str
    size: int


def enumerate_local_structures(
    g: StructureGraph, max_size: int | None = None
) -> set[LocalStructure]:
    """All distinct local structures of the graph up to ``max_size`` nodes."""
    return {LocalStructure(c, ls_size(c)) for c in count_local_structures(g, max_size)}


def analyze(ast: ProgramAst, max_size: int | None = None) -> tuple[str, Counter]:
    """A program's template (its anonymized text) and the local-structure
    counts of its anonymized tree up to ``max_size`` nodes, keyed by
    canonical form; the size-1 structures are the anonymized symbols. This
    is the one anonymize → graph → structures chain."""
    anon = anonymize(ast)
    return anon.source_text, count_local_structures(build_structure_graph(anon), max_size)


def program_structures(text: str, dialect: DialectConfig = DEFAULT_DIALECT) -> Counter:
    """Local-structure counts of a program's anonymized tree, keyed by
    canonical form. Raises :class:`ParseError` on unparseable text."""
    return analyze(parse_program(text, dialect))[1]


# --- structures as codes -----------------------------------------------------


def structure_codes(names: Iterable[str], codes: Mapping[str, int]) -> np.ndarray:
    """Each of ``names`` as its code in ``codes``, which numbers a vocabulary
    from 0; as ``len(codes)``, a code that no row of codes over that
    vocabulary holds, if the vocabulary lacks it."""
    return np.array(list(map(codes.get, names, repeat(len(codes)))), np.intp)


@dataclass(frozen=True)
class CodedStructures:
    """A program's structures as codes over a vocabulary (see
    :func:`structure_codes`): ``codes[j]`` is its j-th structure's code,
    ``sizes[j]`` that structure's node count and ``symbols[j]`` whether it is
    a symbol. Codes run below ``width``: the vocabulary's, and the one code
    that the names it lacks share."""

    codes: np.ndarray
    sizes: np.ndarray
    symbols: np.ndarray
    width: int

    @classmethod
    def of(cls, names: Iterable[str], codes: Mapping[str, int]) -> "CodedStructures":
        names = list(names)
        return cls(
            structure_codes(names, codes),
            np.fromiter(map(ls_size, names), np.intp, len(names)),
            np.fromiter(map(is_symbol, names), bool, len(names)),
            len(codes) + 1,
        )

    def union(self, rows: Sequence[np.ndarray]) -> np.ndarray:
        """A mask of the codes below ``width`` that some of ``rows`` holds."""
        mask = np.zeros(self.width, bool)
        if len(rows):
            mask[np.concatenate(rows)] = True
        return mask


def coded_sets(
    demo_sets: Sequence[Iterable[str]], gold: Iterable[str]
) -> tuple[dict[str, int], list[np.ndarray], CodedStructures]:
    """The codes of the vocabulary of all the names in ``demo_sets`` and
    ``gold``, the sets as rows of those codes, and ``gold`` coded."""
    demo_sets, gold = [set(names) for names in demo_sets], set(gold)
    vocab = gold.union(*demo_sets)
    codes = dict(zip(vocab, range(len(vocab))))
    return codes, [structure_codes(s, codes) for s in demo_sets], CodedStructures.of(gold, codes)
