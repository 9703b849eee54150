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

Fragments are identified by their canonical linearization, so two
occurrences of the same labeled shape count as one structure (with an
occurrence count available separately).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .errors import EmptyInputError
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


@dataclass(frozen=True, order=True)
class LocalStructure:
    canonical: str
    size: int
    symbols: tuple[str, ...]


def make_path_ls(symbols: Iterable[str]) -> LocalStructure:
    syms = tuple(symbols)
    return LocalStructure(PARENT_SEP.join(syms), len(syms), syms)


def make_pair_ls(left: str, right: str) -> LocalStructure:
    return LocalStructure(f"{left}{SIBLING_SEP}{right}", 2, (left, right))


def make_fork_ls(path_symbols: Iterable[str], left: str, right: str) -> LocalStructure:
    path = tuple(path_symbols)
    canonical = PARENT_SEP.join(path) + PARENT_SEP + f"{left}{SIBLING_SEP}{right}"
    return LocalStructure(canonical, len(path) + 2, path + (left, right))


def ls_size(canonical: str) -> int:
    """Node count of a structure given only its canonical form (symbols
    contain no spaces, so every separator joins two nodes)."""
    return 1 + canonical.count(PARENT_SEP) + canonical.count(SIBLING_SEP)


def _iter_occurrences(g: StructureGraph, max_size: int | None):
    """Yield one LocalStructure per distinct node subset realizing it."""
    limit = g.node_count if max_size is None else max_size
    if limit >= 1:
        # Single symbols; the synthetic root is excluded at this size only.
        for v in range(1, g.node_count):
            yield make_path_ls((g.symbols[v],))
    if limit < 2:
        return

    # Downward paths of two or more nodes.
    def extend(path):
        v = path[-1]
        for c in g.children[v]:
            longer = path + (c,)
            if len(longer) <= limit:
                yield longer
                yield from extend(longer)

    for start in range(g.node_count):
        for path in extend((start,)):
            yield make_path_ls(tuple(g.symbols[i] for i in path))

    # Consecutive-sibling leaf pairs, bare or at the bottom of a path.
    for a, b in g.sibling_edges:
        left, right = g.symbols[a], g.symbols[b]
        yield make_pair_ls(left, right)
        chain: list[int] = []
        node: int | None = g.parents[a]
        while node is not None and len(chain) + 3 <= limit:
            chain.insert(0, node)
            yield make_fork_ls(tuple(g.symbols[i] for i in chain), left, right)
            node = g.parents[node]


def enumerate_local_structures(
    g: StructureGraph, max_size: int | None = None
) -> set[LocalStructure]:
    """All distinct local structures of the graph up to ``max_size`` nodes."""
    return set(_iter_occurrences(g, max_size))


def count_local_structures(
    g: StructureGraph, max_size: int | None = None
) -> Counter:
    """Occurrence counts per canonical form (distinct node subsets)."""
    counts: Counter = Counter()
    for ls in _iter_occurrences(g, max_size):
        counts[ls.canonical] += 1
    return counts


def program_structures(
    text: str, dialect: DialectConfig = DEFAULT_DIALECT, max_size: int | None = None
) -> Counter:
    """Local-structure counts of a program's anonymized tree, keyed by
    canonical form. Raises :class:`ParseError` on unparseable text."""
    ast = anonymize(parse_program(text, dialect))
    return count_local_structures(build_structure_graph(ast), max_size)


def ls_union(
    asts: list[ProgramAst], max_size: int | None = None
) -> set[LocalStructure]:
    """Union of local-structure sets over candidate programs."""
    if not asts:
        raise EmptyInputError("at least one program is required")
    out: set[LocalStructure] = set()
    for ast in asts:
        out |= enumerate_local_structures(build_structure_graph(ast), max_size)
    return out
