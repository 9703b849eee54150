"""Sibling-augmented program graphs and their local structures.

A program's tree (its walk, :class:`~demoselect.programs.ProgramWalk`) is
augmented with "sibling" edges between consecutive arguments of the same
function. A local structure (LS) is a connected induced fragment of that
graph in which a sibling edge joins a node pair iff both nodes are leaves of
the fragment. Under that rule every valid fragment is one of:

* a downward path of tree nodes,
* a downward path whose last node forks into two consecutive child leaves,
* a bare pair of consecutive sibling leaves.

The enumerator below (:func:`local_structures`) exploits that shape, over a
graph given as arrays: a program's walk, or the :class:`StructureGraph` that
:func:`build_structure_graph` makes of it. It gives each structure's node
count beside its occurrence count, so no caller counts the nodes of a name.
The test suite checks it against a subset-by-subset brute force that only
applies the raw rule.

A structure is its canonical string: the symbols down a path joined by
``PARENT_SEP``, with a fork's two leaves joined by ``SIBLING_SEP``. The
enumerator yields one string per occurrence (a distinct node subset), so two
occurrences of the same labeled shape are one structure counted twice, and
every index, posting list and coverage element keys on that string.
:class:`LocalStructure` pairs a string with its node count; it is only the
view that :func:`enumerate_local_structures` returns to the acceptance
criteria and the structure tests.

Program text goes to its template and structures in one walk and one
enumeration (:func:`read_structures`), the one call from text to
structures: a text's structure set is ``read_structures(text).counts``.

The mock model and evaluation compare structure sets as codes: a structure's
code is its number in a vocabulary, an index's or one made of the sets at
hand (:func:`coded_sets`). A demonstration is a row of codes, and a
gold program a :class:`CodedStructures`: its names in order, with their
codes and node counts, which also give the coverage walk its order.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import add

import numpy as np

from .programs import DEFAULT_DIALECT, DialectConfig, ProgramWalk, parse_program

PARENT_SEP = " -> "
SIBLING_SEP = " <-> "


@dataclass
class StructureGraph:
    """A program's nodes in pre-order, with their parents, children and
    sibling edges; node 0 is the synthetic root."""

    symbols: list[str]
    parents: list[int | None]
    children: list[list[int]]
    sibling_edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.symbols)


def build_structure_graph(walk: ProgramWalk) -> StructureGraph:
    """A walk's graph, its symbols as written (anonymize the walk first for
    the anonymized graph), with consecutive-sibling edges."""
    sibling_edges = [pair for kids in walk.children for pair in zip(kids, kids[1:])]
    return StructureGraph(walk.values, walk.parents, walk.children, sibling_edges)


def ls_size(canonical: str) -> int:
    """Node count of a structure given only its canonical form: symbols hold
    no space, and each separator, ``PARENT_SEP`` or ``SIBLING_SEP``, holds
    exactly two and joins two nodes, so the spaces count the separators twice."""
    return 1 + canonical.count(" ") // 2


def is_symbol(canonical: str) -> bool:
    """Whether a structure is one symbol: symbols hold no space, separators do."""
    return " " not in canonical


def local_structures(
    symbols: Sequence[str],
    parents: Sequence[int | None],
    children: Sequence[Sequence[int]],
    max_size: int | None = None,
) -> tuple[Counter, dict[str, int]]:
    """The local structures of a graph given as arrays (see
    :class:`StructureGraph`; node 0 is the synthetic root, and every node
    follows its parent), up to ``max_size`` nodes: the occurrence count of
    each canonical form (distinct node subsets), and its node count.

    The downward paths that end at a node are its symbol and each path that
    ends at its parent, extended by it: built in node order, nearest start
    first, so the i-th holds i + 1 nodes. A fork is a pair of consecutive
    sibling leaves, bare or under each path that ends at their parent."""
    n = len(symbols)
    limit = n if max_size is None else max_size
    if limit < 1:
        return Counter(), {}
    names: list[str] = []
    sizes: list[int] = []
    ends = [[symbols[0]]]  # the synthetic root is a structure only inside a path
    for v in range(1, n):
        symbol = symbols[v]
        # map stops at the shortest: at most limit - 1 paths grow by one node
        own = [symbol, *map(add, ends[parents[v]], repeat(PARENT_SEP + symbol, limit - 1))]
        ends.append(own)
        names += own
        sizes += range(1, len(own) + 1)
    for p, kids in enumerate(children if limit >= 2 else ()):
        for a, b in zip(kids, kids[1:]):
            pair = symbols[a] + SIBLING_SEP + symbols[b]
            forks = [pair, *map(add, ends[p], repeat(PARENT_SEP + pair, limit - 2))]
            names += forks
            sizes += range(2, len(forks) + 2)
    return Counter(names), dict(zip(names, sizes))


def count_local_structures(
    g: StructureGraph, max_size: int | None = None
) -> Counter:
    """Occurrence counts per canonical form (distinct node subsets)."""
    return local_structures(g.symbols, g.parents, g.children, max_size)[0]


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
    _, sizes = local_structures(g.symbols, g.parents, g.children, max_size)
    return set(map(LocalStructure, sizes, sizes.values()))


@dataclass(frozen=True)
class ProgramStructures:
    """A program's template and its local structures in name order: the
    occurrence count (``counts``) and node count (``sizes``) of each."""

    template: str
    counts: dict[str, int]
    sizes: dict[str, int]


def read_structures(text: str, dialect: DialectConfig = DEFAULT_DIALECT) -> ProgramStructures:
    """The template and local structures of program text, read in one walk
    (:func:`~demoselect.programs.parse_program`). Raises :class:`ParseError`
    on unparseable text."""
    walk = parse_program(text, dialect)
    counts, sizes = local_structures(walk.symbols, walk.parents, walk.children)
    names = sorted(counts)
    return ProgramStructures(
        walk.template,
        dict(zip(names, map(counts.__getitem__, names))),
        dict(zip(names, map(sizes.__getitem__, names))),
    )


# --- structures as codes -----------------------------------------------------


def structure_codes(names: Iterable[str], codes: Mapping[str, int]) -> np.ndarray:
    """Each of ``names`` as its code in ``codes``, which numbers a vocabulary
    from 0; as ``len(codes)``, a code that no row of codes over that
    vocabulary holds, if the vocabulary lacks it."""
    return np.array(list(map(codes.get, names, repeat(len(codes)))), np.intp)


@dataclass(frozen=True)
class CodedStructures:
    """A program's structures in name order, as codes over a vocabulary (see
    :func:`structure_codes`): the j-th, ``names[j]``, has the code
    ``codes[j]`` and ``sizes[j]`` nodes, and ``symbols[j]`` tells whether it
    is a symbol (of one node). Codes run below ``width``: the vocabulary's,
    and the one code that the names it lacks share."""

    names: list[str]
    codes: np.ndarray
    sizes: np.ndarray
    symbols: np.ndarray
    width: int

    @classmethod
    def of(cls, sizes: Mapping[str, int], codes: Mapping[str, int]) -> "CodedStructures":
        """The structures of ``sizes``, which maps each to its node count,
        coded by ``codes``."""
        names = sorted(sizes)
        node_counts = np.fromiter(map(sizes.__getitem__, names), np.intp, len(names))
        return cls(names, structure_codes(names, codes), node_counts, node_counts == 1, len(codes) + 1)

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
    demo_sets, gold = [set(names) for names in demo_sets], {name: ls_size(name) for name in gold}
    vocab = set(gold).union(*demo_sets)
    codes = dict(zip(vocab, range(len(vocab))))
    return codes, [structure_codes(s, codes) for s in demo_sets], CodedStructures.of(gold, codes)
