from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoselect import (
    DialectConfig,
    ParseError,
    anonymize,
    build_structure_graph,
    count_local_structures,
    enumerate_local_structures,
    ls_size,
    parse_program,
)
from demoselect.programs import DEFAULT_DIALECT, read_program
from demoselect.structures import analyze, program_structures, read_structures

from helpers import (
    brute_force_fragments,
    brute_force_local_structure_counts,
    brute_force_local_structures,
    node_count,
    random_program,
    random_texts,
    reference_parse,
    tree_tuple,
)

CALENDAR_PROGRAM = (
    'CreateEvent (AND (has_subject ("Work on Project"), '
    'starts_at (NextDOW ("Friday"))))'
)

SIZE_1 = {"CreateEvent", "AND", "has_subject", "string", "starts_at", "NextDOW"}
SIZE_2 = {
    "<root> -> CreateEvent",
    "CreateEvent -> AND",
    "AND -> has_subject",
    "AND -> starts_at",
    "has_subject <-> starts_at",
    "has_subject -> string",
    "starts_at -> NextDOW",
    "NextDOW -> string",
}
SIZE_3 = {
    "<root> -> CreateEvent -> AND",
    "CreateEvent -> AND -> has_subject",
    "CreateEvent -> AND -> starts_at",
    "AND -> has_subject <-> starts_at",
    "AND -> has_subject -> string",
    "AND -> starts_at -> NextDOW",
    "starts_at -> NextDOW -> string",
}
SIZE_6 = {"<root> -> CreateEvent -> AND -> starts_at -> NextDOW -> string"}


def calendar_graph():
    return build_structure_graph(anonymize(parse_program(CALENDAR_PROGRAM)))


def by_size(structures, size):
    return {ls.canonical for ls in structures if ls.size == size}


def test_graph_shape_of_calendar_program():
    graph = calendar_graph()
    assert graph.node_count == 8  # 7 program symbols plus the root marker
    assert len(graph.tree_edges) == 7
    assert len(graph.sibling_edges) == 1
    a, b = graph.sibling_edges[0]
    assert {graph.symbols[a], graph.symbols[b]} == {"has_subject", "starts_at"}


def test_sibling_edges_consecutive_only():
    graph = build_structure_graph(parse_program("f (a, b, c)"))
    pairs = {(graph.symbols[a], graph.symbols[b]) for a, b in graph.sibling_edges}
    assert pairs == {("a", "b"), ("b", "c")}


def test_sibling_edge_count_formula():
    rng = random.Random(5)
    for _ in range(50):
        ast = parse_program(random_program(rng))
        graph = build_structure_graph(ast)
        expected = sum(max(0, len(kids) - 1) for kids in graph.children)
        assert len(graph.sibling_edges) == expected
        assert graph.node_count == node_count(ast) + 1


def test_calendar_structures_match_published_table():
    structures = enumerate_local_structures(calendar_graph())
    assert by_size(structures, 1) == SIZE_1
    assert by_size(structures, 2) == SIZE_2
    assert by_size(structures, 3) == SIZE_3
    assert by_size(structures, 6) == SIZE_6
    assert len(structures) == 32


def test_calendar_structure_counts_by_size():
    structures = enumerate_local_structures(calendar_graph())
    sizes = sorted({ls.size for ls in structures})
    assert sizes == [1, 2, 3, 4, 5, 6]
    assert [len(by_size(structures, s)) for s in sizes] == [6, 8, 7, 6, 4, 1]


def test_calendar_total_agrees_with_brute_force():
    graph = calendar_graph()
    expected = brute_force_local_structures(graph)
    got = {ls.canonical for ls in enumerate_local_structures(graph)}
    assert got == expected


def test_single_symbol_program():
    graph = build_structure_graph(parse_program("foo"))
    structures = enumerate_local_structures(graph)
    assert {ls.canonical for ls in structures} == {"foo", "<root> -> foo"}


def test_max_size_monotone():
    rng = random.Random(9)
    for _ in range(30):
        graph = build_structure_graph(
            anonymize(parse_program(random_program(rng)))
        )
        for ls in enumerate_local_structures(graph):
            assert ls_size(ls.canonical) == ls.size
        previous = set()
        for depth in range(1, graph.node_count + 1):
            current = {
                ls.canonical for ls in enumerate_local_structures(graph, depth)
            }
            assert previous <= current
            previous = current
        assert current == {
            ls.canonical for ls in enumerate_local_structures(graph)
        }


def test_size_two_structures_are_graph_edges():
    rng = random.Random(13)
    for _ in range(30):
        graph = build_structure_graph(
            anonymize(parse_program(random_program(rng)))
        )
        structures = enumerate_local_structures(graph, 2)
        got = {ls.canonical for ls in structures if ls.size == 2}
        expected = {
            f"{graph.symbols[p]} -> {graph.symbols[c]}"
            for p, c in graph.tree_edges
        } | {
            f"{graph.symbols[a]} <-> {graph.symbols[b]}"
            for a, b in graph.sibling_edges
        }
        assert got == expected


def test_fast_enumeration_matches_brute_force_on_random_programs():
    rng = random.Random(42)
    for _ in range(60):
        graph = build_structure_graph(
            anonymize(parse_program(random_program(rng, max_nodes=9)))
        )
        expected = brute_force_local_structures(graph)
        got = {ls.canonical for ls in enumerate_local_structures(graph)}
        assert got == expected


def test_occurrence_counts():
    counts = count_local_structures(calendar_graph())
    assert counts["string"] == 2
    assert counts["CreateEvent"] == 1
    assert counts["has_subject <-> starts_at"] == 1
    assert sum(counts.values()) > len(counts)  # repeated labels collapse


def test_ls_size_helper():
    assert ls_size("string") == 1
    assert ls_size("a -> b") == 2
    assert ls_size("a -> b <-> c") == 3
    assert ls_size("<root> -> CreateEvent -> AND -> starts_at -> NextDOW -> string") == 6


VALUE_PARENTS = DialectConfig(value_parents=frozenset({"g", "scan", "LIKE"}))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dialect=st.sampled_from([DEFAULT_DIALECT, VALUE_PARENTS]),
)
def test_ls_size_is_the_node_count_of_the_brute_force_subset(seed, dialect):
    program = random_program(random.Random(seed), max_nodes=9)
    graph = build_structure_graph(anonymize(parse_program(program, dialect)))
    for canonical, size in brute_force_fragments(graph):
        assert ls_size(canonical) == size, canonical


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_size=st.sampled_from([None, 1, 2, 3, 4, 5]),
)
def test_occurrence_counts_equal_brute_force(seed, max_size):
    # Counts feed ls_counts, the index file, the symbol BM25 and the DPP
    # tf-idf: every canonical must count its valid node subsets exactly.
    graph = build_structure_graph(
        anonymize(parse_program(random_program(random.Random(seed))))
    )
    expected = brute_force_local_structure_counts(graph, max_size)
    assert count_local_structures(graph, max_size) == expected


def test_program_structures_of_single_program():
    graph = calendar_graph()
    counts = program_structures(CALENDAR_PROGRAM)
    assert counts == count_local_structures(graph)
    assert set(counts) == {ls.canonical for ls in enumerate_local_structures(graph)}


def test_program_structures_equal_for_identical_beams():
    # Beams that anonymize to the same tree have the same structures.
    assert program_structures("f (g)") == program_structures("f (g)")
    assert program_structures('f (g ("x"), 3)') == program_structures('f (g ("y"), 17)')


def test_program_structures_of_distinct_beams_combine():
    union = set(program_structures("f (g)")) | set(program_structures("f (h)"))
    assert "f -> g" in union
    assert "f -> h" in union


VALUE_PARENTS = DialectConfig(value_parents=frozenset({"g", "scan", "LIKE"}))


def _assert_walk_equals_the_tree_path(text, dialect):
    # one walk from text gives the template, the counts and the sizes that
    # graphing the tree gives; the tree and the errors are the first parser's
    try:
        expected = reference_parse(text, dialect.value_parents)
    except ParseError as exc:
        for read in (read_program, read_structures, parse_program, program_structures):
            with pytest.raises(ParseError) as caught:
                read(text, dialect)
            assert (str(caught.value), caught.value.position) == (str(exc), exc.position)
        return
    walk = read_program(text, dialect)
    ast = parse_program(text, dialect)
    assert tree_tuple(ast.root) == tree_tuple(walk.tree().root) == expected
    template, counts = analyze(ast)
    structures = read_structures(text, dialect)
    assert structures.template == walk.template == template
    assert structures.counts == counts == program_structures(text, dialect)
    assert list(structures.counts) == list(structures.sizes) == sorted(counts)
    assert structures.sizes == {name: ls_size(name) for name in counts}


@settings(max_examples=500, deadline=None)
@given(text=random_texts(), dialect=st.sampled_from([DEFAULT_DIALECT, VALUE_PARENTS]))
def test_the_walk_equals_the_tree_path_and_the_first_parser(text, dialect):
    _assert_walk_equals_the_tree_path(text, dialect)


# text at each of the grammar's faults, quoted tokens among them, and the
# value spans and juxtapositions it reads
FAULTS = [
    'f (3 "x")', '"a" "b"', "f ('a' b)", "3 x", "'it''s'", "f (,)", "f ()", "f (a,)", ",",
    ")", "f (a) )", "f (a", 'f "x', "f (g h, 'k' (l))", 'name= LIKE ("a b", c)',
    'g (a "b" (c), d)', "g ()", "g (a", "scan (x) y",
]


@pytest.mark.parametrize("text", FAULTS)
@pytest.mark.parametrize("dialect", [DEFAULT_DIALECT, VALUE_PARENTS])
def test_the_walk_meets_each_fault_as_the_first_parser(text, dialect):
    _assert_walk_equals_the_tree_path(text, dialect)
