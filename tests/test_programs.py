from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoselect import (
    DialectConfig,
    ParseError,
    anonymize,
    parse_program,
    render,
    repair_parentheses,
    to_template,
)
from demoselect.programs import (
    MAX_DEPTH,
    ROOT_SYMBOL,
    VALUE_NUMBER,
    VALUE_STRING,
    scan_symbols,
)
from demoselect.structures import analyze

from helpers import random_program, random_texts, reference_token_scan_symbols

CALENDAR_PROGRAM = (
    'CreateEvent (AND (has_subject ("Work on Project"), '
    'starts_at (NextDOW ("Friday"))))'
)


def test_parse_nested_program_structure():
    ast = parse_program(CALENDAR_PROGRAM)
    assert ast.root.symbol == ROOT_SYMBOL
    assert len(ast.root.children) == 1
    top = ast.top
    assert top.symbol == "CreateEvent"
    (and_node,) = top.children
    assert and_node.symbol == "AND"
    has_subject, starts_at = and_node.children
    assert has_subject.symbol == "has_subject"
    assert has_subject.children[0].symbol == "Work on Project"
    assert has_subject.children[0].kind == VALUE_STRING
    assert starts_at.symbol == "starts_at"
    assert starts_at.children[0].symbol == "NextDOW"
    assert starts_at.children[0].children[0].symbol == "Friday"


def test_parse_single_symbol():
    ast = parse_program("foo")
    assert ast.root.symbol == ROOT_SYMBOL
    assert ast.top.symbol == "foo"
    assert ast.top.children == []


def test_parse_chain_program_symbol_count():
    ast = parse_program('answer (state (traverse_1 (riverid ("mississippi"))))')
    assert ast.symbol_sequence() == [
        "answer",
        "state",
        "traverse_1",
        "riverid",
        "mississippi",
    ]


def test_preorder_matches_token_order():
    ast = parse_program('f (a, g (3, "b"), c)')
    assert ast.symbol_sequence() == ["f", "a", "g", "3", "b", "c"]


def test_number_literals_are_values():
    ast = parse_program("f (3, -2.5, 1e3, x2)")
    kinds = [c.kind for c in ast.top.children]
    assert kinds == [VALUE_NUMBER, VALUE_NUMBER, VALUE_NUMBER, "function"]


def test_juxtaposition_nests_right_term():
    ast = parse_program("recipient= refer (Recipient? (name= David))")
    assert ast.symbol_sequence() == ["recipient=", "refer", "Recipient?", "name=", "David"]
    top = ast.top
    assert top.symbol == "recipient="
    assert top.children[0].symbol == "refer"


def test_value_parent_dialect_reads_whole_span():
    dialect = DialectConfig(value_parents=frozenset({"LIKE"}))
    ast = parse_program(
        "CreateEvent (with_attendee (name= LIKE (David Lax)))", dialect
    )
    like = ast.top.children[0].children[0].children[0]
    assert like.symbol == "LIKE"
    assert like.children[0].symbol == "David Lax"
    assert like.children[0].kind == VALUE_STRING


@pytest.mark.parametrize(
    "text",
    ["f (g (h)", "f (g))", "f ()", "f (a,)", "f (a,,b)", '"unterminated', "", "   "],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_program(text)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_program("f (g))")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_program("f (g (h)")
    assert err.value.position == len("f (g (h)")


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError):
        parse_program("f (a) b")


def test_anonymize_calendar_program():
    ast = parse_program(CALENDAR_PROGRAM)
    assert (
        render(anonymize(ast))
        == "CreateEvent (AND (has_subject (string), starts_at (NextDOW (string))))"
    )


def test_anonymize_without_values_is_identity():
    ast = parse_program("f (g (h), i)")
    assert render(anonymize(ast)) == "f (g (h), i)"


def test_anonymize_mixed_values():
    ast = parse_program('f (3, "a", g ("b"))')
    assert render(anonymize(ast)) == "f (number, string, g (string))"


def test_anonymize_idempotent():
    rng = random.Random(11)
    for _ in range(100):
        ast = parse_program(random_program(rng))
        once = anonymize(ast)
        twice = anonymize(once)
        assert render(once) == render(twice)


def test_template_ignores_literal_values():
    left = parse_program('answer (state (traverse_1 (riverid ("mississippi"))))')
    right = parse_program('answer (state (traverse_1 (riverid ("colorado"))))')
    assert to_template(left) == to_template(right)


def test_template_distinguishes_symbols():
    assert to_template(parse_program("f (g)")) != to_template(parse_program("f (h)"))


def test_template_stable_under_literal_replacement():
    rng = random.Random(23)
    checked = 0
    while checked < 50:
        ast = parse_program(random_program(rng))
        values = [n for n in ast.iter_nodes() if n.kind == VALUE_STRING]
        if not values:
            continue
        mutated = copy.deepcopy(ast)
        for node in mutated.iter_nodes():
            if node.kind == VALUE_STRING:
                node.symbol = "swapped literal"
        assert to_template(ast) == to_template(mutated)
        checked += 1


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS)
def test_round_trip_parse_render_parse(seed):
    # random_program writes canonical text, so rendering its tree gives it back
    text = random_program(random.Random(seed))
    ast = parse_program(text)
    assert render(ast) == text
    assert parse_program(render(ast)).root == ast.root
    template = to_template(ast).text
    assert to_template(parse_program(template)).text == template


def test_repair_appends_missing_close():
    result = repair_parentheses("f (g (h)")
    assert result.text == "f (g (h))"
    assert result.status == "repaired"


def test_repair_strips_redundant_close():
    result = repair_parentheses("f (g))")
    assert result.text == "f (g)"
    assert result.status == "repaired"


def test_repair_leaves_balanced_text_alone():
    result = repair_parentheses("f (g)")
    assert result.text == "f (g)"
    assert result.status == "balanced"


def test_repair_flags_interior_imbalance():
    result = repair_parentheses("f )( g")
    assert result.text == "f )( g"
    assert result.status == "unrepairable"
    with pytest.raises(ParseError):
        parse_program(result.text)


def test_repaired_output_always_parses():
    rng = random.Random(3)
    for _ in range(200):
        text = random_program(rng)
        roll = rng.random()
        if roll < 0.4:
            text = text.rstrip(")")
        elif roll < 0.7:
            text += ")" * rng.randint(1, 2)
        result = repair_parentheses(text)
        if result.ok:
            parse_program(result.text)


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, change=st.integers(-3, 3))
def test_repair_restores_trailing_closers(seed, change):
    text = random_program(random.Random(seed))
    change = max(change, len(text.rstrip(")")) - len(text))
    broken = text[: len(text) + change] if change < 0 else text + ")" * change
    result = repair_parentheses(broken)
    assert result.text == text
    assert result.status == ("balanced" if change == 0 else "repaired")
    assert render(result.ast) == text


@settings(max_examples=500, deadline=None)
@given(text=random_texts())
def test_repair_has_a_tree_exactly_when_repairable(text):
    result = repair_parentheses(text)
    assert (result.ast is None) == (result.status == "unrepairable")
    if result.ast is not None:
        assert result.ast.source_text == result.text
        assert result.ast.root == parse_program(result.text).root


@settings(max_examples=500, deadline=None)
@given(text=random_texts())
def test_scan_symbols_equals_the_reference_scan(text):
    assert scan_symbols(text) == reference_token_scan_symbols(text)



def _depth(node) -> int:
    """The levels of a tree below ``node``, counting ``node``."""
    levels, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        levels = max(levels, level)
        stack.extend((child, level + 1) for child in node.children)
    return levels


# A program n levels deep: by parentheses, by juxtaposition, and with its
# deepest level an unquoted value span.
DEEP_SHAPES = {
    "nested": lambda n: "f (" * (n - 1) + "a" + ")" * (n - 1),
    "chain": lambda n: " ".join(["f"] * (n - 1) + ["a"]),
    "value-span": lambda n: "f (" * (n - 2) + "LIKE (David Lax)" + ")" * (n - 2),
}
LIKE = DialectConfig(value_parents=frozenset({"LIKE"}))


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_parse_refuses_a_tree_past_the_depth_bound(shape):
    assert MAX_DEPTH >= 256
    ast = parse_program(DEEP_SHAPES[shape](MAX_DEPTH), LIKE)
    assert _depth(ast.top) == MAX_DEPTH
    # anonymizing and graphing walk the tree recursively, and stay inside the stack
    assert analyze(ast, max_size=2)[1]
    for depth in (MAX_DEPTH + 1, 4 * MAX_DEPTH):
        text = DEEP_SHAPES[shape](depth)
        with pytest.raises(ParseError, match=f"program nests deeper than {MAX_DEPTH} levels"):
            parse_program(text, LIKE)
        assert repair_parentheses(text, LIKE).status == "unrepairable"
