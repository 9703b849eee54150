from __future__ import annotations

import dataclasses
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
    FUNCTION,
    MAX_DEPTH,
    ROOT_SYMBOL,
    VALUE_NUMBER,
    VALUE_STRING,
    scan_symbols,
)
from demoselect.structures import build_structure_graph, count_local_structures

from helpers import random_program, random_texts, reference_token_scan_symbols, walk_tuple

CALENDAR_PROGRAM = (
    'CreateEvent (AND (has_subject ("Work on Project"), '
    'starts_at (NextDOW ("Friday"))))'
)


def test_parse_nested_program_structure():
    walk = parse_program(CALENDAR_PROGRAM)
    assert walk_tuple(walk) == (ROOT_SYMBOL, FUNCTION, [
        ("CreateEvent", FUNCTION, [
            ("AND", FUNCTION, [
                ("has_subject", FUNCTION, [("Work on Project", VALUE_STRING, [])]),
                ("starts_at", FUNCTION, [("NextDOW", FUNCTION, [("Friday", VALUE_STRING, [])])]),
            ]),
        ]),
    ])


def test_parse_single_symbol():
    walk = parse_program("foo")
    assert walk_tuple(walk) == (ROOT_SYMBOL, FUNCTION, [("foo", FUNCTION, [])])


def test_parse_chain_program_symbol_count():
    walk = parse_program('answer (state (traverse_1 (riverid ("mississippi"))))')
    assert walk.values[1:] == [
        "answer",
        "state",
        "traverse_1",
        "riverid",
        "mississippi",
    ]


def test_preorder_matches_token_order():
    walk = parse_program('f (a, g (3, "b"), c)')
    assert walk.values[1:] == ["f", "a", "g", "3", "b", "c"]


def test_number_literals_are_values():
    walk = parse_program("f (3, -2.5, 1e3, x2)")
    kinds = [kind for _, kind, _ in walk_tuple(walk)[2][0][2]]
    assert kinds == [VALUE_NUMBER, VALUE_NUMBER, VALUE_NUMBER, "function"]


def test_juxtaposition_nests_right_term():
    walk = parse_program("recipient= refer (Recipient? (name= David))")
    assert walk.values[1:] == ["recipient=", "refer", "Recipient?", "name=", "David"]
    (top,) = walk_tuple(walk)[2]
    assert top[0] == "recipient="
    assert top[2][0][0] == "refer"


def test_value_parent_dialect_reads_whole_span():
    dialect = DialectConfig(value_parents=frozenset({"LIKE"}))
    walk = parse_program(
        "CreateEvent (with_attendee (name= LIKE (David Lax)))", dialect
    )
    like = ("LIKE", FUNCTION, [("David Lax", VALUE_STRING, [])])
    name = ("name=", FUNCTION, [like])
    top = ("CreateEvent", FUNCTION, [("with_attendee", FUNCTION, [name])])
    assert walk_tuple(walk) == (ROOT_SYMBOL, FUNCTION, [top])


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
    walk = parse_program(CALENDAR_PROGRAM)
    assert (
        render(anonymize(walk))
        == "CreateEvent (AND (has_subject (string), starts_at (NextDOW (string))))"
    )


def test_anonymize_without_values_is_identity():
    walk = parse_program("f (g (h), i)")
    assert render(anonymize(walk)) == "f (g (h), i)"


def test_anonymize_mixed_values():
    walk = parse_program('f (3, "a", g ("b"))')
    assert render(anonymize(walk)) == "f (number, string, g (string))"


def test_anonymize_idempotent():
    rng = random.Random(11)
    for _ in range(100):
        once = anonymize(parse_program(random_program(rng)))
        twice = anonymize(once)
        assert walk_tuple(once) == walk_tuple(twice)
        assert render(once) == render(twice)


def test_template_ignores_literal_values():
    left = parse_program('answer (state (traverse_1 (riverid ("mississippi"))))')
    right = parse_program('answer (state (traverse_1 (riverid ("colorado"))))')
    assert to_template(left) == to_template(right)


def test_template_distinguishes_symbols():
    assert to_template(parse_program("f (g)")) != to_template(parse_program("f (h)"))


def test_template_stable_under_literal_replacement():
    # replace the string values, write the program out and read it again
    rng = random.Random(23)
    checked = 0
    while checked < 50:
        walk = parse_program(random_program(rng))
        if VALUE_STRING not in walk.kinds:
            continue
        values = [
            "swapped literal" if kind == VALUE_STRING else value
            for kind, value in zip(walk.kinds, walk.values)
        ]
        mutated = parse_program(render(dataclasses.replace(walk, values=values)))
        assert mutated.values == values
        assert to_template(walk) == to_template(mutated)
        checked += 1


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS)
def test_round_trip_parse_render_parse(seed):
    # random_program writes canonical text, so rendering its tree gives it back
    text = random_program(random.Random(seed))
    walk = parse_program(text)
    assert render(walk) == text
    assert walk_tuple(parse_program(render(walk))) == walk_tuple(walk)
    template = to_template(walk).text
    assert to_template(parse_program(template)).text == template


# A string value is written in the quotes it does not hold.
QUOTED = ["f ('a\"b')", 'f ("it\'s", \'say "hi"\')', "name= LIKE ('a\"b' c)"]


@pytest.mark.parametrize("text", QUOTED)
def test_render_quotes_a_string_by_the_quote_it_lacks(text):
    dialect = DialectConfig(value_parents=frozenset({"LIKE"}))
    walk = parse_program(text, dialect)
    assert walk_tuple(parse_program(render(walk), dialect)) == walk_tuple(walk)


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
    assert render(result.walk) == text


@settings(max_examples=500, deadline=None)
@given(text=random_texts())
def test_repair_has_a_tree_exactly_when_repairable(text):
    result = repair_parentheses(text)
    assert (result.walk is None) == (result.status == "unrepairable")
    if result.walk is not None:
        assert result.walk.text == result.text
        assert walk_tuple(result.walk) == walk_tuple(parse_program(result.text))


@settings(max_examples=500, deadline=None)
@given(text=random_texts())
def test_scan_symbols_equals_the_reference_scan(text):
    assert scan_symbols(text) == reference_token_scan_symbols(text)



def _depth(walk) -> int:
    """The levels of a walk below its root."""
    depths = [0]
    for parent in walk.parents[1:]:
        depths.append(depths[parent] + 1)
    return max(depths)


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
    walk = parse_program(DEEP_SHAPES[shape](MAX_DEPTH), LIKE)
    assert _depth(walk) == MAX_DEPTH
    # rendering recurses, and stays inside the stack
    assert walk_tuple(parse_program(render(walk), LIKE)) == walk_tuple(walk)
    assert count_local_structures(build_structure_graph(anonymize(walk)), max_size=2)
    for depth in (MAX_DEPTH + 1, 4 * MAX_DEPTH):
        text = DEEP_SHAPES[shape](depth)
        with pytest.raises(ParseError, match=f"program nests deeper than {MAX_DEPTH} levels"):
            parse_program(text, LIKE)
        assert repair_parentheses(text, LIKE).status == "unrepairable"
