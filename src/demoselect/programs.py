"""Reading, anonymization, templating and repair of functional programs.

Programs use a compact call notation: a symbol optionally followed by a
parenthesized, comma-separated argument list, e.g.::

    CreateEvent (AND (has_subject ("Work on Project"), starts_at (NextDOW ("Friday"))))

Double- or single-quoted segments are string values and bare numerals are
numeric values; every other token is a function/operator symbol. Two adjacent
terms without a comma ("juxtaposition", as in ``recipient= refer (...)``)
nest the right term as the single argument of the left one.

A program always has a synthetic ``<root>`` node above its top symbol so
that the top symbol participates in edges like any other.

Program text is read by one tokenizer (one regular expression) and one
grammar, in one walk over the tokens (:func:`read_program`): it emits the
nodes in pre-order as arrays, the anonymized symbols, each node's parent and
children, and the template, and builds no tree. The local structures are
enumerated from those arrays (:mod:`demoselect.structures`). Only a caller
that needs a tree builds one from the walk: :func:`parse_program`, and so
:func:`render`, :func:`anonymize` and :func:`to_template` over its result.

Possibly malformed text enters through :func:`repair_parentheses`, which
returns the walk of the text it settled on; text beyond repair still has the
symbols of :func:`scan_symbols`, which reads the same tokenizer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NoReturn

from .errors import ParseError

ROOT_SYMBOL = "<root>"
STRING_CONST = "string"
NUMBER_CONST = "number"

FUNCTION = "function"
VALUE_STRING = "value-string"
VALUE_NUMBER = "value-number"

# The most levels below its synthetic root that a program tree may have, by
# parentheses or juxtaposition: recursive tree walks stay inside Python's stack.
MAX_DEPTH = 256
_TOO_DEEP = f"program nests deeper than {MAX_DEPTH} levels"

_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?\Z")
_QUOTES = "\"'"


@dataclass(frozen=True)
class DialectConfig:
    """Per-dataset parsing knobs.

    ``value_parents`` lists symbols whose whole argument span is read as one
    unquoted string value (e.g. person names under ``LIKE``).
    """

    value_parents: frozenset[str] = frozenset()

    def to_dict(self) -> dict:
        return {"value_parents": sorted(self.value_parents)}

    @classmethod
    def from_dict(cls, data: dict) -> "DialectConfig":
        """The dialect :meth:`to_dict` gave; raises TypeError unless
        ``value_parents`` is a list of strings."""
        parents = data["value_parents"]
        if not (isinstance(parents, list) and all(isinstance(p, str) for p in parents)):
            raise TypeError(f"malformed dialect {data!r}")
        return cls(value_parents=frozenset(parents))


DEFAULT_DIALECT = DialectConfig()


@dataclass
class AstNode:
    symbol: str
    kind: str = FUNCTION
    children: list["AstNode"] = field(default_factory=list)


@dataclass
class ProgramAst:
    root: AstNode
    source_text: str

    @property
    def top(self) -> AstNode:
        return self.root.children[0]

    def iter_nodes(self, include_root: bool = False):
        """Pre-order walk of the tree."""
        stack = [self.root] if include_root else [self.top]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def symbol_sequence(self) -> list[str]:
        """Pre-order program symbols, excluding the synthetic root."""
        return [n.symbol for n in self.iter_nodes()]


@dataclass(frozen=True)
class Template:
    """Rendered anonymized program; equal templates mean structural duplicates."""

    text: str


# --- tokenizing ---------------------------------------------------------

# One token a match, in text order: a delimiter, a quoted string, an atom (a
# run of characters that are neither whitespace, delimiters nor quotes), or a
# quote that no later quote of its kind closes. Whitespace matches nothing.
_TOKEN_RE = re.compile(r"""[(),]|"[^"]*"|'[^']*'|[^\s(),"']+|["']""")
_DELIMITERS = frozenset("(),")


def _is_open_quote(token: str) -> bool:
    """Whether ``token`` is a quote that nothing closes."""
    return len(token) == 1 and token in _QUOTES


def _token_text(token: str) -> str:
    """A token as the grammar reads it: a quoted string without its quotes."""
    return token[1:-1] if token[0] in _QUOTES else token


def scan_symbols(text: str) -> set[str]:
    """Anonymized symbols of text that need not parse: every atom
    (``number`` for a numeral) and ``string`` for every quoted segment; an
    unterminated quote reads as one string to the end of the text."""
    symbols = set()
    for token in _TOKEN_RE.findall(text):
        if token[0] in _QUOTES:
            symbols.add(STRING_CONST)
            if _is_open_quote(token):
                break
        elif token not in _DELIMITERS:
            symbols.add(NUMBER_CONST if _NUMBER_RE.match(token) else token)
    return symbols


def paren_balance(text: str) -> tuple[int, int, int | None]:
    """Quote-aware paren counts: the parenthesis tokens before an
    unterminated quote, which quotes the rest of the text.

    Returns (opens, closes, position of first excess close or None).
    """
    opens = closes = 0
    violation = None
    for match in _TOKEN_RE.finditer(text):
        token = match[0]
        if token == "(":
            opens += 1
        elif token == ")":
            closes += 1
            if closes > opens and violation is None:
                violation = match.start()
        elif _is_open_quote(token):
            break
    return opens, closes, violation


def parens_balanced(text: str) -> bool:
    opens, closes, violation = paren_balance(text)
    return opens == closes and violation is None


# --- reading -------------------------------------------------------------


@dataclass(frozen=True)
class ProgramWalk:
    """A program read in one walk over its tokens: its nodes in pre-order,
    node 0 the synthetic root. Node ``i`` has the kind ``kinds[i]``, the
    symbol ``values[i]`` as written (a string's text, a numeral), the
    anonymized symbol ``symbols[i]``, the parent ``parents[i]`` (None for the
    root) and the children ``children[i]``, in order. ``template`` is the
    anonymized program's text, as :func:`render` writes it."""

    text: str
    kinds: list[str]
    values: list[str]
    symbols: list[str]
    parents: list[int | None]
    children: list[list[int]]
    template: str

    def tree(self) -> ProgramAst:
        """The program as a tree of :class:`AstNode`."""
        nodes = [AstNode(value, kind) for value, kind in zip(self.values, self.kinds)]
        for node, parent in zip(nodes[1:], self.parents[1:]):
            nodes[parent].children.append(node)
        return ProgramAst(root=nodes[0], source_text=self.text)


class _Fault(Exception):
    """The grammar's first fault: ``message`` at token ``index``, or at the
    end of the text if ``index`` is the token count."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


def read_program(text: str, dialect: DialectConfig = DEFAULT_DIALECT) -> ProgramWalk:
    """Read program text in one walk over its tokens (see :class:`ProgramWalk`).

    Text that is no program raises :class:`ParseError` for the first of:
    empty text, an excess closing parenthesis, missing closing parentheses,
    an unterminated quote, the grammar's first fault. A tree deeper than
    :data:`MAX_DEPTH` is a fault. The walk runs first; the checks before it
    run only when it fails or meets a quote that nothing closes.
    """
    if not text or text.isspace():
        raise ParseError("empty program text", position=0)
    tokens = _TOKEN_RE.findall(text)
    try:
        walk = _walk(tokens, dialect.value_parents)
    except _Fault as fault:
        _raise_first_fault(text, tokens, fault)
    if '"' in tokens or "'" in tokens:
        _raise_first_fault(text, tokens, None)
    return ProgramWalk(text, *walk)


def _raise_first_fault(text: str, tokens: list[str], fault: _Fault | None) -> NoReturn:
    """Raise the ParseError of the first fault of ``text``: a parenthesis
    out of balance, an unterminated quote, then ``fault``."""
    opens, closes, violation = paren_balance(text)
    if violation is not None:
        raise ParseError("unbalanced closing parenthesis", position=violation)
    if opens > closes:
        raise ParseError(f"missing {opens - closes} closing parenthesis(es)", position=len(text))
    starts = [match.start() for match in _TOKEN_RE.finditer(text)] + [len(text)]
    quote = next((i for i, token in enumerate(tokens) if _is_open_quote(token)), None)
    if quote is not None:
        raise ParseError("unterminated quote", position=starts[quote])
    raise ParseError(fault.message, position=starts[fault.index])


def _walk(tokens: list[str], value_parents: frozenset[str]) -> tuple:
    """The grammar, in one pass over ``tokens``: the fields of a
    :class:`ProgramWalk` after its text, or a :class:`_Fault`.

    A term is a quoted string, a numeral, or a symbol; a symbol followed by
    ``(`` takes the comma-separated terms up to its ``)`` as arguments, or,
    if it is one of ``value_parents``, that whole span as one string value.
    A bare symbol followed by another term takes that term as its single
    argument (juxtaposition: ``name= LIKE (...)`` nests LIKE under name=).
    """
    kinds, values, symbols = [FUNCTION], [ROOT_SYMBOL], [ROOT_SYMBOL]
    parents: list[int | None] = [None]
    children: list[list[int]] = [[]]
    template: list[str] = []

    def add(parent: int, kind: str, value: str, symbol: str) -> int:
        node = len(symbols)
        children[parent].append(node)
        children.append([])
        parents.append(parent)
        kinds.append(kind)
        values.append(value)
        symbols.append(symbol)
        template.append(symbol)
        return node

    # the nodes whose terms are open: (node, the depth of its arguments), or
    # (node, None) for a symbol taking a juxtaposed term
    frames: list[tuple[int, int | None]] = []
    end = len(tokens)
    pos, parent, depth = 0, 0, 1  # the top symbol is at depth 1
    while True:
        # a term: the next child of parent, depth levels below the root
        if pos == end:
            raise _Fault("unexpected end of input", end)
        token = tokens[pos]
        if depth > MAX_DEPTH:
            raise _Fault(_TOO_DEEP, pos)
        first = token[0]
        if first in _DELIMITERS:
            raise _Fault(f"unexpected token {token!r}", pos)
        pos += 1
        if first in _QUOTES:
            add(parent, VALUE_STRING, token[1:-1], STRING_CONST)
        elif _NUMBER_RE.match(token):
            add(parent, VALUE_NUMBER, token, NUMBER_CONST)
        else:
            node = add(parent, FUNCTION, token, token)
            following = tokens[pos] if pos < end else ""
            if following == "(" and token in value_parents:
                if depth == MAX_DEPTH:  # its value would be one level deeper
                    raise _Fault(_TOO_DEEP, pos)
                value, pos = _value_span(tokens, pos)
                template.append(" (")
                add(node, VALUE_STRING, value, STRING_CONST)
                template.append(")")
            elif following == "(":
                pos = _argument_start(tokens, pos + 1)
                frames.append((node, depth + 1))
                parent, depth = node, depth + 1
                template.append(" (")
                continue
            elif following and following not in _DELIMITERS:
                frames.append((node, None))
                parent, depth = node, depth + 1
                template.append(" (")
                continue
        # the term is complete: close what it completes, up to the next argument
        while True:
            if not frames:
                if pos != end:
                    raise _Fault(f"unexpected trailing token {_token_text(tokens[pos])!r}", pos)
                return kinds, values, symbols, parents, children, "".join(template)
            owner, argument_depth = frames[-1]
            if argument_depth is None:  # a juxtaposed term: its only argument
                frames.pop()
                template.append(")")
                continue
            if pos == end:
                raise _Fault("missing closing parenthesis", end)
            token = tokens[pos]
            if token == ",":
                pos = _argument_start(tokens, pos + 1)
                parent, depth = owner, argument_depth
                template.append(", ")
                break
            if token != ")":
                raise _Fault(f"expected ',' or ')', found {_token_text(token)!r}", pos)
            pos += 1
            frames.pop()
            template.append(")")


def _argument_start(tokens: list[str], pos: int) -> int:
    """``pos``, where an argument must start."""
    if pos == len(tokens):
        raise _Fault("missing closing parenthesis", pos)
    if tokens[pos] in (",", ")"):
        raise _Fault("empty argument slot", pos)
    return pos


def _value_span(tokens: list[str], pos: int) -> tuple[str, int]:
    """Read the parenthesized span that opens at ``pos`` as one string
    value: the value and the position after the span."""
    start, level, parts = pos, 1, []
    for pos in range(pos + 1, len(tokens)):
        token = tokens[pos]
        if token == "(":
            level += 1
        elif token == ")":
            level -= 1
            if level == 0:
                if not parts:
                    raise _Fault("empty argument list", pos)
                return " ".join(parts), pos + 1
        parts.append(_token_text(token))
    raise _Fault("missing closing parenthesis", start)


def parse_program(text: str, dialect: DialectConfig = DEFAULT_DIALECT) -> ProgramAst:
    """Parse program text into a tree rooted at the synthetic root marker
    (:func:`read_program`, as a tree); a tree deeper than :data:`MAX_DEPTH`
    is a :class:`ParseError`."""
    return read_program(text, dialect).tree()


# --- rendering and anonymization ----------------------------------------


def _render_node(node: AstNode) -> str:
    if node.kind == VALUE_STRING:
        core = f'"{node.symbol}"'
    else:
        core = node.symbol
    if not node.children:
        return core
    args = ", ".join(_render_node(c) for c in node.children)
    return f"{core} ({args})"


def render(ast: ProgramAst) -> str:
    """Canonical text: one space before '(', ', ' between siblings."""
    return _render_node(ast.top)


def anonymize(ast: ProgramAst) -> ProgramAst:
    """Replace every string value with ``string`` and numeric value with ``number``."""

    def walk(node: AstNode) -> AstNode:
        if node.kind == VALUE_STRING:
            return AstNode(STRING_CONST)
        if node.kind == VALUE_NUMBER:
            return AstNode(NUMBER_CONST)
        return AstNode(node.symbol, node.kind, [walk(c) for c in node.children])

    top = walk(ast.top)
    return ProgramAst(AstNode(ROOT_SYMBOL, FUNCTION, [top]), _render_node(top))


def to_template(ast: ProgramAst) -> Template:
    return Template(anonymize(ast).source_text)


# --- repair --------------------------------------------------------------


@dataclass(frozen=True)
class RepairResult:
    text: str
    status: str  # "balanced" | "repaired" | "unrepairable"
    walk: ProgramWalk | None = field(compare=False, repr=False)  # None if unrepairable

    @property
    def ok(self) -> bool:
        return self.status != "unrepairable"

    @property
    def repaired(self) -> bool:
        return self.status == "repaired"

    @cached_property
    def ast(self) -> ProgramAst | None:
        """The tree of :attr:`text`, built when first read; None if unrepairable."""
        return None if self.walk is None else self.walk.tree()


def repair_parentheses(
    text: str, dialect: DialectConfig = DEFAULT_DIALECT
) -> RepairResult:
    """Read text (:func:`read_program`), fixing close-paren imbalance at its
    end first.

    Missing closers are appended; surplus trailing closers are stripped;
    well-formed text is "balanced". The result holds the walk of the text it
    returns; text that still does not parse comes back unchanged,
    "unrepairable", with no walk.
    """
    opens, closes, _ = paren_balance(text)
    candidate = text + ")" * (opens - closes)
    for _ in range(closes - opens):
        candidate = candidate.rstrip()
        if not candidate.endswith(")"):
            return RepairResult(text=text, status="unrepairable", walk=None)
        candidate = candidate[:-1]
    try:
        walk = read_program(candidate, dialect)
    except ParseError:
        return RepairResult(text=text, status="unrepairable", walk=None)
    status = "balanced" if candidate == text else "repaired"
    return RepairResult(text=candidate, status=status, walk=walk)
