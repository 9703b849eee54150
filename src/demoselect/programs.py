"""Parsing, anonymization, templating and repair of functional programs.

Programs use a compact call notation: a symbol optionally followed by a
parenthesized, comma-separated argument list, e.g.::

    CreateEvent (AND (has_subject ("Work on Project"), starts_at (NextDOW ("Friday"))))

Double- or single-quoted segments are string values and bare numerals are
numeric values; every other token is a function/operator symbol. Two adjacent
terms without a comma ("juxtaposition", as in ``recipient= refer (...)``)
nest the right term as the single argument of the left one.

The parsed tree always has a synthetic ``<root>`` node above the program's
top symbol so that the top symbol participates in edges like any other.

Possibly malformed text enters through :func:`repair_parentheses`, which
returns the tree it parsed; text beyond repair still has the symbols of
:func:`scan_symbols`, which reads the parser's own tokenizer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()," :
            tokens.append((ch, ch, i))
            i += 1
        elif ch in _QUOTES:
            j = text.find(ch, i + 1)
            if j < 0:
                raise ParseError("unterminated quote", position=i)
            tokens.append(("string", text[i + 1 : j], i))
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "(),\"'":
                j += 1
            tokens.append(("atom", text[i:j], i))
            i = j
    return tokens


def scan_symbols(text: str) -> set[str]:
    """Anonymized symbols of text that need not parse: every atom
    (``number`` for a numeral) and ``string`` for every quoted segment; an
    unterminated quote reads as one string to the end of the text."""
    try:
        tokens, symbols = _tokenize(text), set()
    except ParseError as exc:
        tokens, symbols = _tokenize(text[: exc.position]), {STRING_CONST}
    for kind, token, _ in tokens:
        if kind == "string":
            symbols.add(STRING_CONST)
        elif kind == "atom":
            symbols.add(NUMBER_CONST if _NUMBER_RE.match(token) else token)
    return symbols


def paren_balance(text: str) -> tuple[int, int, int | None]:
    """Quote-aware paren counts.

    Returns (opens, closes, position of first excess close or None).
    """
    opens = closes = 0
    violation = None
    quote = None
    for i, ch in enumerate(text):
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in _QUOTES:
            quote = ch
        elif ch == "(":
            opens += 1
        elif ch == ")":
            closes += 1
            if closes > opens and violation is None:
                violation = i
    return opens, closes, violation


def parens_balanced(text: str) -> bool:
    opens, closes, violation = paren_balance(text)
    return opens == closes and violation is None


# --- parsing ------------------------------------------------------------


def parse_program(text: str, dialect: DialectConfig = DEFAULT_DIALECT) -> ProgramAst:
    """Parse program text into a tree rooted at the synthetic root marker; a
    tree deeper than :data:`MAX_DEPTH` is a :class:`ParseError`."""
    if not text or not text.strip():
        raise ParseError("empty program text", position=0)
    opens, closes, violation = paren_balance(text)
    if violation is not None:
        raise ParseError("unbalanced closing parenthesis", position=violation)
    if opens > closes:
        raise ParseError(
            f"missing {opens - closes} closing parenthesis(es)", position=len(text)
        )
    tokens = _tokenize(text)
    node, pos = _parse_expr(tokens, 0, dialect, text, 1)
    if pos != len(tokens):
        raise ParseError(
            f"unexpected trailing token {tokens[pos][1]!r}", position=tokens[pos][2]
        )
    root = AstNode(ROOT_SYMBOL, FUNCTION, [node])
    return ProgramAst(root=root, source_text=text)


def _parse_expr(tokens, pos, dialect, text, depth):
    node, pos = _parse_term(tokens, pos, dialect, text, depth)
    # Juxtaposition: a bare symbol directly followed by another term takes it
    # as its single argument (`name= LIKE (...)` nests LIKE under name=).
    if (
        pos < len(tokens)
        and tokens[pos][0] in ("atom", "string")
        and node.kind == FUNCTION
        and not node.children
    ):
        child, pos = _parse_expr(tokens, pos, dialect, text, depth + 1)
        node.children.append(child)
    return node, pos


def _parse_term(tokens, pos, dialect, text, depth):
    if pos >= len(tokens):
        raise ParseError("unexpected end of input", position=len(text))
    ttype, tok, tpos = tokens[pos]
    if depth > MAX_DEPTH:  # the top symbol is at depth 1
        raise ParseError(_TOO_DEEP, position=tpos)
    if ttype == "string":
        return AstNode(tok, VALUE_STRING), pos + 1
    if ttype != "atom":
        raise ParseError(f"unexpected token {tok!r}", position=tpos)
    pos += 1
    if _NUMBER_RE.match(tok):
        return AstNode(tok, VALUE_NUMBER), pos
    node = AstNode(tok)
    if pos < len(tokens) and tokens[pos][0] == "(":
        if tok in dialect.value_parents:
            if depth == MAX_DEPTH:  # its value would be one level deeper
                raise ParseError(_TOO_DEEP, position=tokens[pos][2])
            child, pos = _parse_value_span(tokens, pos)
            node.children.append(child)
        else:
            pos = _parse_args(tokens, pos, dialect, text, node, depth + 1)
    return node, pos


def _parse_args(tokens, pos, dialect, text, node, depth):
    pos += 1  # consume "("
    while True:
        if pos >= len(tokens):
            raise ParseError("missing closing parenthesis", position=len(text))
        ttype, tok, tpos = tokens[pos]
        if ttype in (",", ")"):
            raise ParseError("empty argument slot", position=tpos)
        child, pos = _parse_expr(tokens, pos, dialect, text, depth)
        node.children.append(child)
        if pos >= len(tokens):
            raise ParseError("missing closing parenthesis", position=len(text))
        ttype, tok, tpos = tokens[pos]
        if ttype == ",":
            pos += 1
            continue
        if ttype == ")":
            return pos + 1
        raise ParseError(f"expected ',' or ')', found {tok!r}", position=tpos)


def _parse_value_span(tokens, pos):
    """Read a whole parenthesized span as one string value."""
    start = tokens[pos][2]
    pos += 1  # consume outer "("
    depth = 1
    parts = []
    while pos < len(tokens):
        ttype, tok, tpos = tokens[pos]
        if ttype == "(":
            depth += 1
        elif ttype == ")":
            depth -= 1
            if depth == 0:
                if not parts:
                    raise ParseError("empty argument list", position=tpos)
                return AstNode(" ".join(parts), VALUE_STRING), pos + 1
        parts.append(tok)
        pos += 1
    raise ParseError("missing closing parenthesis", position=start)


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
    ast: ProgramAst | None = field(compare=False, repr=False)  # None if unrepairable

    @property
    def ok(self) -> bool:
        return self.status != "unrepairable"

    @property
    def repaired(self) -> bool:
        return self.status == "repaired"


def repair_parentheses(
    text: str, dialect: DialectConfig = DEFAULT_DIALECT
) -> RepairResult:
    """Parse text, fixing close-paren imbalance at its end first.

    Missing closers are appended; surplus trailing closers are stripped;
    well-formed text is "balanced". The result holds the tree of the text it
    returns; text that still does not parse comes back unchanged,
    "unrepairable", with no tree.
    """
    opens, closes, _ = paren_balance(text)
    candidate = text + ")" * (opens - closes)
    for _ in range(closes - opens):
        candidate = candidate.rstrip()
        if not candidate.endswith(")"):
            return RepairResult(text=text, status="unrepairable", ast=None)
        candidate = candidate[:-1]
    try:
        ast = parse_program(candidate, dialect)
    except ParseError:
        return RepairResult(text=text, status="unrepairable", ast=None)
    status = "balanced" if candidate == text else "repaired"
    return RepairResult(text=candidate, status=status, ast=ast)
