"""Shared test utilities: independent oracles and random program generation."""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import sys
from collections import Counter
from collections.abc import Iterable, Mapping
from pathlib import Path

import numpy as np

from hypothesis import strategies as st

from demoselect import (
    ParseError,
    ProgramWalk,
    StructureGraph,
    anonymize,
    evaluate_record,
    parse_program,
    render,
    repair_parentheses,
    to_template,
)
from demoselect.retrieval import (
    RowPostings,
    Scores,
    SparseRows,
    lucene_idf,
    normalized_arrays,
    row_of,
    row_slices,
    tokenize_utterance,
)
from demoselect.selection import Pool
from demoselect.structures import ls_size

SYMBOLS = ("f", "g", "h", "scan", "join", "pick", "a", "b", "top")
STRING_VALUES = ("x", "y town", "omaha")
NUMBER_VALUES = ("3", "17", "2.5")


def brute_force_local_structures(graph: StructureGraph, max_size: int | None = None):
    """Canonical forms of every rule-valid node subset (see the counts below)."""
    return set(brute_force_local_structure_counts(graph, max_size))


def brute_force_local_structure_counts(
    graph: StructureGraph, max_size: int | None = None
) -> Counter:
    """The valid node subsets of :func:`brute_force_fragments`, counted per
    canonical form."""
    return Counter(canonical for canonical, _ in brute_force_fragments(graph, max_size))


def brute_force_fragments(graph: StructureGraph, max_size: int | None = None):
    """Reference enumeration: test every node subset against the raw rule,
    and yield each valid subset's canonical form and node count.

    A subset is a structure when it is connected in the augmented graph and,
    for every pair of its nodes, a sibling edge joins them iff both are
    leaves of the fragment. Single-node subsets exclude the synthetic root.
    """
    n = graph.node_count
    limit = n if max_size is None else min(max_size, n)
    neighbors = [set() for _ in range(n)]
    for p, c in tree_edges(graph):
        neighbors[p].add(c)
        neighbors[c].add(p)
    sib_pairs = set()
    for a, b in graph.sibling_edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
        sib_pairs.add(frozenset((a, b)))
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
                yield _serialize_fragment(graph, nodes), size


def tree_edges(graph: StructureGraph) -> list[tuple[int, int]]:
    """A graph's (parent, child) edges, in child order."""
    return [(p, c) for c, p in enumerate(graph.parents) if p is not None]


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


def node_count(walk: ProgramWalk) -> int:
    """The program nodes of a walk, below its root, counted down its children."""

    def count(node) -> int:
        return 1 + sum(map(count, node[2]))

    return count(walk_tuple(walk)) - 1


def reference_tfidf(ls_counts_by_id) -> dict[str, dict[str, float]]:
    """Normalized tf-idf weights by dict arithmetic: ``tf * idf`` per
    structure, divided by the root of the squares summed in map order; an
    example whose weights are all zero gets an empty map."""
    n_docs = len(ls_counts_by_id)
    df = Counter(c for counts in ls_counts_by_id.values() for c in counts)
    out = {}
    for doc_id, counts in ls_counts_by_id.items():
        weights = {c: tf * lucene_idf(n_docs, df[c]) for c, tf in counts.items()}
        norm = 0.0
        for w in weights.values():  # left to right, as sum does up to Python 3.11
            norm += w * w
        norm = math.sqrt(norm)
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
    """Count ``parse_program`` calls, the one walk from program text that
    every parse takes, per text, wherever the package calls it."""
    parsed: Counter = Counter()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "demoselect" and hasattr(module, "parse_program"):
            original = module.parse_program

            def counted(text, *args, _original=original, **kwargs):
                parsed[text] += 1
                return _original(text, *args, **kwargs)

            monkeypatch.setattr(module, "parse_program", counted)
    return parsed


# --- a reference copy of the first parser ---------------------------------------
#
# The package reads a program in one walk over its tokens. It once checked
# the parentheses, tokenized character by character and parsed the tokens by
# recursive descent into a tree, which it rendered, anonymized and graphed
# recursively. The copies below keep that parser and those tree walks, so the
# walk can be checked against them: the same trees, text, templates and
# graphs, and the same ParseError message and position for text that is no
# program.

_REFERENCE_DEPTH = 256  # MAX_DEPTH
_REFERENCE_TOO_DEEP = f"program nests deeper than {_REFERENCE_DEPTH} levels"


def _reference_tokens(text):
    tokens, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            tokens.append((ch, ch, i))
            i += 1
        elif ch in "\"'":
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


def _reference_balance(text):
    opens = closes = 0
    violation = quote = None
    for i, ch in enumerate(text):
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "(":
            opens += 1
        elif ch == ")":
            closes += 1
            if closes > opens and violation is None:
                violation = i
    return opens, closes, violation


def reference_parse(text: str, value_parents=frozenset()):
    """The first parser's tree, as nested ``(symbol, kind, children)``."""
    if not text or not text.strip():
        raise ParseError("empty program text", position=0)
    opens, closes, violation = _reference_balance(text)
    if violation is not None:
        raise ParseError("unbalanced closing parenthesis", position=violation)
    if opens > closes:
        raise ParseError(f"missing {opens - closes} closing parenthesis(es)", position=len(text))
    tokens = _reference_tokens(text)

    def expr(pos, depth):
        node, pos = term(pos, depth)
        if pos < len(tokens) and tokens[pos][0] in ("atom", "string") and (
            node[1] == "function" and not node[2]
        ):
            child, pos = expr(pos, depth + 1)
            node[2].append(child)
        return node, pos

    def term(pos, depth):
        if pos >= len(tokens):
            raise ParseError("unexpected end of input", position=len(text))
        ttype, tok, tpos = tokens[pos]
        if depth > _REFERENCE_DEPTH:
            raise ParseError(_REFERENCE_TOO_DEEP, position=tpos)
        if ttype == "string":
            return (tok, "value-string", []), pos + 1
        if ttype != "atom":
            raise ParseError(f"unexpected token {tok!r}", position=tpos)
        pos += 1
        if re.match(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?\Z", tok):
            return (tok, "value-number", []), pos
        node = (tok, "function", [])
        if pos < len(tokens) and tokens[pos][0] == "(":
            if tok in value_parents:
                if depth == _REFERENCE_DEPTH:
                    raise ParseError(_REFERENCE_TOO_DEEP, position=tokens[pos][2])
                child, pos = value_span(pos)
                node[2].append(child)
            else:
                pos = args(pos, node, depth + 1)
        return node, pos

    def args(pos, node, depth):
        pos += 1
        while True:
            if pos >= len(tokens):
                raise ParseError("missing closing parenthesis", position=len(text))
            ttype, tok, tpos = tokens[pos]
            if ttype in (",", ")"):
                raise ParseError("empty argument slot", position=tpos)
            child, pos = expr(pos, depth)
            node[2].append(child)
            if pos >= len(tokens):
                raise ParseError("missing closing parenthesis", position=len(text))
            ttype, tok, tpos = tokens[pos]
            if ttype == ",":
                pos += 1
                continue
            if ttype == ")":
                return pos + 1
            raise ParseError(f"expected ',' or ')', found {tok!r}", position=tpos)

    def value_span(pos):
        start, pos, depth, parts = tokens[pos][2], pos + 1, 1, []
        while pos < len(tokens):
            ttype, tok, tpos = tokens[pos]
            if ttype == "(":
                depth += 1
            elif ttype == ")":
                depth -= 1
                if depth == 0:
                    if not parts:
                        raise ParseError("empty argument list", position=tpos)
                    return (" ".join(parts), "value-string", []), pos + 1
            parts.append(tok)
            pos += 1
        raise ParseError("missing closing parenthesis", position=start)

    node, pos = expr(0, 1)
    if pos != len(tokens):
        raise ParseError(f"unexpected trailing token {tokens[pos][1]!r}", position=tokens[pos][2])
    return ("<root>", "function", [node])


def walk_tuple(walk: ProgramWalk, node: int = 0) -> tuple:
    """A walk's tree below ``node`` (its root by default) as nested
    ``(symbol, kind, children)``, the form :func:`reference_parse` gives."""
    children = [walk_tuple(walk, child) for child in walk.children[node]]
    return (walk.values[node], walk.kinds[node], children)


def reference_render(tree) -> str:
    """The first renderer's text of a :func:`reference_parse` tree, a string
    value in single quotes when it holds a double quote."""

    def text(node) -> str:
        symbol, kind, children = node
        if kind == "value-string":
            symbol = f"'{symbol}'" if '"' in symbol else f'"{symbol}"'
        if not children:
            return symbol
        return f"{symbol} ({', '.join(map(text, children))})"

    return text(tree[2][0])


def reference_anonymize(tree) -> tuple:
    """A :func:`reference_parse` tree with each string value ``string`` and
    each numeric value ``number``, every node a function."""
    symbol, kind, children = tree
    if kind == "value-string":
        return ("string", "function", [])
    if kind == "value-number":
        return ("number", "function", [])
    return (symbol, kind, [reference_anonymize(child) for child in children])


def reference_graph(tree) -> StructureGraph:
    """A :func:`reference_parse` tree indexed in pre-order, recursively, with
    its consecutive-sibling edges."""
    symbols, parents, children = [], [], []

    def add(node, parent):
        index = len(symbols)
        symbols.append(node[0])
        parents.append(parent)
        children.append([])
        if parent is not None:
            children[parent].append(index)
        for child in node[2]:
            add(child, index)

    add(tree, None)
    edges = [(a, b) for kids in children for a, b in zip(kids, kids[1:])]
    return StructureGraph(symbols, parents, children, edges)


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
    return set(anon.values[1:]), render(anon)


def unobserved(gold_ls_set, training_ls_union) -> bool:
    """The ``unobserved_ls`` flag that :func:`evaluate_record` gives a right
    prediction of a gold program with the structures ``gold_ls_set``."""
    return evaluate_record("t", "", "", [], [], gold_ls_set, training_ls_union).unobserved_ls


# --- dict pools, scores and postings as pool rows --------------------------------
#
# The selectors take only pool rows. Tests that state a case as a dict pool,
# dict scores, posting lists of ids or tf-idf weight maps build the row
# objects here, the one conversion the test suite has.


def pool_rows(pool) -> Pool:
    """A dict pool, or a list of ids (their examples ``None``), as a
    :class:`Pool` sorted by id, whose readers read its examples: their
    templates coded in row order, their ``ls_counts`` and ``utt_tokens``."""
    if not isinstance(pool, Mapping):
        pool = dict.fromkeys(pool)
    ids = sorted(pool)
    examples = [pool[i] for i in ids]
    codes: dict = {}
    templates = [codes.setdefault(getattr(ex, "template", None), len(codes)) for ex in examples]
    return Pool(
        ids,
        examples,
        np.array(templates, np.intp),
        structures=lambda r: examples[r].ls_counts,
        tokens=lambda r: examples[r].utt_tokens,
    )


def score_rows(rows: Pool, scores) -> Scores:
    """Dict scores as :class:`Scores` over the pool's ids: an id without a
    score scores 0.0, and scores of ids outside the pool are dropped."""
    return Scores(rows.ids, np.array([scores.get(i, 0.0) for i in rows.ids], dtype=np.float64))


def row_postings(rows: Pool, postings) -> RowPostings:
    """Posting lists of ids as the ascending rows of their ids in the pool;
    ids outside the pool are dropped."""
    return RowPostings(
        rows.ids,
        {t: np.array(sorted(row_of(rows.ids, i) for i in ids if i in rows), np.intp)
         for t, ids in postings.items()},
    )


def term_postings(docs: Mapping[str, Iterable[str]]) -> dict[str, list[str]]:
    """The ids of the documents holding each term, in id order."""
    postings: dict[str, list[str]] = {}
    for doc_id in sorted(docs):
        for term in dict.fromkeys(docs[doc_id]):
            postings.setdefault(term, []).append(doc_id)
    return postings


def normalized_rows(weights_by_id) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """:func:`~demoselect.retrieval.normalized_arrays` as one ``(columns,
    weights)`` row per id."""
    return row_slices(weights_by_id, *normalized_arrays(weights_by_id))


def pool_postings(rows: Pool, field: str) -> RowPostings:
    """The pool's posting lists of the payloads ``getattr(example, field)``
    (``ls_counts`` or ``utt_tokens``), as :func:`term_postings` lists them."""
    return row_postings(rows, term_postings({i: getattr(ex, field) for i, ex in rows.items()}))


def sparse_row(rows: SparseRows, key: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``(columns, weights)`` row of the id ``key``, read through the
    rows' ``ids`` and ``offsets``."""
    r = row_of(rows.ids, key)
    start, end = rows.offsets[r : r + 2].tolist()
    return rows.columns[start:end], rows.weights[start:end]


def dpp_rows(scores, weights) -> tuple[Scores, SparseRows]:
    """Dict scores and tf-idf weight maps as :class:`Scores` and normalized
    :class:`SparseRows` over the scored ids; a scored id without a map gets
    an empty row."""
    ids = sorted(scores)
    values = np.array([scores[i] for i in ids], dtype=np.float64)
    rows = normalized_arrays({i: weights.get(i, {}) for i in ids})
    return Scores(ids, values), SparseRows(ids, *rows)


# --- reference copies of the dict-based selectors -------------------------------
#
# The selectors once ranked ids held in dicts: scores looked up per id,
# candidates filtered into lists per element, and every score key sorted by
# ``(-score, id)``. The copies below keep that behaviour so the selectors,
# which work on pool rows, can be checked against it. Each returns
# ``(items, coverage_trace, underfilled)``, DPP also its gains.


def reference_cover(elements, pool, scores, k, terms, rng=None, postings=None, exclude=None):
    """The coverage loop over ``elements``, payloads in walk order."""
    if postings is None:
        postings = term_postings({i: terms(ex) for i, ex in pool.items()})
    chosen, trace, used_templates = [], [], set()
    while len(chosen) < k:
        uncovered = set(elements)
        progress = False
        for payload in elements:
            if payload not in uncovered:
                continue
            candidates = [
                i
                for i in postings.get(payload, ())
                if i in pool and i != exclude and pool[i].template not in used_templates
            ]
            if not candidates:
                trace.append((payload, None))
                continue
            if rng is None:
                best = min(candidates, key=lambda i: (-scores.get(i, 0.0), i))
            else:
                best = rng.choice(sorted(candidates))
            chosen.append((best, scores.get(best, 0.0)))
            trace.append((payload, best))
            uncovered.difference_update(terms(pool[best]))
            used_templates.add(pool[best].template)
            progress = True
            if len(chosen) == k:
                break
        if not progress:
            break
    return chosen, trace, len(chosen) < k


def reference_cover_ls(elements, pool, scores, k, max_ls_size=None, pick="retriever-top",
                       seed=None, postings=None):
    kept = [c for c in elements if max_ls_size is None or ls_size(c) <= max_ls_size]
    walk = sorted(kept, key=lambda c: (-ls_size(c), c))
    rng = random.Random(seed) if pick == "uniform-random" else None
    return reference_cover(walk, pool, scores, k, lambda ex: ex.ls_counts, rng, postings)


def reference_cover_utt(utterance, pool, scores, k, idf=None, postings=None):
    tokens = list(dict.fromkeys(tokenize_utterance(utterance)))
    walk = sorted(tokens, key=lambda t: -(idf(t) if idf else 0.0))
    return reference_cover(walk, pool, scores, k, lambda ex: ex.utt_tokens, None, postings)


def reference_training_mode(structures, pool, k, seed=None, postings=None, exclude=None):
    walk = sorted(c for c in structures if ls_size(c) == 1)
    return reference_cover(
        walk, pool, {}, k, lambda ex: ex.ls_counts, random.Random(seed), postings, exclude
    )


def reference_top_k(pool, scores, k):
    ranked = sorted(dict.fromkeys(pool), key=lambda i: (-scores.get(i, 0.0), i))
    items = [(i, scores.get(i, 0.0)) for i in ranked[:k]]
    return items, [], len(items) < k


def reference_dpp(scores, vectors, k, candidate_pool_size=200):
    """DPP greedy selection over the candidates of the dict-based filter."""
    ranked = sorted(scores, key=lambda i: (-scores[i], i))
    candidates = [i for i in ranked if i in vectors and len(vectors[i][0])][
        :candidate_pool_size
    ]
    n = len(candidates)
    if n == 0:
        return [], [], True, []
    max_score = max(scores.values())
    if max_score > 0:
        q = np.array([max(scores[i] / max_score, 1e-6) for i in candidates])
    else:
        q = np.full(n, 1e-6)
    columns, weights = zip(*(vectors[i] for i in candidates))
    support, coord = np.unique(np.concatenate(columns), return_inverse=True)
    phi = np.zeros((n, len(support)))
    rows = np.repeat(np.arange(n), [len(c) for c in columns])
    phi[rows, coord] = np.concatenate(weights)
    kernel = (q[:, None] * q[None, :]) * (phi @ phi.T)
    selected, gains = [], []
    d2 = kernel.diagonal().copy()
    floor = 1e-9 * kernel.diagonal()
    factor = np.zeros((min(k, n), n))
    while len(selected) < min(k, n):
        eligible = d2 > floor
        row_gains = np.full(n, -np.inf)
        row_gains[eligible] = np.log(d2[eligible])
        best_gain, best_row = -np.inf, None
        for row, gain in enumerate(row_gains.tolist()):
            if gain > best_gain + 1e-12:
                best_gain, best_row = gain, row
        if best_row is None or not np.isfinite(best_gain):
            break
        t = len(selected)
        residual = kernel[best_row] - factor[:t, best_row] @ factor[:t]
        factor[t] = residual / np.sqrt(d2[best_row])
        d2 -= factor[t] ** 2
        d2[best_row] = 0.0
        selected.append(best_row)
        gains.append(best_gain)
    items = [(candidates[r], scores[candidates[r]]) for r in selected]
    return items, [], len(items) < k, gains


# --- the benchmark's output invariants ------------------------------------------
#
# The benchmark checks every `run --mock` it times (perfbench/checks.py). The
# tests do not import the benchmark, so the checks are restated here.

COVER_STRATEGIES = ("cover-ls", "cover-utt", "cover-ls-train")


def _stage_rows(path: Path, ids: list[str], failures: list[str]) -> dict[str, dict]:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    if [row["id"] for row in rows] != ids:
        failures.append(f"{path.name}: not one row per target, in the targets' order")
    return {row["id"]: row for row in rows}


def run_failures(
    workdir: Path, targets: dict[str, str], k: int, pool: dict[str, str], train_mode: bool
) -> list[str]:
    """How the outputs of one ``run --mock`` in ``workdir`` break the
    benchmark's invariants, for the target examples ``targets`` (id to gold
    program, in the order run reads them) and the pool ``pool`` (id to
    program). Training mode writes selections and prompts only."""
    failures: list[str] = []
    ids = list(targets)
    selections = _stage_rows(workdir / "selections.jsonl", ids, failures)
    prompts = _stage_rows(workdir / "prompts.jsonl", ids, failures)
    predictions = {} if train_mode else _stage_rows(workdir / "predictions.jsonl", ids, failures)
    matches = 0
    for i in ids:
        selection, prompt = selections[i], prompts[i]
        picks = [pick for pick, _ in selection["items"]]
        demos = prompt["demo_ids"]
        checks = {
            "at most k distinct pool ids": len(set(picks)) == len(picks) <= k,
            "picks from the pool": set(picks) <= set(pool),
            "underfilled exactly when short": selection["underfilled"] == (len(picks) < k),
            "no two cover picks share a template": selection["strategy"] not in COVER_STRATEGIES
            or len({to_template(parse_program(pool[p])).text for p in picks}) == len(picks),
            "prompt demos come from the selection": set(demos) <= set(picks),
            "every pick is a demo or truncated": len(demos) + prompt["truncated"] == len(picks),
        }
        if train_mode:
            checks["the target is no demo of itself"] = i not in picks
            checks["the prompt's target is the gold program"] = prompt["target"] == targets[i]
        else:
            prediction = predictions[i]["prediction"]
            # the mock answers "" to a prompt without demonstrations
            checks["the mock predicts the gold or a demo"] = prediction == targets[i] or (
                prediction in [pool[d] for d in demos] if demos else prediction == ""
            )
            matches += " ".join(prediction.split()) == " ".join(targets[i].split())
        failures += [f"{i}: {name}" for name, ok in checks.items() if not ok]
    if not train_mode:
        report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
        if report.get("count") != len(ids) or report.get("accuracy") != matches / len(ids):
            failures.append("report.json: count or accuracy not those of the predictions")
    return failures
