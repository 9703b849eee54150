"""Synthetic corpus generation for compositional-split experiments.

A small variable-free functional grammar (entity lookups wrapped in
attribute filters under question operators) paired with templated English
utterances. The ``held-out-ls`` split plants structure fragments that occur
in every test program but in no training program, which is the premise the
selection strategies are measured against.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .corpus import Corpus, Example, make_example, read_json, write_json, write_rows
from .errors import ConfigError, GenerationError, IoError, ParseError
from .programs import DEFAULT_DIALECT, parse_program
from .structures import ls_size

SPLITS = ("iid", "template", "held-out-ls")
_PLANT_COUNT = 3  # how many structures a held-out-ls split plants in its test programs


def _is_atom(word: str) -> bool:
    """True when ``word`` parses as one program symbol with no arguments."""
    try:
        top = parse_program(word).top
    except ParseError:
        return False
    return top.symbol == word and not top.children


@dataclass(frozen=True)
class GrammarConfig:
    entities: tuple[str, ...] = ("dog", "cat", "mouse", "horse", "bird", "fish")
    attributes: tuple[str, ...] = ("square", "round", "black", "white", "small", "big")
    attr_types: tuple[str, ...] = ("color", "shape", "size")
    numbers: tuple[int, ...] = (2, 3, 4, 5)
    max_filters: int = 2
    logic_rate: float = 0.25

    def __post_init__(self):
        kinds = {"entities": str, "attributes": str, "attr_types": str, "numbers": int}
        for name, kind in kinds.items():
            value = getattr(self, name)
            if not (isinstance(value, tuple) and all(type(v) is kind for v in value)):
                noun = "integers" if kind is int else "strings"
                raise ConfigError(f"{name} must be a list of {noun}, got {value!r}")
            # a noun phrase may go unfiltered, but every other choice needs a value
            if not value and name != "attributes":
                raise ConfigError(f"{name} must not be empty")
            for word in value if kind is str else ():
                if not _is_atom(word):
                    raise ConfigError(f"{name} word {word!r} is not one program atom")
        if not (type(self.max_filters) is int and self.max_filters >= 0):
            raise ConfigError(f"max_filters must be an integer >= 0, got {self.max_filters!r}")
        if not (type(self.logic_rate) in (int, float) and 0 <= self.logic_rate <= 1):
            raise ConfigError(f"logic_rate must be a number in [0, 1], got {self.logic_rate!r}")

    @classmethod
    def from_json(cls, path: str | Path) -> "GrammarConfig":
        data = read_json(path, "grammar file")
        try:
            return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})
        except (TypeError, ConfigError) as exc:
            raise ConfigError(f"{path}: not a grammar object: {exc}") from exc

    def to_dict(self) -> dict:
        return {key: list(v) if isinstance(v, tuple) else v for key, v in asdict(self).items()}


@dataclass
class FixtureCorpus:
    corpus: Corpus
    planted: dict[str, list[str]] = field(default_factory=dict)
    planted_targets: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def _gen_np(rng: random.Random, g: GrammarConfig) -> tuple[str, str]:
    entity = rng.choice(g.entities)
    program = f"find ({entity})"
    utterance = entity
    n_filters = min(rng.choice((0, 1, 1, 2)), g.max_filters)
    for attr in rng.sample(g.attributes, min(n_filters, len(g.attributes))):
        program = f"filter ({attr}, {program})"
        utterance = f"{attr} {utterance}"
    return program, utterance


def _gen_atomic(rng: random.Random, g: GrammarConfig) -> tuple[str, str]:
    form = rng.choice(("count", "exists", "query_attr", "gt", "eq"))
    np_prog, np_utt = _gen_np(rng, g)
    if form == "count":
        return f"count ({np_prog})", f"how many {np_utt} are there"
    if form == "exists":
        return f"exists ({np_prog})", f"is there a {np_utt}"
    if form == "query_attr":
        attr_type = rng.choice(g.attr_types)
        return (
            f"query_attr[{attr_type}] ({np_prog})",
            f"what is the {attr_type} of the {np_utt}",
        )
    if form == "gt":
        number = rng.choice(g.numbers)
        return (
            f"gt (count ({np_prog}), {number})",
            f"are there more than {number} {np_utt}",
        )
    other_prog, other_utt = _gen_np(rng, g)
    return (
        f"eq (count ({np_prog}), count ({other_prog}))",
        f"is the number of {np_utt} equal to the number of {other_utt}",
    )


def _gen_sentence(rng: random.Random, g: GrammarConfig) -> tuple[str, str]:
    if rng.random() < g.logic_rate:
        op = rng.choice(("and", "or"))
        left_prog, left_utt = _gen_atomic(rng, g)
        right_prog, right_utt = _gen_atomic(rng, g)
        return f"{op} ({left_prog}, {right_prog})", f"{left_utt} {op} {right_utt}"
    return _gen_atomic(rng, g)


@dataclass
class _PoolEntry:
    example: Example  # its id and split are set when the corpus is built
    ls_small: set[str]  # structures up to 4 nodes
    ls_edges: set[str]  # structures up to 2 nodes


def _generate_pool(
    g: GrammarConfig, target: int, rng: random.Random
) -> list[_PoolEntry]:
    seen: set[str] = set()
    pool: list[_PoolEntry] = []
    stale = 0  # consecutive duplicate draws; a long streak means saturation
    while len(pool) < target and stale < 3000:
        program, utterance = _gen_sentence(rng, g)
        if program in seen:
            stale += 1
            continue
        stale = 0
        seen.add(program)
        example = make_example("", utterance, program)
        small = {c for c in example.ls_counts if ls_size(c) <= 4}
        pool.append(_PoolEntry(example, small, {c for c in small if ls_size(c) <= 2}))
    if len(pool) < target:
        raise GenerationError(
            f"grammar produced only {len(pool)} distinct programs, need {target}"
        )
    return pool


def _build_corpus(
    train: list[_PoolEntry], test: list[_PoolEntry]
) -> Corpus:
    examples = [
        replace(entry.example, id=f"{split}-{i:04d}", split=split)
        for split, entries in (("train", train), ("test", test))
        for i, entry in enumerate(entries)
    ]
    return Corpus(examples=examples, dialect=DEFAULT_DIALECT)


def _split_held_out_ls(
    pool: list[_PoolEntry], n_train: int, n_test: int, rng: random.Random
) -> tuple[list[_PoolEntry], list[_PoolEntry], list[str], dict[int, list[str]]]:
    containment: Counter = Counter()
    for entry in pool:
        for canonical in entry.ls_small:
            if canonical not in entry.ls_edges:  # only sizes 3..4
                containment[canonical] += 1
    lo = max(3, len(pool) // 25)
    hi = max(lo + 1, len(pool) // 3)
    eligible = sorted(c for c, cnt in containment.items() if lo <= cnt <= hi)
    if not eligible:
        raise GenerationError("no plantable structures in the generated pool")
    for _ in range(80):
        planted = rng.sample(eligible, min(_PLANT_COUNT, len(eligible)))
        containing = [e for e in pool if any(p in e.ls_small for p in planted)]
        clean = [e for e in pool if not any(p in e.ls_small for p in planted)]
        if len(clean) < n_train or len(containing) < n_test:
            continue
        train = rng.sample(clean, n_train)
        train_edges: set[str] = set()
        for entry in train:
            train_edges |= entry.ls_edges
        # keep only test programs whose small edges are all learnable
        coverable = [e for e in containing if e.ls_edges <= train_edges]
        if len(coverable) < n_test:
            continue
        test = rng.sample(coverable, n_test)
        per_test = {
            idx: sorted(p for p in planted if p in entry.ls_small)
            for idx, entry in enumerate(test)
        }
        return train, test, sorted(planted), per_test
    raise GenerationError(
        "could not find a plantable structure set for the requested sizes"
    )


def _by_template(pool: list[_PoolEntry]) -> dict[str, list[_PoolEntry]]:
    groups: dict[str, list[_PoolEntry]] = {}
    for entry in pool:
        groups.setdefault(entry.example.template, []).append(entry)
    return groups


def _split_template(
    pool: list[_PoolEntry], n_train: int, n_test: int, rng: random.Random
) -> tuple[list[_PoolEntry], list[_PoolEntry]]:
    groups = _by_template(pool)
    keys = sorted(groups)
    rng.shuffle(keys)
    test: list[_PoolEntry] = []
    idx = 0
    while idx < len(keys) and len(test) < n_test:
        test.extend(groups[keys[idx]])
        idx += 1
    train = [e for key in keys[idx:] for e in groups[key]]
    if len(test) < n_test or len(train) < n_train:
        raise GenerationError("not enough distinct templates for a template split")
    return rng.sample(train, n_train), rng.sample(test, n_test)


def _split_iid(
    pool: list[_PoolEntry], n_train: int, n_test: int, rng: random.Random
) -> tuple[list[_PoolEntry], list[_PoolEntry]]:
    chosen = rng.sample(pool, n_train + n_test)
    train, test = chosen[:n_train], chosen[n_train:]
    train_templates = {e.example.template for e in train}
    if test and not any(e.example.template in train_templates for e in test):
        pairs = [members for members in _by_template(pool).values() if len(members) >= 2]
        if not pairs:
            raise GenerationError("grammar yields no repeated templates for iid split")
        members = rng.choice(sorted(pairs, key=lambda m: m[0].example.program))
        train[0], test[0] = members[0], members[1]
    return train, test


def gen_fixture(
    grammar: GrammarConfig | None = None,
    n_train: int = 200,
    n_test: int = 50,
    split: str = "held-out-ls",
    seed: int = 0,
) -> FixtureCorpus:
    """Deterministically generate a synthetic train/test corpus."""
    if split not in SPLITS:
        raise GenerationError(f"unknown split {split!r}")
    if n_train < 1 or n_test < 0:
        raise GenerationError(f"need n_train >= 1 and n_test >= 0, got {n_train} and {n_test}")
    g = grammar or GrammarConfig()
    rng = random.Random(seed)
    pool = _generate_pool(g, (n_train + n_test) * 4, rng)
    planted_targets: list[str] = []
    planted: dict[str, list[str]] = {}
    if split == "held-out-ls":
        train, test, planted_targets, per_test = _split_held_out_ls(
            pool, n_train, n_test, rng
        )
        planted = {f"test-{i:04d}": targets for i, targets in per_test.items()}
    elif split == "template":
        train, test = _split_template(pool, n_train, n_test, rng)
    else:
        train, test = _split_iid(pool, n_train, n_test, rng)
    corpus = _build_corpus(train, test)
    return FixtureCorpus(
        corpus=corpus,
        planted=planted,
        planted_targets=planted_targets,
        meta={
            "split": split,
            "seed": seed,
            "n_train": n_train,
            "n_test": n_test,
            "grammar": g.to_dict(),
            "planted_targets": planted_targets,
        },
    )


def write_fixture(fixture: FixtureCorpus, out_dir: str | Path) -> dict[str, Path]:
    """Write train.jsonl, test.jsonl and meta.json, each whole, under ``out_dir``."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create fixture directory {out}: {exc}") from exc
    paths = {
        "train": out / "train.jsonl",
        "test": out / "test.jsonl",
        "meta": out / "meta.json",
    }
    for name in ("train", "test"):
        rows = [
            {"id": ex.id, "utterance": ex.utterance, "program": ex.program, "split": ex.split}
            for ex in fixture.corpus.split(name)
        ]
        write_rows(paths[name], rows, "fixture file")
    write_json(paths["meta"], {**fixture.meta, "planted": fixture.planted}, "fixture file")
    return paths
