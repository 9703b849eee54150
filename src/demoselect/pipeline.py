"""The run's stages: select demonstrations, render prompts, complete them,
and score the completions.

``demoselect run`` and the four stage commands call these functions, and a
library caller can call them with a loaded
:class:`~demoselect.corpus.IndexBundle`. ``targets`` maps the id of each
example a run serves to that example: the test examples, or the pool in
training mode. Each stage is a loop over one per-example function and
returns the rows of its stage file. The row formats are defined here,
beside the code that builds them, as the keys and value kinds a row read
back from a file must hold (``SELECTION_ROW`` and the others below), which
:func:`~demoselect.corpus.read_rows` checks as it checks every JSONL file.

A demonstration is a pool row, never built into an
:class:`~demoselect.corpus.Example`: its id resolves to its row, the prompt
reads its utterance and program from the index's record columns, and the
mock and eval read its structures as its row of vocabulary codes, against
each target's structures coded once over the same vocabulary
(:meth:`~demoselect.corpus.IndexBundle.coded`). The mock decodes only the
demonstration program it returns. A wrong prediction that copies a
demonstration's program takes its error labels from that pool row; only any
other wrong prediction reads the demonstrations' symbols and templates, and
is parsed.
"""

from __future__ import annotations

import logging
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from .corpus import ID, STRING, STRINGS
from .errors import BudgetTooSmallError, ConfigError, UnknownIdError
from .evaluation import EvalRecord, aggregate, copy_labels, error_labels, evaluate_coded
from .gateway import MockOracleConfig, complete, mock_from_codes
from .prompting import format_prompt, order_demonstrations, truncate_prompt
from .retrieval import RETRIEVER_VARIANTS, random_scores, row_of
from .selection import (
    CANDIDATE_POOL_SIZE,
    cover_ls,
    cover_utt,
    dpp_select,
    select_random,
    select_top_k,
    training_mode_select,
)

logger = logging.getLogger(__name__)

STRATEGIES = ("top-k", "random", "cover-ls", "cover-utt", "dpp")
FALLBACKS = ("cover-utt", "none")
ORDERS = ("ascending-score", "shuffled")


@dataclass
class RunConfig:
    strategy: str = "cover-ls"
    k: int = 24
    retriever: str = "bm25-utterance"
    beam_limit: int | None = None
    max_ls_size: int | None = None
    seed: int = 0
    candidate_pool_size: int = CANDIDATE_POOL_SIZE
    oracle: bool = False
    train_mode: bool = False
    fallback: str = "cover-utt"
    order: str = "ascending-score"
    programs_only: bool = False
    budget: int | None = None
    mock: bool = False
    mock_threshold: int = MockOracleConfig.compose_threshold_size
    jobs: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.beam_limit is not None and self.beam_limit < 1:
            raise ConfigError("beam limit must be >= 1")
        if self.max_ls_size is not None and self.max_ls_size < 1:
            raise ConfigError("max LS size must be >= 1")
        if self.candidate_pool_size < 1:
            raise ConfigError("candidate pool size must be >= 1")
        if self.budget is not None and self.budget < 1:
            raise ConfigError("budget must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.retriever not in RETRIEVER_VARIANTS:
            raise ConfigError(f"unknown retriever {self.retriever!r}")
        if self.fallback not in FALLBACKS:
            raise ConfigError(f"unknown fallback {self.fallback!r}")
        if self.order not in ORDERS:
            raise ConfigError(f"unknown order {self.order!r}")
        if self.mock_threshold < 1:
            raise ConfigError("mock threshold must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    @property
    def reads_beams(self) -> bool:
        """Whether selection reads the targets' beams: their structures stand
        in for the gold ones unless ``oracle`` or ``train_mode``, and
        ``random`` reads neither structures nor scores."""
        reader = self.strategy == "cover-ls" or self.retriever == "bm25-symbols"
        return reader and self.strategy != "random" and not self.oracle and not self.train_mode


def _example_seed(seed: int, example_id: str) -> int:
    # an id may hold a lone surrogate, which the index keeps the same way
    return zlib.crc32(f"{seed}:{example_id}".encode("utf-8", "surrogatepass"))


def _demo_rows(bundle, demo_ids: list[str]) -> list[int]:
    """The pool rows of demonstration ids."""
    rows = []
    for demo_id in demo_ids:
        try:
            rows.append(row_of(bundle.pool.ids, demo_id))
        except KeyError:
            raise UnknownIdError(
                f"unknown demonstration id {demo_id}: not in the training pool"
            ) from None
    return rows


def _is_scored_ids(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(pair, list)
        and len(pair) == 2
        and isinstance(pair[0], str)
        and isinstance(pair[1], (int, float))
        and not isinstance(pair[1], bool)
        for pair in value
    )


SCORED_IDS = ("a list of [id, score] pairs", _is_scored_ids)

# The keys of a stage-file row that the next stage reads, with the values
# they must hold (see corpus.check_row). A row holds more keys (a prompt row's
# "truncated"); eval reads no prompt text.
SELECTION_ROW = {"id": ID, "items": SCORED_IDS}
PROMPT_ROW = {"id": ID, "prompt": STRING, "demo_ids": STRINGS}
PROMPT_DEMOS_ROW = {"id": ID, "demo_ids": STRINGS}
PREDICTION_ROW = {"id": ID, "prediction": STRING}
# The columns of a per-record row (the --per-record and --csv files).
RECORD_COLUMNS = tuple(EvalRecord("", False, 0.0, 0.0, 0).to_dict())


# --- selection stage -------------------------------------------------------


def _symbols(structures) -> list[str]:
    """The symbols of coded structures, in name order."""
    return list(compress(structures.names, structures.symbols.tolist()))


def _to_cover(bundle, example, cfg: RunConfig, beams):
    """The structures to cover, coded: the gold ones with oracle, else those
    of the example's first beam_limit beams."""
    if cfg.oracle:
        return bundle.coded(example)
    pred = beams.get(example.id)
    names = set().union(*pred.beam_ls_sets[: cfg.beam_limit]) if pred else ()
    return bundle.code({name: pred.ls_sizes[name] for name in names})


def _choose(bundle, example, cfg: RunConfig, beams):
    pool, seed = bundle.pool, _example_seed(cfg.seed, example.id)
    if cfg.train_mode:
        return training_mode_select(
            bundle.coded(example), pool, cfg.k, seed=seed, postings=bundle.ls_postings,
            exclude=example.id,
        )
    strategy = cfg.strategy
    if strategy == "cover-ls" or cfg.retriever == "bm25-symbols":
        structures = _to_cover(bundle, example, cfg, beams)
    if strategy == "cover-ls" and not structures.names and cfg.fallback == "cover-utt":
        strategy = "cover-utt"
    if strategy == "random":  # writes 0.0 for every pick: reads no retriever score
        return select_random(pool, cfg.k, seed=seed)
    if cfg.retriever == "bm25-utterance":
        scores = bundle.bm25_utterance.scores(example.utt_tokens)
    elif cfg.retriever == "random":
        scores = random_scores(pool.ids, seed)
    else:  # the symbol retrievers, over the gold symbols or the beams'
        gold = cfg.retriever == "oracle-bm25-gold-symbols"
        scores = bundle.bm25_symbols.scores(_symbols(bundle.coded(example) if gold else structures))
    if strategy == "top-k":
        return select_top_k(pool, scores, cfg.k)
    if strategy == "dpp":
        return dpp_select(scores, bundle.tfidf, cfg.k, cfg.candidate_pool_size)
    if strategy == "cover-ls":
        return cover_ls(
            structures, pool, scores, cfg.k, max_ls_size=cfg.max_ls_size,
            postings=bundle.ls_postings,
        )
    # cover-utt, and cover-ls with nothing to cover
    return cover_utt(
        example.utterance, pool, scores, cfg.k, idf=bundle.bm25_utterance.idf,
        postings=bundle.token_postings,
    )


def _select_one(bundle, example, cfg: RunConfig, beams) -> dict:
    result = _choose(bundle, example, cfg, beams)
    return {
        "id": example.id,
        "strategy": result.strategy,
        "k": result.k,
        "items": [[i, s] for i, s in result.items],
        "coverage_trace": [[p, e] for p, e in result.coverage_trace],
        "underfilled": result.underfilled,
    }


def stage_select(bundle, targets, cfg: RunConfig, beams) -> list[dict]:
    """One selection row per target; ``beams`` maps a target's id to its
    :class:`~demoselect.corpus.PredictionBundle` when ``cfg.reads_beams``."""
    return [_select_one(bundle, example, cfg, beams) for example in targets.values()]


# --- prompt stage ----------------------------------------------------------


def _prompt_one(bundle, example, items, cfg: RunConfig) -> dict:
    ordered = order_demonstrations(
        [(i, s) for i, s in items],
        mode="shuffled" if cfg.train_mode else cfg.order,
        seed=_example_seed(cfg.seed, example.id),
    )
    ids = [demo_id for demo_id, _ in ordered]
    utterances, programs = bundle.records["utterance"], bundle.records["program"]
    demos = [(i, utterances[r], programs[r]) for i, r in zip(ids, _demo_rows(bundle, ids))]
    prompt = format_prompt(demos, example.utterance, include_utterances=not cfg.programs_only)
    if cfg.budget is not None:
        try:
            prompt = truncate_prompt(prompt, cfg.budget)
        except BudgetTooSmallError as exc:
            raise BudgetTooSmallError(f"example {example.id}: {exc}") from exc
    row = {
        "id": example.id,
        "prompt": prompt.text,
        "demo_ids": prompt.demo_ids,
        "truncated": prompt.truncated_count,
    }
    if cfg.train_mode:
        row["target"] = example.program
    return row


def stage_prompt(bundle, targets, selections: list[dict], cfg: RunConfig) -> list[dict]:
    """One prompt row per selection row."""
    out = []
    for record in selections:
        example = targets.get(record["id"])
        if example is None:
            raise UnknownIdError(f"selection id {record['id']} not among targets")
        out.append(_prompt_one(bundle, example, record["items"], cfg))
    return out


# --- inference stage -------------------------------------------------------


def stage_infer(
    bundle, targets, prompts: list[dict], cfg: RunConfig, endpoint=None, request_defaults=None
) -> list[dict]:
    """One prediction row per prompt row: the mock's, or the endpoint's
    completion of ``request_defaults`` with the row's prompt."""
    mock_config = MockOracleConfig(compose_threshold_size=cfg.mock_threshold)

    def mock_one(row: dict) -> dict:
        example = targets.get(row["id"])
        if example is None:
            raise UnknownIdError(f"prompt id {row['id']} has no test example")
        rows = _demo_rows(bundle, row["demo_ids"])
        programs = bundle.records["program"]
        text = mock_from_codes(
            [bundle.ls.codes(r) for r in rows],
            bundle.coded(example),
            lambda i: programs[rows[i]],
            example.program,
            mock_config,
        )
        return {"id": row["id"], "prediction": text}

    def endpoint_one(row: dict) -> dict:
        request = replace(request_defaults, prompt=row["prompt"])
        result = complete(request, endpoint)
        return {"id": row["id"], "prediction": result.text.strip()}

    worker = mock_one if cfg.mock else endpoint_one
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool_exec:
            return list(pool_exec.map(worker, prompts))
    return [worker(row) for row in prompts]


# --- eval stage ------------------------------------------------------------


def _eval_one(bundle, example, pred: str, rows: list[int], cfg: RunConfig) -> EvalRecord:
    demo_rows = [bundle.ls.codes(r) for r in rows]
    gold = bundle.coded(example)

    def labels() -> set[str]:
        # a copy of a demonstration's program: the labels of its row
        programs = bundle.records["program"]
        for r, codes in zip(rows, demo_rows):
            if programs[r] == pred:
                return copy_labels(gold, codes)
        held = np.concatenate(demo_rows) if demo_rows else np.empty(0, np.intp)
        demo_symbols = np.unique(held[bundle.symbol_mask[held]])
        return error_labels(
            pred,
            set(_symbols(gold)),
            set(map(bundle.vocab.__getitem__, demo_symbols.tolist())),
            {bundle.records["template"][r] for r in rows},
            bundle.corpus.dialect,
        )

    return evaluate_coded(
        example.id,
        pred,
        example.program,
        demo_rows,
        gold,
        bundle.training_ls_mask,
        labels,
        cfg.strategy,
    )


def stage_eval(
    bundle, targets, prompts: list[dict], predictions: list[dict], cfg: RunConfig
) -> tuple[dict, list]:
    """The report and the per-prediction records; each prediction is scored
    against the demonstrations of its prompt row."""
    demo_ids = {row["id"]: row["demo_ids"] for row in prompts}
    records = []
    for row in predictions:
        example = targets.get(row["id"])
        if example is None:
            logger.warning("prediction id %s is not a test example", row["id"])
            continue
        if row["id"] not in demo_ids:
            raise UnknownIdError(f"prediction id {row['id']} has no prompt row")
        rows = _demo_rows(bundle, demo_ids[row["id"]])
        records.append(_eval_one(bundle, example, row["prediction"], rows, cfg))
    return aggregate(records, by_strategy=False), records
