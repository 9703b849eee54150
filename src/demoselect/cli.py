"""The command line: flags, files and exit codes around :mod:`.pipeline`.

Stages hand off through JSONL files so that runs around a slow endpoint can
be inspected and resumed; :mod:`.corpus` reads and writes every JSON(L) file::

    demoselect gen-fixture --out-dir work/fixture --split held-out-ls
    demoselect index --corpus work/fixture/train.jsonl --corpus work/fixture/test.jsonl --out work/index.json
    demoselect run --index work/index.json --strategy cover-ls --oracle --k 4 --mock --workdir work/run

Exit codes: 0 success, 1 evaluation found wrong predictions (report still
written), 2 usage/config/data errors, 3 transport errors, 4 internal errors
(an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import logging
import sys
import traceback
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

from .corpus import (
    Corpus,
    Example,
    IndexBundle,
    build_indexes,
    load_examples,
    load_predictions,
    read_json,
    read_rows,
    write_json,
    write_rows,
    write_text,
)
from .errors import (
    ApiError,
    ConfigError,
    DemoselectError,
    IoError,
    TransportError,
    UnknownIdError,
)
from .fixtures import GrammarConfig, gen_fixture, write_fixture
from .gateway import DEFAULT_STOP, ENV_BASE_URL, CompletionRequest, EndpointConfig
from .pipeline import (
    FALLBACKS,
    ORDERS,
    PREDICTION_ROW,
    PROMPT_DEMOS_ROW,
    PROMPT_ROW,
    RECORD_COLUMNS,
    SELECTION_ROW,
    STRATEGIES,
    RunConfig,
    stage_eval,
    stage_infer,
    stage_prompt,
    stage_select,
)
from .programs import DialectConfig

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_EVAL_FAILURES = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3
EXIT_INTERNAL = 4


def _load_tests(bundle: IndexBundle, test_path: str | None) -> list[Example]:
    if test_path:
        corpus = load_examples(test_path, bundle.corpus.dialect, default_split="test")
        tests = list(corpus.examples)
        if not tests:
            raise ConfigError(f"no test examples in {test_path}")
        return tests
    tests = bundle.corpus.split("test")
    if not tests:
        raise ConfigError("no test examples: pass --test or index a test split")
    return tests


def _write_eval_outputs(report, records, out, csv=None, per_record=None) -> int:
    """Write the report and the per-record views; return the exit code."""
    write_json(out, report, "report file")
    rows = [record.to_dict() for record in records]
    if csv:
        _write_csv(csv, rows)
    if per_record:
        write_rows(per_record, rows, "per-record file")
    return EXIT_OK if report.get("accuracy", 0.0) >= 1.0 else EXIT_EVAL_FAILURES


# a per-record value's CSV cell: a flag as 0/1, a float to six places, labels joined by |
_CSV_CELL = {bool: int, float: "{:.6f}".format, list: "|".join}


def _write_csv(path: str | Path, rows: list[dict]) -> None:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, RECORD_COLUMNS)
    writer.writeheader()
    writer.writerows({k: _CSV_CELL.get(type(v), str)(v) for k, v in row.items()} for row in rows)
    write_text(path, buffer.getvalue(), "CSV file")


# --- commands --------------------------------------------------------------


def cmd_index(args) -> int:
    dialect = DialectConfig(frozenset(s for s in args.value_parents.split(",") if s))
    examples, loaded, failures = [], {}, 0
    for path in args.corpus:
        corpus = load_examples(path, dialect, loaded=loaded)
        examples.extend(corpus.examples)
        failures += len(corpus.failures)
    bundle = build_indexes(Corpus(examples=examples, dialect=dialect))
    bundle.save(args.out)
    stats = bundle.stats()
    print(
        "indexed {examples} examples ({train} train / {test} test), "
        "{unique_templates} templates, {unique_ls} local structures".format(**stats)
    )
    if failures:
        print(f"warning: {failures} corpus lines skipped")
    return EXIT_OK


def _load_config(args) -> RunConfig:
    """The run configuration: command-line flags over the ``--config`` file,
    whose keys are :class:`RunConfig` fields spelled with ``_`` or ``-``."""
    config_file = read_json(args.config, "config file") if args.config else {}
    defaults = {f.name: f.default for f in fields(RunConfig)}
    known = set(defaults) | {name.replace("_", "-") for name in defaults}
    for key in config_file:
        if key not in known:
            raise ConfigError(f"{args.config}: unknown key {key!r}")
        dashed = key.replace("_", "-")
        if dashed != key and dashed in config_file:
            raise ConfigError(f"{args.config}: key given in both spellings, {key!r} and {dashed!r}")

    def pick(name, default):
        """A flag, else the file's value, typed like the default (int if None)."""
        value = getattr(args, name, None)
        if value is None:
            value = config_file.get(name.replace("_", "-"), config_file.get(name, default))
        kind = int if default is None else type(default)
        if type(value) is kind or (value is None and default is None):
            return value
        what = {int: "an integer", bool: "true or false", str: "a string"}[kind]
        raise ConfigError(f"{args.config}: {name} must be {what}, got {value!r}")

    return RunConfig(**{name: pick(name, default) for name, default in defaults.items()})


def _load_inputs(args):
    """The configuration, the index, the targets and the beams of the
    command's stages. The targets are the pool in training mode, else the
    test examples, which ``infer`` reads only for the mock. The beams are
    ``--predictions`` of a command that selects, when its configuration
    reads beams."""
    cfg = _load_config(args)
    needs_beams = args.command in ("select", "run") and cfg.reads_beams
    if needs_beams and not args.predictions:
        raise ConfigError(
            f"strategy/retriever {cfg.strategy}/{cfg.retriever} needs --predictions "
            "or --oracle"
        )
    bundle = IndexBundle.load(args.index)
    if cfg.train_mode:
        targets = bundle.pool
    elif args.command == "infer" and not cfg.mock:
        targets = {}
    else:
        targets = {ex.id: ex for ex in _load_tests(bundle, args.test)}
    beams = {}
    if needs_beams:
        beams = load_predictions(args.predictions, bundle.corpus.dialect)
        for example_id in sorted(set(beams) - set(targets)):
            logger.warning("prediction id %s is not a test example; kept", example_id)
    return cfg, bundle, targets, beams


def _endpoint_from_args(args, cfg: RunConfig):
    """The endpoint (None with ``--mock``) and the request defaults."""
    endpoint = None
    if not cfg.mock:
        endpoint = EndpointConfig(
            base_url=args.base_url or "",
            model=args.model or "",
            max_retries=args.max_retries,
            timeout=args.timeout,
        )
        # run in training mode stops at its prompts and sends no request
        if not endpoint.base_url and not (cfg.train_mode and args.command == "run"):
            raise ConfigError(
                f"no endpoint base URL: pass --base-url, set {ENV_BASE_URL} or pass --mock"
            )
    request_defaults = CompletionRequest(
        prompt="",
        max_tokens=args.max_tokens,
        temperature=args.temperature,
        stop=tuple(args.stop) if args.stop else DEFAULT_STOP,
    )
    return endpoint, request_defaults


@contextmanager
def _naming(path):
    """Name ``path``, the stage file whose rows the stage reads, in an
    :class:`UnknownIdError` it raises."""
    try:
        yield
    except UnknownIdError as exc:
        raise UnknownIdError(f"{path}: {exc}") from exc


def cmd_select(args) -> int:
    cfg, bundle, targets, beams = _load_inputs(args)
    selections = stage_select(bundle, targets, cfg, beams)
    write_rows(args.out, selections, "stage file")
    print(f"selected demonstrations for {len(selections)} examples -> {args.out}")
    return EXIT_OK


def cmd_prompt(args) -> int:
    cfg, bundle, targets, _ = _load_inputs(args)
    selections = read_rows(args.selections, SELECTION_ROW, "stage file")
    with _naming(args.selections):
        prompts = stage_prompt(bundle, targets, selections, cfg)
    write_rows(args.out, prompts, "stage file")
    print(f"formatted {len(prompts)} prompts -> {args.out}")
    return EXIT_OK


def cmd_infer(args) -> int:
    cfg, bundle, targets, _ = _load_inputs(args)
    prompts = read_rows(args.prompts, PROMPT_ROW, "stage file")
    endpoint, request_defaults = _endpoint_from_args(args, cfg)
    with _naming(args.prompts):
        predictions = stage_infer(bundle, targets, prompts, cfg, endpoint, request_defaults)
    write_rows(args.out, predictions, "stage file")
    print(f"inferred {len(predictions)} predictions -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, bundle, targets, _ = _load_inputs(args)
    prompts = read_rows(args.prompts, PROMPT_DEMOS_ROW, "stage file")
    predictions = read_rows(args.predictions, PREDICTION_ROW, "stage file")
    with _naming(args.prompts):
        report, records = stage_eval(bundle, targets, prompts, predictions, cfg)
    if not records:
        raise ConfigError(f"{args.predictions}: no prediction of a test example to score")
    code = _write_eval_outputs(report, records, args.out, args.csv, args.per_record)
    accuracy = report.get("accuracy", 0.0)
    print(f"evaluated {report.get('count', 0)} predictions, accuracy {accuracy:.3f}")
    return code


def cmd_run(args) -> int:
    cfg, bundle, targets, beams = _load_inputs(args)
    # bad request flags fail here, before any stage file is written
    endpoint, request_defaults = _endpoint_from_args(args, cfg)
    workdir = Path(args.workdir)
    try:
        workdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create work directory {workdir}: {exc}") from exc
    selections = stage_select(bundle, targets, cfg, beams)
    write_rows(workdir / "selections.jsonl", selections, "stage file")
    prompts = stage_prompt(bundle, targets, selections, cfg)
    write_rows(workdir / "prompts.jsonl", prompts, "stage file")
    if cfg.train_mode:
        print(f"wrote training prompts -> {workdir / 'prompts.jsonl'}")
        return EXIT_OK
    predictions = stage_infer(bundle, targets, prompts, cfg, endpoint, request_defaults)
    write_rows(workdir / "predictions.jsonl", predictions, "stage file")
    report, records = stage_eval(bundle, targets, prompts, predictions, cfg)
    code = _write_eval_outputs(
        report, records, workdir / "report.json", per_record=workdir / "records.jsonl"
    )
    print(
        f"run complete: accuracy {report.get('accuracy', 0.0):.3f} over "
        f"{report.get('count', 0)} examples -> {workdir / 'report.json'}"
    )
    return code


def cmd_gen_fixture(args) -> int:
    grammar = GrammarConfig.from_json(args.grammar) if args.grammar else None
    fixture = gen_fixture(
        grammar=grammar,
        n_train=args.n_train,
        n_test=args.n_test,
        split=args.split,
        seed=args.seed,
    )
    paths = write_fixture(fixture, args.out_dir)
    print(
        f"generated {args.n_train} train / {args.n_test} test examples "
        f"({args.split} split) -> {paths['train'].parent}"
    )
    return EXIT_OK


# --- argument parsing ------------------------------------------------------

# a flag that sets its option to True, and leaves it None (not given) otherwise
SWITCH = {"action": "store_const", "const": True}


def _add_index_args(parser):
    parser.add_argument("--corpus", action="append", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--value-parents", default="")


def _add_fixture_args(parser):
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--n-train", type=int, default=200)
    parser.add_argument("--n-test", type=int, default=50)
    parser.add_argument("--split", choices=("iid", "template", "held-out-ls"),
                        default="held-out-ls")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grammar")


def _stage_files(*required):
    """The adder of a stage command's ``--index``, ``--test`` and the file
    flags ``required``."""

    def add(parser):
        parser.add_argument("--index", required=True)
        parser.add_argument("--test")
        for name in required:
            parser.add_argument(f"--{name}", required=True)

    return add


def _add_report_args(parser):
    parser.add_argument("--csv")
    parser.add_argument("--per-record")


def _add_shared_args(parser):
    parser.add_argument("--strategy", choices=STRATEGIES)
    parser.add_argument("--k", type=int)
    parser.add_argument("--seed", type=int)


def _add_pool_args(parser):
    parser.add_argument("--retriever")
    parser.add_argument("--predictions")
    parser.add_argument("--oracle", **SWITCH)
    parser.add_argument("--max-ls-size", type=int)
    parser.add_argument("--beam-limit", type=int)
    parser.add_argument("--candidate-pool-size", type=int)
    parser.add_argument("--train-mode", **SWITCH)
    parser.add_argument("--fallback", choices=FALLBACKS)


def _add_prompt_args(parser):
    parser.add_argument("--order", choices=ORDERS)
    parser.add_argument("--programs-only", **SWITCH)
    parser.add_argument("--budget", type=int)


def _add_infer_args(parser):
    parser.add_argument("--mock", **SWITCH)
    parser.add_argument("--mock-threshold", type=int)
    parser.add_argument("--base-url")
    parser.add_argument("--model")
    parser.add_argument("--max-tokens", type=int, default=CompletionRequest.max_tokens)
    parser.add_argument("--temperature", type=float, default=CompletionRequest.temperature)
    parser.add_argument("--stop", action="append")
    parser.add_argument("--max-retries", type=int, default=EndpointConfig.max_retries)
    parser.add_argument("--timeout", type=float, default=EndpointConfig.timeout)
    parser.add_argument("--jobs", type=int)


# name: (help, command, its argument adders in the order of its help text)
COMMANDS = {
    "index": ("preprocess corpora and build retrieval indexes", cmd_index, [_add_index_args]),
    "gen-fixture": ("generate a synthetic corpus", cmd_gen_fixture, [_add_fixture_args]),
    "select": ("choose demonstrations per test example", cmd_select,
               [_stage_files("out"), _add_shared_args, _add_pool_args]),
    "prompt": ("render prompts from selections", cmd_prompt,
               [_stage_files("selections", "out"), _add_shared_args, _add_pool_args,
                _add_prompt_args]),
    "infer": ("complete prompts via endpoint or mock", cmd_infer,
              [_stage_files("prompts", "out"), _add_shared_args, _add_infer_args]),
    "eval": ("score predictions and write a report", cmd_eval,
             [_stage_files("prompts", "predictions", "out"), _add_report_args, _add_shared_args]),
    "run": ("select, prompt, infer and eval in one go", cmd_run,
            [_stage_files("workdir"), _add_shared_args, _add_pool_args, _add_prompt_args,
             _add_infer_args]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; parsing leaves
    it unchanged, so each call of :func:`main` reads its argv afresh."""
    parser = argparse.ArgumentParser(
        prog="demoselect",
        description="Select diverse demonstrations for in-context semantic parsing.",
    )
    parser.add_argument("--config", help="JSON config file of defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, command, adders) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for add in adders:
            add(p)
        p.set_defaults(func=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DemoselectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT if isinstance(exc, (TransportError, ApiError)) else EXIT_USAGE
    except Exception:  # noqa: BLE001 - never exit 1, the wrong-predictions code
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
