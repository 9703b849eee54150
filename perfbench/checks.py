"""Output checks. Each returns the ids of the operations whose outputs fail.

An operation is a test query (``run``), an indexed corpus (``index``) or an
endpoint request (``infer``). A missing or unreadable output file fails
every operation that should have written to it.
"""

from __future__ import annotations

import json
from pathlib import Path

from common import read_jsonl
from stub_server import reply_parts

COVER_STRATEGIES = ("cover-ls", "cover-utt")


def normalize_whitespace(text: str) -> str:
    return " ".join(text.split())


class Pool:
    """Training-pool programs by id, with templates derived on demand."""

    def __init__(self, train_rows: list[dict]):
        self.programs = {row["id"]: row["program"] for row in train_rows}
        self._templates: dict[str, str] = {}

    def template(self, example_id: str) -> str:
        if example_id not in self._templates:
            from demoselect.programs import parse_program, to_template

            program = parse_program(self.programs[example_id])
            self._templates[example_id] = to_template(program).text
        return self._templates[example_id]


def _rows_by_id(path: Path, expected: list[str]) -> dict[str, dict] | None:
    """Rows keyed by id, or None unless there is exactly one row per expected id."""
    try:
        rows = read_jsonl(path)
    except (OSError, ValueError):
        return None
    by_id = {row.get("id"): row for row in rows}
    if len(rows) != len(expected) or set(by_id) != set(expected):
        return None
    return by_id


def check_selection(record: dict, k: int, pool: Pool) -> bool:
    ids = [item[0] for item in record["items"]]
    if len(set(ids)) != len(ids) or len(ids) > k:
        return False
    if any(i not in pool.programs for i in ids):
        return False
    if record["underfilled"] != (len(ids) < k):
        return False
    if record["strategy"] in COVER_STRATEGIES:
        templates = [pool.template(i) for i in ids]
        if len(set(templates)) != len(templates):
            return False
    return True


def check_run(workdir: Path, tests: list[dict], k: int, pool: Pool) -> set[str]:
    """Checks on one `run --mock` work directory for the queries ``tests``."""
    ids = [t["id"] for t in tests]
    gold = {t["id"]: t["program"] for t in tests}
    selections = _rows_by_id(workdir / "selections.jsonl", ids)
    prompts = _rows_by_id(workdir / "prompts.jsonl", ids)
    predictions = _rows_by_id(workdir / "predictions.jsonl", ids)
    try:
        report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = None
    if selections is None or prompts is None or predictions is None or report is None:
        return set(ids)
    failed = set()
    matches = 0
    for example_id in ids:
        selection = selections[example_id]
        prompt = prompts[example_id]
        prediction = predictions[example_id]["prediction"]
        chosen = {item[0] for item in selection["items"]}
        demo_programs = [pool.programs.get(d) for d in prompt["demo_ids"]]
        ok = (
            check_selection(selection, k, pool)
            and set(prompt["demo_ids"]) <= chosen
            and (prediction == gold[example_id] or prediction in demo_programs)
        )
        if not ok:
            failed.add(example_id)
        matches += normalize_whitespace(prediction) == normalize_whitespace(
            gold[example_id]
        )
    if report.get("count") != len(ids) or report.get("accuracy") != matches / len(ids):
        return set(ids)
    return failed


def check_infer(predictions_path: Path, prompt_rows: list[dict]) -> set[str]:
    """Every prompt gets exactly one prediction: the stub's answer, trimmed."""
    ids = [row["id"] for row in prompt_rows]
    predictions = _rows_by_id(predictions_path, ids)
    if predictions is None:
        return set(ids)
    return {
        row["id"]
        for row in prompt_rows
        if predictions[row["id"]]["prediction"] != reply_parts(row["prompt"])[0].strip()
    }
