"""Prompt assembly: demonstration ordering, text rendering, truncation.

The rendered format is one ``source:``/``target:`` block per demonstration,
newline separated, ending with the test utterance's block whose target is
left empty for the model to complete.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from .errors import BudgetTooSmallError, ConfigError
from .selection import DemonstrationSet

TOKEN_SAFETY_FACTOR = 1.3


@dataclass
class Prompt:
    text: str
    demo_ids: list[str]
    truncated_count: int
    blocks: list[str] = field(default_factory=list)
    test_block: str = ""


def default_token_counter(text: str) -> int:
    """Whitespace token count with a safety factor, standing in for a real tokenizer."""
    return math.ceil(len(text.split()) * TOKEN_SAFETY_FACTOR)


def order_demonstrations(
    demos: DemonstrationSet | Sequence[tuple[str, float]],
    mode: str = "ascending-score",
    seed: int | None = None,
) -> list[tuple[str, float]]:
    """Order for rendering: best-scoring demo last (closest to the test
    utterance), or a seed-deterministic shuffle for training prompts."""
    items = list(demos.items if isinstance(demos, DemonstrationSet) else demos)
    if mode == "ascending-score":
        return sorted(items, key=lambda p: p[1])
    if mode == "shuffled":
        rng = random.Random(seed)
        rng.shuffle(items)
        return items
    raise ConfigError(f"unknown ordering mode {mode!r}")


def format_prompt(
    demos: Sequence[tuple[str, str, str]],
    test_utterance: str,
    include_utterances: bool = True,
) -> Prompt:
    """Render (id, utterance, program) demos plus the test utterance.

    With ``include_utterances=False`` only the programs are shown, the
    compact form used when prompts feed a finetuned model.
    """
    blocks = []
    ids = []
    for demo_id, utterance, program in demos:
        ids.append(demo_id)
        if include_utterances:
            blocks.append(f"source: {utterance}\ntarget: {program}")
        else:
            blocks.append(f"target: {program}")
    test_block = f"source: {test_utterance}\ntarget:"
    text = "\n".join(blocks + [test_block])
    return Prompt(
        text=text,
        demo_ids=ids,
        truncated_count=0,
        blocks=blocks,
        test_block=test_block,
    )


def truncate_prompt(prompt: Prompt, budget: int) -> Prompt:
    """Drop whole demonstrations from the front until the prompt fits
    ``budget`` tokens, as :func:`default_token_counter` counts them.

    Front blocks are the lowest-scoring ones under ascending ordering. The
    test block is never dropped; a budget it cannot fit is an error.
    """
    if default_token_counter(prompt.test_block) > budget:
        raise BudgetTooSmallError(
            f"budget {budget} cannot fit the test block alone"
        )
    blocks = list(prompt.blocks)
    ids = list(prompt.demo_ids)
    dropped = 0
    text = "\n".join(blocks + [prompt.test_block])
    while default_token_counter(text) > budget and blocks:
        blocks.pop(0)
        ids.pop(0)
        dropped += 1
        text = "\n".join(blocks + [prompt.test_block])
    return Prompt(
        text=text,
        demo_ids=ids,
        truncated_count=prompt.truncated_count + dropped,
        blocks=blocks,
        test_block=prompt.test_block,
    )
