"""The traced run: per-layer metrics from spans around calls into each module.

The traced run covers both workloads and two flows that only it runs:
`demoselect index` over the pool-3k-k8 corpus, and `demoselect infer`
against the stub completion server over prompts of the pool-1k-k24 corpus.
Several layers work in only one of these, so every traced run reports all
of them, whatever workload it is given.

For each workload and flow, the traced run first runs the CLI commands
once with tracing off (the first query chunk, one command per
configuration), then replays the same work through the package's public
functions with a span around each call into a module, and requires the
replay to write the CLI's output files byte for byte. The workloads also
chain the four stage commands (``select``, ``prompt``, ``infer``,
``eval``) for one configuration and require the same outputs as ``run``.
A short probe pass times the layers that the replayed calls hide inside
them: per-program parsing and structure enumeration, and the BM25 and
tf-idf builds.

Spans are kept in memory and written to ``.work/traces`` when the run
ends.
"""

from __future__ import annotations

import hashlib
import json
import threading
import zlib
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter

from checks import Pool, check_infer, check_run
from common import (
    WORK,
    BenchError,
    cli,
    fresh_dir,
    median,
    percentile,
    prepare_inputs,
    read_jsonl,
    write_jsonl,
)
from endpoint import (
    ENDPOINT_JOBS,
    StubProcess,
    endpoint_prompts,
    infer_argv,
    write_reject_file,
)
from workloads import RUN_OUTPUTS, WORKLOADS, Outcome, run_argv

LAYERS = (
    "programs",
    "structures",
    "corpus",
    "retrieval",
    "selection",
    "prompting",
    "gateway",
    "evaluation",
    "cli",
)
SELECTION_SPANS = {
    "top-k": "selection.top_k",
    "random": "selection.random",
    "cover-ls": "selection.cover_ls",
    "cover-utt": "selection.cover_utt",
    "dpp": "selection.dpp",
}
# The configuration of each pool workload whose stage commands are chained.
CHAINED = {"pool-3k-k8": "cover-ls-oracle", "pool-1k-k24": "cover-ls-beams"}

# CLI defaults that `run` applies and the replay must apply the same way.
RUN_SEED = 0
CANDIDATE_POOL_SIZE = 200
MOCK_THRESHOLD = 2


class Tracer:
    """In-memory spans ``[name, start, end, parent, query]`` of one workload.

    The parent is the index of the enclosing span on the same thread, or
    the one given explicitly (for spans opened on worker threads). The
    query id is inherited from the parent unless given.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, query: str | None = None, parent: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        if query is None and parent is not None:
            query = self.spans[parent][4]
        record = [name, perf_counter(), None, parent, query]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            record[2] = perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


def self_times(tracers) -> dict[str, float]:
    """Per layer: span time not covered by the span's children."""
    totals: dict[str, float] = defaultdict(float)
    for tr in tracers:
        children = defaultdict(list)
        for _, start, end, parent, _ in tr.spans:
            if parent is not None:
                children[parent].append((start, end))
        for index, (name, start, end, _, _) in enumerate(tr.spans):
            covered, reach = 0.0, start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start, child_end = max(child_start, reach), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            totals[name.split(".")[0]] += (end - start) - covered
    return totals


def _timing(metrics: dict, name: str, seconds: list[float], scale: float, unit: str):
    """Median and p90 of ``seconds`` in ``unit``, with the sample count."""
    if not seconds:
        raise BenchError(f"no samples for {name}")
    metrics[f"{name}_p50"] = (median(seconds) * scale, unit)
    metrics[f"{name}_p90"] = (percentile(seconds, 90) * scale, unit)
    metrics[f"{name}_n"] = (len(seconds), "count")


def _same_files(left, right, names) -> bool:
    return all(
        (left / n).exists()
        and (right / n).exists()
        and (left / n).read_bytes() == (right / n).read_bytes()
        for n in names
    )


# --- pool workloads ------------------------------------------------------------


def _example_seed(seed: int, example_id: str) -> int:
    return zlib.crc32(f"{seed}:{example_id}".encode("utf-8"))


def _select(config, k, bundle, example, scores, beams):
    from demoselect import cover_ls, cover_utt, dpp_select, oracle_elements
    from demoselect import select_random, select_top_k

    pool = bundle.pool
    if config.strategy == "top-k":
        return select_top_k(pool, scores, k)
    if config.strategy == "random":
        return select_random(pool, k, seed=_example_seed(RUN_SEED, example.id))
    if config.strategy == "dpp":
        return dpp_select(scores, bundle.tfidf, k, CANDIDATE_POOL_SIZE)
    if config.strategy == "cover-ls":
        if config.oracle:
            elements = oracle_elements(example.program, bundle.corpus.dialect)
        else:
            bundle_for_id = beams.get(example.id)
            elements = set(bundle_for_id.ls_union) if bundle_for_id else set()
        if elements:
            return cover_ls(elements, pool, scores, k, postings=bundle.ls_postings)
    # cover-utt, and cover-ls's fallback when there is nothing to cover
    return cover_utt(
        example.utterance,
        pool,
        scores,
        k,
        idf=bundle.bm25_utterance.idf,
        postings=bundle.token_postings,
    )


def replay_run(tr: Tracer, inputs, k: int, config, chunk: int, workdir, counters, df):
    """`demoselect run --mock` through the package's public functions."""
    from demoselect import (
        IndexBundle,
        MockOracleConfig,
        aggregate,
        evaluate_record,
        format_prompt,
        load_examples,
        load_predictions,
        mock_complete,
        order_demonstrations,
        truncate_prompt,
    )
    from demoselect.retrieval import tokenize_utterance

    with tr.span("corpus.index_load"):
        bundle = IndexBundle.load(inputs.index)
    dialect = bundle.corpus.dialect
    with tr.span("corpus.load_examples"):
        tests = list(load_examples(inputs.chunk(chunk), dialect, default_split="test").examples)
    beams = {}
    if config.beams:
        with tr.span("corpus.load_predictions"):
            beams = load_predictions(inputs.beams(chunk), dialect)
    by_id = {ex.id: ex for ex in tests}

    selections = []
    for ex in tests:
        with tr.span("retrieval.bm25", query=ex.id):
            query = tokenize_utterance(ex.utterance)
            scores = bundle.bm25_utterance.scores(query)
        counters["queries"] += 1
        counters["postings"] += sum(df.get(t, 0) for t in query)
        counters["nonzero"] += sum(1 for v in scores.values() if v > 0)
        counters["scored"] += len(scores)
        with tr.span(SELECTION_SPANS[config.strategy], query=ex.id):
            result = _select(config, k, bundle, ex, scores, beams)
        selections.append(
            {
                "id": ex.id,
                "strategy": result.strategy,
                "k": result.k,
                "items": [[i, s] for i, s in result.items],
                "coverage_trace": [[p, e] for p, e in result.coverage_trace],
                "underfilled": result.underfilled,
            }
        )
    write_jsonl(workdir / "selections.jsonl", selections)

    prompts = []
    for record in selections:
        ex = by_id[record["id"]]
        with tr.span("prompting.render", query=ex.id):
            ordered = order_demonstrations(
                [(i, s) for i, s in record["items"]],
                mode="ascending-score",
                seed=_example_seed(RUN_SEED, ex.id),
            )
            demos = []
            for demo_id, _ in ordered:
                demo = bundle.pool.get(demo_id) or bundle.corpus.by_id[demo_id]
                demos.append((demo.id, demo.utterance, demo.program))
            prompt = format_prompt(demos, ex.utterance, include_utterances=True)
            if config.budget is not None:
                prompt = truncate_prompt(prompt, config.budget)
        prompts.append(
            {
                "id": ex.id,
                "prompt": prompt.text,
                "demo_ids": prompt.demo_ids,
                "truncated": prompt.truncated_count,
            }
        )
    write_jsonl(workdir / "prompts.jsonl", prompts)

    mock_config = MockOracleConfig(compose_threshold_size=MOCK_THRESHOLD)
    predictions = []
    for row in prompts:
        ex = by_id[row["id"]]
        demo_programs = [bundle.corpus.by_id[d].program for d in row["demo_ids"]]
        with tr.span("gateway.mock", query=ex.id):
            text = mock_complete(demo_programs, ex.program, mock_config, dialect)
        predictions.append({"id": row["id"], "prediction": text})
    write_jsonl(workdir / "predictions.jsonl", predictions)

    with tr.span("corpus.training_ls_union"):
        training_union = bundle.training_ls_union()
    demo_ids = {row["id"]: row["demo_ids"] for row in prompts}
    records = []
    for row in predictions:
        ex = by_id[row["id"]]
        demos = [bundle.corpus.by_id[d] for d in demo_ids[row["id"]]]
        with tr.span("evaluation.record", query=ex.id):
            records.append(
                evaluate_record(
                    example_id=ex.id,
                    pred=row["prediction"],
                    gold=ex.program,
                    demo_programs=[d.program for d in demos],
                    demo_ls_sets=[d.ls_set for d in demos],
                    gold_ls_set=ex.ls_set,
                    training_ls_union=training_union,
                    dialect=dialect,
                    strategy=config.strategy,
                )
            )
    with tr.span("evaluation.aggregate"):
        report = aggregate(records, by_strategy=False)
    (workdir / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2), encoding="utf-8"
    )
    return selections, prompts


def chain_stages(tr: Tracer, inputs, k: int, config, run_dir, workdir) -> bool:
    """`select`, `prompt`, `infer`, `eval` one after another; True when the
    chain returns 0/1 and writes `run`'s outputs byte for byte."""
    common = ["--index", inputs.index, "--test", inputs.chunk(0)]
    sel, prm, pred = workdir / RUN_OUTPUTS[0], workdir / RUN_OUTPUTS[1], workdir / RUN_OUTPUTS[2]
    stages = (
        ("cli.select", ["select", *common, "--k", k, *config.select_argv(inputs, 0), "--out", sel]),
        ("cli.prompt", ["prompt", *common, *config.prompt_argv(), "--selections", sel, "--out", prm]),
        ("cli.infer", ["infer", *common, "--mock", "--prompts", prm, "--out", pred]),
        (
            "cli.eval",
            ["eval", *common, "--strategy", config.strategy, "--prompts", prm,
             "--predictions", pred, "--out", workdir / RUN_OUTPUTS[3]],
        ),
    )
    codes = []
    for name, argv in stages:
        with tr.span(name):
            codes.append(cli(argv))
    return all(c in (0, 1) for c in codes) and _same_files(workdir, run_dir, RUN_OUTPUTS)


def trace_pool(name: str, seed: int, size: str, out: Outcome, samples: dict) -> Tracer:
    from demoselect.retrieval import tokenize_utterance

    wl = WORKLOADS[name]
    inputs = prepare_inputs(wl.split, seed, size)
    train = read_jsonl(inputs.train)
    pool = Pool(train)
    tests = read_jsonl(inputs.chunk(0))
    ids = {t["id"] for t in tests}
    counters = samples.setdefault(name, Counter())
    # document frequencies of the pool's utterance tokens, for postings counts
    df = Counter(t for row in train for t in set(tokenize_utterance(row["utterance"])))
    tr = Tracer(name)
    for config in wl.configs:
        run_dir = fresh_dir("trace", name, config.name, "run")
        start = perf_counter()
        code = cli(run_argv(inputs, wl, config, 0, run_dir))
        counters["untraced_s"] += perf_counter() - start
        failed = check_run(run_dir, tests, wl.k, pool) if code in (0, 1) else ids

        replay_dir = fresh_dir("trace", name, config.name, "replay")
        with tr.span("replay.run") as root:
            selections, prompts = replay_run(
                tr, inputs, wl.k, config, 0, replay_dir, counters, df
            )
        counters["traced_s"] += tr.spans[root][2] - tr.spans[root][1]
        if not _same_files(replay_dir, run_dir, RUN_OUTPUTS):
            failed = ids
        out.attempted += 2 * len(tests)
        out.failed += len(failed)

        samples.setdefault("selections", []).extend(selections)
        if config.budget is not None:
            samples.setdefault("budget_prompts", []).extend(prompts)
        if CHAINED[name] == config.name:
            chain_dir = fresh_dir("trace", name, config.name, "chain")
            out.attempted += len(tests)
            if not chain_stages(tr, inputs, wl.k, config, run_dir, chain_dir):
                out.failed += len(tests)
    return tr


# --- ingest ------------------------------------------------------------------


def trace_ingest(seed: int, size: str, out: Outcome, samples: dict) -> Tracer:
    from demoselect import Corpus, IndexBundle, build_indexes, load_examples
    from demoselect.programs import DEFAULT_DIALECT, anonymize, parse_program
    from demoselect.retrieval import Bm25Index, ls_tfidf_vectors
    from demoselect.structures import build_structure_graph, count_local_structures

    inputs = prepare_inputs("template", seed, size)
    rows = read_jsonl(inputs.train) + read_jsonl(inputs.test)
    cli_dir = fresh_dir("trace", "ingest", "cli")
    replay_dir = fresh_dir("trace", "ingest", "replay")
    code = cli(["index", "--corpus", inputs.train, "--corpus", inputs.test,
                "--out", cli_dir / "index.json"])
    tr = Tracer("ingest")
    with tr.span("replay.index"):
        examples = []
        with tr.span("corpus.load_examples"):
            for path in (inputs.train, inputs.test):
                examples.extend(load_examples(path, DEFAULT_DIALECT).examples)
        with tr.span("corpus.build_indexes"):
            bundle = build_indexes(Corpus(examples=examples, dialect=DEFAULT_DIALECT))
        with tr.span("corpus.save"):
            bundle.save(replay_dir / "index.json")
    with tr.span("replay.reload"):
        with tr.span("corpus.index_load"):
            reloaded = IndexBundle.load(replay_dir / "index.json")
        with tr.span("corpus.save"):
            reloaded.save(replay_dir / "resaved.json")
    # two indexed corpora: the CLI's and the replay's, which must be equal;
    # the reload must hold every example and re-save byte for byte
    out.attempted += 2
    index_bytes = (cli_dir / "index.json").read_bytes() if code == 0 else b""
    if (replay_dir / "index.json").read_bytes() != index_bytes:
        out.failed += 2
    elif len(reloaded.corpus) != len(rows) or (
        (replay_dir / "resaved.json").read_bytes() != index_bytes
    ):
        out.failed += 1
    samples["index_bytes"] = (replay_dir / "index.json").stat().st_size
    samples["index_examples"] = len(rows)

    # Probes: the layer calls that load_examples and build_indexes make.
    ls_counts = []
    with tr.span("probe.programs"):
        for row in rows:
            with tr.span("programs.parse", query=row["id"]):
                ast = anonymize(parse_program(row["program"], DEFAULT_DIALECT))
            with tr.span("structures.enumerate", query=row["id"]):
                counts = count_local_structures(build_structure_graph(ast))
            ls_counts.append(len(counts))
    samples["ls_per_program"] = sum(ls_counts) / len(ls_counts)
    pool = bundle.pool.values()
    with tr.span("probe.retrieval"):
        with tr.span("retrieval.bm25_build"):
            Bm25Index({ex.id: ex.utt_tokens for ex in pool})
            Bm25Index({ex.id: ex.symbol_seq for ex in pool})
        with tr.span("retrieval.tfidf_build"):
            ls_tfidf_vectors({ex.id: ex.ls_counts for ex in pool})
    return tr


# --- endpoint ------------------------------------------------------------------


def trace_endpoint(seed: int, size: str, out: Outcome, samples: dict) -> Tracer:
    from demoselect import CompletionRequest, EndpointConfig, IndexBundle, complete

    inputs = prepare_inputs("held-out-ls", seed, size)
    prompts = endpoint_prompts(inputs)
    rows = read_jsonl(prompts)
    ids = {row["id"] for row in rows}
    cli_dir = fresh_dir("trace", "endpoint", "cli")
    replay_dir = fresh_dir("trace", "endpoint", "replay")
    reject_file = cli_dir / "rejects.txt"
    rejects = write_reject_file(rows, seed, reject_file)
    tr = Tracer("endpoint")
    with StubProcess(reject_file) as stub:
        code = cli(infer_argv(inputs, prompts, cli_dir / "predictions.jsonl", stub.url))
        failed = check_infer(cli_dir / "predictions.jsonl", rows) if code == 0 else ids
        before = stub.stats()
        with tr.span("replay.infer") as root:
            with tr.span("corpus.index_load"):
                IndexBundle.load(inputs.index)
            endpoint = EndpointConfig(base_url=stub.url, model="stub")

            def one(row):
                with tr.span("gateway.request", query=row["id"], parent=root):
                    return complete(CompletionRequest(prompt=row["prompt"]), endpoint)

            with ThreadPoolExecutor(max_workers=ENDPOINT_JOBS) as pool:
                results = list(pool.map(one, rows))
        after = stub.stats()
    write_jsonl(
        replay_dir / "predictions.jsonl",
        [{"id": row["id"], "prediction": r.text.strip()} for row, r in zip(rows, results)],
    )
    retries = sum(r.retries for r in results)
    rejected = after["rejected"] - before["rejected"]
    # the client's retries must equal the 429s the stub injected, exactly
    if not _same_files(replay_dir, cli_dir, ["predictions.jsonl"]) or not (
        retries == rejected == len(rejects)
    ):
        failed = ids
    out.attempted += 2 * len(rows)
    out.failed += 2 * len(failed)
    samples["requests"] = len(rows)
    samples["retries"] = retries
    samples["connections"] = after["connections"] - before["connections"]
    return tr


# --- the traced run ------------------------------------------------------------


def _layer_metrics(tracers: dict, samples: dict) -> dict:
    m: dict = {}
    ingest, pool3k, pool1k = tracers["ingest"], tracers["pool-3k-k8"], tracers["pool-1k-k24"]
    endpoint = tracers["endpoint"]

    _timing(m, "programs.parse_us", ingest.durations("programs.parse"), 1e6, "us")
    _timing(m, "structures.enumerate_us", ingest.durations("structures.enumerate"), 1e6, "us")
    m["structures.ls_per_program"] = (samples["ls_per_program"], "count")

    m["corpus.load_examples_s"] = (ingest.total("corpus.load_examples"), "s")
    m["corpus.build_indexes_s"] = (ingest.total("corpus.build_indexes"), "s")
    m["corpus.save_s"] = (ingest.durations("corpus.save")[0], "s")
    m["corpus.index_load_s"] = (ingest.total("corpus.index_load"), "s")
    m["corpus.load_predictions_s"] = (pool1k.total("corpus.load_predictions"), "s")
    m["corpus.index_bytes_per_example"] = (
        samples["index_bytes"] / samples["index_examples"], "bytes")

    counters = samples["pool-3k-k8"]
    _timing(m, "retrieval.bm25_ms", pool3k.durations("retrieval.bm25"), 1e3, "ms")
    m["retrieval.postings_per_query"] = (counters["postings"] / counters["queries"], "count")
    m["retrieval.nonzero_share"] = (counters["nonzero"] / counters["scored"], "share")
    m["retrieval.bm25_build_s"] = (ingest.total("retrieval.bm25_build"), "s")
    m["retrieval.tfidf_build_s"] = (ingest.total("retrieval.tfidf_build"), "s")

    for strategy in ("top_k", "random", "cover_ls", "cover_utt"):
        _timing(m, f"selection.{strategy}_ms", pool3k.durations(f"selection.{strategy}"), 1e3, "ms")
    _timing(m, "selection.dpp_ms", pool1k.durations("selection.dpp"), 1e3, "ms")
    selections = samples["selections"]
    m["selection.underfilled_share"] = (
        sum(s["underfilled"] for s in selections) / len(selections), "share")
    trace = [e for s in selections for e in s["coverage_trace"]]
    m["selection.trace_miss_share"] = (
        sum(e[1] is None for e in trace) / max(1, len(trace)), "share")

    _timing(m, "prompting.render_us", pool1k.durations("prompting.render"), 1e6, "us")
    budget_prompts = samples["budget_prompts"]
    m["prompting.truncated_share"] = (
        sum(p["truncated"] > 0 for p in budget_prompts) / len(budget_prompts), "share")

    _timing(m, "gateway.mock_ms", pool1k.durations("gateway.mock"), 1e3, "ms")
    _timing(m, "gateway.request_ms", endpoint.durations("gateway.request"), 1e3, "ms")
    m["gateway.retries_per_request"] = (samples["retries"] / samples["requests"], "count")
    m["gateway.connections_per_request"] = (
        samples["connections"] / samples["requests"], "count")

    records = pool3k.durations("evaluation.record") + pool1k.durations("evaluation.record")
    _timing(m, "evaluation.record_ms", records, 1e3, "ms")

    for stage in ("select", "prompt", "infer", "eval"):
        m[f"cli.{stage}_s"] = (pool3k.total(f"cli.{stage}") + pool1k.total(f"cli.{stage}"), "s")

    own = self_times(tracers.values())
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")

    queries = samples["pool-3k-k8"]["queries"] + samples["pool-1k-k24"]["queries"]
    untraced = queries / (samples["pool-3k-k8"]["untraced_s"] + samples["pool-1k-k24"]["untraced_s"])
    traced = queries / (samples["pool-3k-k8"]["traced_s"] + samples["pool-1k-k24"]["traced_s"])
    m["trace.items_per_s_untraced"] = (untraced, "items/s")
    m["trace.items_per_s_traced"] = (traced, "items/s")
    m["trace.overhead_items_per_s"] = (traced - untraced, "items/s")
    return m


def write_spans(tracers: dict, path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for tr in tracers.values():
            for name, start, end, parent, query in tr.spans:
                handle.write(json.dumps({
                    "workload": tr.workload, "name": name, "start": start,
                    "end": end, "parent": parent, "query": query,
                }) + "\n")


def run_traced(seed: int, size: str) -> Outcome:
    """Replay every workload once with spans; report the per-layer metrics."""
    out = Outcome(inputs_digest="")
    samples: dict = {}
    tracers = {
        "pool-3k-k8": trace_pool("pool-3k-k8", seed, size, out, samples),
        "pool-1k-k24": trace_pool("pool-1k-k24", seed, size, out, samples),
        "ingest": trace_ingest(seed, size, out, samples),
        "endpoint": trace_endpoint(seed, size, out, samples),
    }
    digests = sorted(
        prepare_inputs(split, seed, size).digest for split in ("template", "held-out-ls")
    )
    out.inputs_digest = hashlib.sha256("".join(digests).encode("utf-8")).hexdigest()
    out.metrics = _layer_metrics(tracers, samples)
    write_spans(tracers, WORK / "traces" / f"trace-{size}-seed{seed}.jsonl")
    return out
