"""Diverse demonstration selection for in-context semantic parsing.

The package reads functional programs into sibling-augmented trees (as
arrays, in one walk), enumerates their local structures, and selects
demonstration sets that cover the structures a test program is predicted to
need. Selected sets are rendered into prompts, completed by an endpoint or a
deterministic mock, and scored with coverage, diversity and error metrics.
"""

from .corpus import (
    Corpus,
    Example,
    IndexBundle,
    PredictionBundle,
    build_indexes,
    load_examples,
    load_predictions,
    make_example,
)
from .errors import (
    ApiError,
    BudgetTooSmallError,
    ConfigError,
    CorpusError,
    DemoselectError,
    GenerationError,
    IndexVersionError,
    InvalidKError,
    IoError,
    ParseError,
    TransportError,
)
from .evaluation import (
    EvalRecord,
    aggregate,
    classify_errors,
    coverage_metrics,
    error_labels,
    evaluate_record,
    exact_match,
)
from .fixtures import FixtureCorpus, GrammarConfig, gen_fixture, write_fixture
from .gateway import (
    CompletionRequest,
    CompletionResult,
    EndpointConfig,
    MockOracleConfig,
    complete,
    mock_complete,
)
from .programs import (
    DialectConfig,
    ProgramWalk,
    RepairResult,
    Template,
    anonymize,
    parse_program,
    render,
    repair_parentheses,
    to_template,
)
from .prompting import (
    Prompt,
    default_token_counter,
    format_prompt,
    order_demonstrations,
    truncate_prompt,
)
from .retrieval import (
    Bm25Index,
    ls_tfidf_vectors,
    random_scores,
    tokenize_utterance,
)
from .selection import (
    DemonstrationSet,
    cover_ls,
    cover_utt,
    dpp_select,
    oracle_elements,
    select_random,
    select_top_k,
    training_mode_select,
)
from .structures import (
    LocalStructure,
    StructureGraph,
    build_structure_graph,
    count_local_structures,
    enumerate_local_structures,
    ls_size,
)

__version__ = "0.1.0"
