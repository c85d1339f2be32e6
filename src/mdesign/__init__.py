"""Knowledge-base-driven iterative refinement of discrete architecture designs.

Workflow: load a design space and a benchmark knowledge store, initialize a
task-similarity view, then iteratively pick the one-hop modification with the
highest similarity-weighted benchmark gain, evaluate it, and update the
posterior.  Benchmarks whose weight stays persistently low are flagged and
served by a small learned gain regressor instead of raw retrieval.
"""

from .space import (
    DesignDimension,
    DesignSpace,
    DesignSpaceError,
    Modification,
    apply_modification,
    load_design_space,
)
from .store import (
    GainRecord,
    IngestError,
    KnowledgeStore,
    StoreError,
    StoreFormatError,
    TaskRecord,
    ingest_benchmark,
    load_store,
)
from .graph import (
    EdgeSample,
    GainGraph,
    GraphError,
    build_graph,
    edge_list_text,
    edge_samples,
    local_gains,
)
from .similarity import (
    SimilarityError,
    SimilarityView,
    TransferWindow,
    bayes_update,
    explicit_similarity,
    gaussian_likelihood,
    init_similarity_kendall,
    kendall_tau,
    uniform_similarity,
    update_transfer,
)
from .planner import (
    EdgeBatch,
    GainRegressor,
    OodFlags,
    PlannerError,
    RegressorHyper,
    ReplayBuffer,
    edge_features,
    featurize,
    fine_tune,
    predict_gain,
    pretrain_regressor,
    update_ood_flags,
    wasserstein_1d,
)
from .engine import (
    EngineError,
    EvaluationOracle,
    FunctionOracle,
    IterationRecord,
    PlannerSettings,
    RefinementEngine,
    RefinementReport,
    RefinementState,
    RunConfig,
    SpaceExhausted,
    WovenScore,
    initial_model,
    select_modification,
    weave_scores,
    write_report,
)
from .harness import (
    ConsistencyStats,
    CorrelationSpec,
    CoverageError,
    HarnessError,
    RunMetrics,
    SyntheticSuite,
    TaskLandscape,
    consistency_stats,
    evaluations_to_reach,
    generate_landscapes,
    metrics_from_performances,
    prediction_r2,
    replay_oracle,
    run_baseline,
    shared_edge_gains,
)

__version__ = "0.1.0"
