"""
Flag unhelpful benchmarks and learn a surrogate instead
=======================================================

When a benchmark's similarity weight stays below 0.5/N for several
consecutive iterations it is flagged as an outlier for this target task.
From then on its retrieved gains are replaced by the predictions of a small
edge-gain regressor: pre-trained on the benchmark's own gain graph, then
fine-tuned after every move on the moves the run has made, with the gains
actually observed on the target task.  Here every benchmark is mildly
anti-correlated with the target and swamped by an independent component, so
flags must trip and the fine-tuned surrogates should fit the target far better
than the pre-trained ones.
"""

from mdesign.engine import PlannerSettings, RefinementEngine, RunConfig
from mdesign.graph import build_graph, edge_samples
from mdesign.harness import CorrelationSpec, generate_landscapes, prediction_r2
from mdesign.space import DesignDimension, DesignSpace

space = DesignSpace(
    tuple(
        DesignDimension(name, ("v0", "v1", "v2", "v3"))
        for name in ("encoder", "mixer", "decoder")
    )
)

spec = CorrelationSpec(
    mix=(-0.25, -0.25, -0.25), independent_strength=1.0, unseen_noise=0.02
)
suite = generate_landscapes(space, n_benchmarks=3, correlation_spec=spec, seed=24)

config = RunConfig(
    budget=50,
    seed=4,
    init_strategy="uniform",
    window=20,
    planner=PlannerSettings(hidden_dim=32, pretrain_epochs=150, finetune_epochs=40, replay_mix=0.2),
)
engine = RefinementEngine(suite.store, config)
report = engine.run(suite.unseen_oracle())

# When did each benchmark get flagged?
seen: set[str] = set()
for rec in report.records:
    for tid in rec.flagged:
        if tid not in seen:
            seen.add(tid)
            print(f"iteration {rec.t:2d}: flagged {tid} (weight {rec.weights[tid]:.3f})")
print(f"flagged at the end: {report.records[-1].flagged}")

# Compare each flagged surrogate against the target task's true gains,
# before fine-tuning (fresh pre-training only) and after the run.
target_graph = build_graph(suite.full_store("unseen"), "unseen")
samples = edge_samples(target_graph)
pristine = RefinementEngine(suite.store, config)  # same seeds => same pre-training
for tid in report.records[-1].flagged:
    before = prediction_r2(pristine.ensure_regressor(tid), samples)
    after = prediction_r2(engine.regressors[tid], samples)
    print(f"{tid}: surrogate R^2 vs true target gains {before:+.3f} -> {after:+.3f}")

regret = suite.optimum_performance - report.best_performance
print(f"final regret {regret:.4f} after {report.oracle_calls} evaluations")
