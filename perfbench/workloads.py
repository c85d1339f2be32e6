"""The benchmark's workloads: seeded inputs, one timed instance, output checks.

Each workload builds a pool of instances from the benchmark seed before any
timing starts.  ``Instance.run`` hands the generated inputs to the program
through a public entry point (``RefinementEngine.run`` or
``cli_run(["refine", ...])``) and times only that call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from mdesign.cli import cli_run
from mdesign.engine import PlannerSettings, RefinementEngine, RunConfig
from mdesign.graph import build_graph, edge_samples
from mdesign.harness import CorrelationSpec, generate_landscapes, replay_oracle
from mdesign.space import DesignDimension, DesignSpace
from mdesign.store import load_store


class InstanceFailed(Exception):
    """The program exited non-zero or its outputs failed a check."""


@dataclass(frozen=True)
class Outcome:
    """One checked instance run, reduced to what the benchmark reports.

    Records are not kept, so memory does not grow with the instance count.
    """

    started: float  # perf_counter() when the inputs were handed to the program
    run_s: float
    digest: str
    iterations: int
    regret: float
    evals_to_opt: float  # 1-based evaluation that first reached the optimum
    zero_weight_task_steps: int  # step records' (step, task) weights exactly 0.0
    flagged_task_steps: int
    useful_flagged_task_steps: int  # flagged task-steps with weight > 0


@dataclass(frozen=True)
class Instance:
    key: int  # position in the pool; repeated runs of one key must agree
    run: Callable[[], Outcome]
    setup_only: Callable[[], None] | None = None  # a budget-0 run: set-up, no steps
    # Builds an in-process copy of the run and returns a function that replays
    # its step loop, returning the report digest.
    step_replayer: Callable[[], Callable[[], str]] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    make_pool: Callable[[int, Path], list[Instance]]
    # Budget-0 runs after each instance run, for more set-up samples where
    # set-up is short and instance runs are few.
    extra_setups: int = 0
    # Share of a run spent replaying step loops in process before the timed
    # runs, for more step samples where steps are few and set-up is long.
    step_replay_share: float = 0.0


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one input, from the benchmark seed."""
    seq = np.random.SeedSequence([seed % 2**63, *path])
    return int(seq.generate_state(1)[0])


def make_space(*sizes: int) -> DesignSpace:
    return DesignSpace(
        DesignDimension(f"dim{d}", tuple(f"c{c}" for c in range(size)))
        for d, size in enumerate(sizes)
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def checked_outcome(
    started: float, run_s: float, digest: str, records: list[dict], summary: dict, optimum: float
) -> Outcome:
    """Check the report's invariants (``InstanceFailed`` if broken) and reduce it."""
    for rec in records:
        weights = list(rec["weights"].values())
        if not all(math.isfinite(w) and w >= 0.0 for w in weights):
            raise InstanceFailed(f"t={rec['t']}: posterior weight not finite and >= 0")
        if abs(math.fsum(weights) - 1.0) > 1e-9:
            raise InstanceFailed(f"t={rec['t']}: posterior weights sum to {math.fsum(weights)!r}")
    if summary["oracle_calls"] != summary["iterations"] + 1:
        raise InstanceFailed(
            f"oracle_calls {summary['oracle_calls']} != iterations {summary['iterations']} + 1"
        )
    best = summary["best"]["performance"]
    if best != max(rec["performance"] for rec in records):
        raise InstanceFailed("best_performance is not the maximum recorded performance")
    if best > optimum:
        raise InstanceFailed(f"best_performance {best!r} exceeds the known optimum {optimum!r}")
    evals_to_opt = next(
        (float(i + 1) for i, rec in enumerate(records) if rec["best_performance"] == optimum),
        math.inf,
    )
    zero = flagged = useful = 0
    for rec in records:
        if rec["event"] != "step":
            continue
        zero += sum(1 for w in rec["weights"].values() if w == 0.0)
        flagged += len(rec["flagged"])
        useful += sum(1 for tid in rec["flagged"] if rec["weights"][tid] > 0.0)
    return Outcome(
        started, run_s, digest, summary["iterations"], optimum - best, evals_to_opt, zero, flagged, useful
    )


def _engine_instance(key: int, suite, config: RunConfig) -> Instance:
    def run() -> Outcome:
        oracle = suite.unseen_oracle()
        start = perf_counter()
        report = RefinementEngine(suite.store, config).run(oracle)
        run_s = perf_counter() - start
        records, summary = report.to_records(), report.summary()
        text = json.dumps([records, summary], sort_keys=True, separators=(",", ":"))
        return checked_outcome(
            start, run_s, sha256(text.encode()), records, summary, suite.optimum_performance
        )

    def setup_only() -> None:
        RefinementEngine(suite.store, replace(config, budget=0)).run(suite.unseen_oracle())

    return Instance(key, run, setup_only)


# ---------------------------------------------------------------- copy-weave

SPACE_5X5X5 = make_space(5, 5, 5)


def copy_weave_pool(seed: int, workdir: Path) -> list[Instance]:
    """Criterion 05/09 instances: the target copies benchmark ``key % 5``.

    Noise is 10% of the copied benchmark's median |edge gain|; uniform init,
    no OOD adaptation, budget 100.
    """
    pool = []
    for key in range(COPY_WEAVE.pool_size):
        inst_seed = derive_seed(seed, 1, key)
        k = key % 5
        spec = CorrelationSpec(mix=tuple(1.0 if i == k else 0.0 for i in range(5)))
        clean = generate_landscapes(SPACE_5X5X5, 5, spec, seed=inst_seed)
        gains = edge_samples(build_graph(clean.store, f"bench{k:02d}"))
        sigma = 0.1 * statistics.median(abs(s.gain) for s in gains)
        suite = generate_landscapes(
            SPACE_5X5X5, 5, replace(spec, unseen_noise=sigma), seed=inst_seed
        )
        config = RunConfig(
            budget=100, seed=inst_seed, init_strategy="uniform", ood_adaptation=False
        )
        pool.append(_engine_instance(key, suite, config))
    return pool


# ----------------------------------------------------------- adversarial-ood

ADVERSARIAL_SPEC = CorrelationSpec(mix=(-0.25,) * 5, independent_strength=1.0, unseen_noise=0.02)
ADVERSARIAL_PLANNER = PlannerSettings(
    hidden_dim=32, pretrain_epochs=150, finetune_epochs=40, replay_mix=0.2
)


def adversarial_pool(seed: int, workdir: Path) -> list[Instance]:
    """Criterion 07 instances: all five benchmarks anti-correlate; OOD on, budget 80."""
    pool = []
    for key in range(ADVERSARIAL_OOD.pool_size):
        inst_seed = derive_seed(seed, 2, key)
        suite = generate_landscapes(SPACE_5X5X5, 5, ADVERSARIAL_SPEC, seed=inst_seed)
        config = RunConfig(
            budget=80,
            seed=inst_seed,
            init_strategy="uniform",
            window=20,
            ood_adaptation=True,
            planner=ADVERSARIAL_PLANNER,
        )
        pool.append(_engine_instance(key, suite, config))
    return pool


# ----------------------------------------------------------------- nas-scale

NAS_OPS = ("none", "skip_connect", "nor_conv_1x1", "nor_conv_3x3", "avg_pool_3x3")
NAS_EDGES = ("e1_0", "e2_0", "e2_1", "e3_0", "e3_1", "e3_2")  # NAS-Bench-201 cell edges
# Three benchmarks, not the ten of the full NAS-Bench-201 suite: each gain
# graph still spans all 15,625 designs, and a refine takes ~5 s instead of
# ~15-20 s, so a run can repeat it often enough to time its fastest repeat.
NAS_SYNTH = {
    "n_benchmarks": 3,
    "interaction_strength": 0.3,
    "benchmark_noise": 0.05,
    "unseen_noise": 0.05,
    "independent_strength": 0.5,
}


def _quiet_cli(argv: list[str]) -> None:
    """``cli_run`` with its console output captured; raise on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_run(argv)
    if code != 0:
        raise InstanceFailed(f"mdesign {argv[0]} exited {code}: {err.getvalue().strip()}")


def nas_pool(seed: int, workdir: Path) -> list[Instance]:
    """Synthetic 5^6 stores (3 benchmarks + ``unseen``), each refined through the CLI.

    ``mdesign synth`` runs here, untimed.  The refine is kendall-initialised,
    OOD off, budget 100 (100 steps: the space is far from exhausted).  One
    store per seed, so that its ~5 s refine repeats about five times in a
    30-second run.
    """
    space_file = workdir / "space.txt"
    space_file.write_text(
        "".join(f"{edge}: [{', '.join(NAS_OPS)}]\n" for edge in NAS_EDGES), encoding="utf-8"
    )
    synth_config = workdir / "synth.json"
    synth_config.write_text(json.dumps(NAS_SYNTH), encoding="utf-8")
    return [_nas_instance(key, seed, workdir, space_file, synth_config)
            for key in range(NAS_SCALE.pool_size)]


def _nas_instance(
    key: int, seed: int, workdir: Path, space_file: Path, synth_config: Path
) -> Instance:
    synth_dir = workdir / f"synth{key}"
    _quiet_cli(
        ["synth", "--space", str(space_file), "--config", str(synth_config),
         "--seed", str(derive_seed(seed, 3, key)), "--out", str(synth_dir)]
    )
    optimum = json.loads((synth_dir / "truth.json").read_text(encoding="utf-8"))["optimum"][
        "performance"
    ]
    run_payload = {"budget": 100, "seed": derive_seed(seed, 4, key), "init_strategy": "kendall",
                   "ood_adaptation": False}
    run_config = workdir / f"run{key}.json"
    run_config.write_text(json.dumps(run_payload), encoding="utf-8")
    out_dir = workdir / f"refine{key}"
    argv = ["refine", "--store", str(synth_dir / "store.json"), "--config", str(run_config),
            "--out", str(out_dir)]

    def run() -> Outcome:
        shutil.rmtree(out_dir, ignore_errors=True)
        start = perf_counter()
        _quiet_cli(argv)
        run_s = perf_counter() - start
        report_bytes = (out_dir / "report.jsonl").read_bytes()
        summary_bytes = (out_dir / "summary.json").read_bytes()
        records = [json.loads(line) for line in report_bytes.splitlines()]
        summary = json.loads(summary_bytes)
        return checked_outcome(
            start, run_s, report_digest(report_bytes, summary_bytes), records, summary, optimum
        )

    def step_replayer() -> Callable[[], str]:
        """The refine's engine and oracle, built in process as ``mdesign refine`` builds them."""
        store = load_store(synth_dir / "store.json")
        config = RunConfig.from_mapping(run_payload)
        unseen = config.unseen_task
        bench_store = store.subset([tid for tid in store.task_ids if tid != unseen])
        target_stats = dict(zip(store.stat_names, store.stats_vector(unseen)))
        engine = RefinementEngine(bench_store, config, target_stats)

        def replay() -> str:
            report = engine.run(replay_oracle(store, unseen))
            report_bytes = "".join(
                json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
                for rec in report.to_records()
            ).encode()
            summary_bytes = (
                json.dumps(report.summary(), sort_keys=True, separators=(",", ":")) + "\n"
            ).encode()
            return report_digest(report_bytes, summary_bytes)

        return replay

    return Instance(key, run, step_replayer=step_replayer)


def report_digest(report_bytes: bytes, summary_bytes: bytes) -> str:
    """Digest of a refine's ``report.jsonl`` and ``summary.json``."""
    return sha256(sha256(report_bytes).encode() + sha256(summary_bytes).encode())


COPY_WEAVE = Workload("copy-weave", pool_size=10, make_pool=copy_weave_pool)
ADVERSARIAL_OOD = Workload(
    "adversarial-ood", pool_size=1, make_pool=adversarial_pool, extra_setups=5
)
NAS_SCALE = Workload("nas-scale", pool_size=1, make_pool=nas_pool, step_replay_share=0.1)
WORKLOADS = {w.name: w for w in (COPY_WEAVE, ADVERSARIAL_OOD, NAS_SCALE)}
