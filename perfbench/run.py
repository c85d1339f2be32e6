"""mdesign refinement benchmark: one seeded run of one workload.

Run from the repository root:

    python3 perfbench/run.py --workload copy-weave --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout.  Inputs are made
from ``--seed`` before any timing.  A run repeats the workload's pool of
instances for ``--seconds`` seconds, and at least until each instance has run
three times.  Every instance's report is checked, and repeated runs of one instance
must produce identical reports.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Light hooks cut each run into
short intervals; each interval is timed by its fastest repeat, and set-up,
step and run times are sums of those.
``--trace 1`` runs the pool untraced for half the time, then traced for the
other half, and reports the per-layer metrics (per instance) plus the mean
``run_s`` of both halves.  Its spans are written to
``.perfbench-out/trace-<workload>-seed<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One BLAS thread: the loop is single-process, and on a small shared host more
# BLAS threads only add contention.  Set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

T0 = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DEADLINE_S = 150.0  # start no instance that would likely end past this
MIN_REPEATS = 3  # runs of each pool instance in a --trace 0 run, at least

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# (span or counter name, fields reported per instance); BENCHMARK.json lists
# the same metrics as "<name>.<field>".
SPAN_METRICS = (
    ("space.neighbors", ("calls", "self_s")),
    ("store.load_store", ("self_s",)),
    ("store.build", ("calls", "self_s")),
    ("store.subset", ("self_s",)),
    ("store.derive_gains", ("calls", "self_s")),
    ("graph.build_graph", ("calls", "self_s")),
    ("graph.local_gains", ("calls", "self_s")),
    ("graph.edge_samples", ("calls", "self_s")),
    ("similarity.bayes_update", ("self_s",)),
    ("similarity.update_transfer", ("calls", "self_s")),
    ("planner.pretrain_regressor", ("calls", "self_s")),
    ("planner.fine_tune", ("calls", "self_s")),
    ("planner.edge_features", ("calls",)),
    ("planner.wasserstein_1d", ("calls",)),
    ("planner.predict_gain", ("calls", "self_s")),
    ("engine.construct", ("self_s",)),
    ("engine.step", ("calls", "self_s")),
    ("engine.weave_scores", ("self_s",)),
    ("engine.write_report", ("self_s",)),
    ("harness.oracle.evaluate", ("calls", "self_s")),
    ("cli.refine", ("self_s",)),
)
COUNTER_METRICS = ("engine.weave.candidates",)
FIELD_UNITS = {"calls": "count", "self_s": "s"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seconds must be positive")
    return args


# ------------------------------------------------------------------ machine


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git``; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    spread_file = HERE / "spread.json"
    spread = json.loads(spread_file.read_text(encoding="utf-8")) if spread_file.is_file() else None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "src_sha256": source.hexdigest(),
        "observed_spread": spread,
    }


def workload_why(name: str) -> str:
    """The workload's reason for being, as recorded in BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return ""
    return next((w["why"] for w in spec.get("workloads", []) if w.get("name") == name), "")


# ------------------------------------------------------------------- passes


@dataclass
class Attempt:
    key: int
    outcome: object | None  # workloads.Outcome
    error: str | None
    wall_s: float  # the whole attempt, checks included
    layers: dict[str, tuple[int, float, float]] | None = None  # name -> (calls, self_s, total_s)


def install_probe(patcher, marks) -> None:
    """Light hooks: set-up calls, steps, and frequent calls inside them.

    The inner hooks only cut set-up and steps into short intervals, most well
    under a millisecond.  Contention on a shared host comes and goes at about
    that scale, so a short interval is often uncontended in one of its
    repeats, while a long one rarely is.  Each hooked call costs about a
    microsecond, which the times include.
    """
    from mdesign import cli, engine, planner
    from mdesign.engine import RefinementEngine
    from mdesign.planner import GainRegressor
    from mdesign.space import DesignSpace
    from mdesign.store import KnowledgeStore

    hooks = (
        (cli, "load_store", "setup"),
        (RefinementEngine, "__init__", "setup"),
        (RefinementEngine, "new_state", "setup"),
        (RefinementEngine, "step", "step"),
        (KnowledgeStore, "build", "other"),
        (KnowledgeStore, "derive_gains", "other"),
        (DesignSpace, "neighbors", "other"),
        (engine, "build_graph", "other"),
        (engine, "pretrain_regressor", "other"),
        (engine, "fine_tune", "other"),
        (planner, "edge_features", "other"),
        (planner, "wasserstein_1d", "other"),
        (GainRegressor, "params", "other"),  # once per training epoch
        (cli, "write_report", "other"),
    )
    for owner, attr, kind in hooks:
        patcher.wrap(owner, attr, marks.hook(kind))


class Fastest:
    """Each interval of one pool instance's run, timed by its fastest repeat.

    Repeats of one pool instance do identical work (their report digests
    match) and make the same hooked calls, so they cut into the same
    intervals.  Other work on a shared host only ever slows an interval down:
    on a shared 2-vCPU VM, a fixed piece of work ran at full speed or about
    1.6 times slower, switching within milliseconds, and process CPU time
    slowed with it.  So each interval keeps its fastest repeat, and set-up,
    steps and run are sums of those.  Repeats that cut into other intervals
    than the first run (say, a cache warmed by it) are left out.
    """

    def __init__(self, marks, started: float, run_s: float) -> None:
        self.intervals, self.owners = self._cut(marks, started, run_s)
        self.kinds = tuple(marks.kinds)
        kind_of = np.array(self.kinds + ("gap",))[self.owners]
        self.is_kind = {"setup": kind_of == "setup", "step": kind_of == "step"}
        self.repeats, self.left_out, self.partial = 1, 0, 0

    @staticmethod
    def _cut(marks, started: float, run_s: float) -> tuple[np.ndarray, np.ndarray]:
        """The run's intervals between its marks, and each interval's owner."""
        times = np.concatenate(([started], np.frombuffer(marks.times), [started + run_s]))
        owners = np.concatenate(([-1], np.frombuffer(marks.owners, dtype=np.int32)))
        return np.diff(times), owners

    def add_run(self, marks, started: float, run_s: float) -> None:
        intervals, owners = self._cut(marks, started, run_s)
        if tuple(marks.kinds) != self.kinds or not np.array_equal(owners, self.owners):
            self.left_out += 1
            return
        np.minimum(self.intervals, intervals, out=self.intervals)
        self.repeats += 1

    @staticmethod
    def part(marks, kind: str) -> np.ndarray:
        """Durations of a partial run's intervals inside calls of one kind, in order."""
        durations = np.diff(np.frombuffer(marks.times))
        owners = np.frombuffer(marks.owners, dtype=np.int32)[:-1]
        return durations[np.array(marks.kinds + ["gap"])[owners] == kind]

    def add_part(self, part: np.ndarray, kind: str) -> None:
        """More samples of the run's set-up or step intervals, from a partial run."""
        mask = self.is_kind[kind]
        if len(part) == np.count_nonzero(mask):
            self.intervals[mask] = np.minimum(self.intervals[mask], part)
            self.partial += 1

    def times(self) -> tuple[float, float, np.ndarray]:
        """Set-up seconds, run seconds and each step's seconds."""
        is_step = self.is_kind["step"]
        _, step_of = np.unique(self.owners[is_step], return_inverse=True)
        steps = np.bincount(step_of, weights=self.intervals[is_step])
        setup_s = float(self.intervals[self.is_kind["setup"]].sum())
        return setup_s, float(self.intervals.sum()), steps


def install_tracer(patcher, tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    import workloads
    from mdesign import cli, engine, planner
    from mdesign.space import DesignSpace
    from mdesign.store import KnowledgeStore

    hooks = (
        (DesignSpace, "neighbors", "space.neighbors"),
        (cli, "load_store", "store.load_store"),
        (KnowledgeStore, "build", "store.build"),
        (KnowledgeStore, "subset", "store.subset"),
        (KnowledgeStore, "derive_gains", "store.derive_gains"),
        (engine, "build_graph", "graph.build_graph"),
        (engine, "local_gains", "graph.local_gains"),
        (engine, "edge_samples", "graph.edge_samples"),
        (planner, "edge_samples", "graph.edge_samples"),
        (engine, "bayes_update", "similarity.bayes_update"),
        (engine, "update_transfer", "similarity.update_transfer"),
        (engine, "pretrain_regressor", "planner.pretrain_regressor"),
        (engine, "fine_tune", "planner.fine_tune"),
        (engine, "predict_gain", "planner.predict_gain"),
        (planner, "edge_features", "planner.edge_features"),
        (planner, "wasserstein_1d", "planner.wasserstein_1d"),
        (engine.RefinementEngine, "__init__", "engine.construct"),
        (engine.RefinementEngine, "new_state", "engine.new_state"),
        (engine.RefinementEngine, "run", "engine.run"),
        (engine.RefinementEngine, "step", "engine.step"),
        (cli, "write_report", "engine.write_report"),
        (engine.EvaluationOracle, "evaluate", "harness.oracle.evaluate"),
        (workloads, "cli_run", "cli.refine"),
    )
    for owner, attr, name in hooks:
        patcher.wrap(owner, attr, tracer.hook(name))
    patcher.wrap(
        engine,
        "weave_scores",
        tracer.hook("engine.weave_scores", counter="engine.weave.candidates", count=len),
    )


def run_pass(
    pool, seconds: float, min_instances: int, marks=None, fastest=None, tracer=None,
    first_id=0, extra_setups=0, replay_s=0.0,
):
    """Cycle through the pool for ``seconds`` and at least ``min_instances`` runs.

    With ``fastest`` (a dict filled per pool key), each successful run's
    ``marks`` are folded into its key's ``Fastest``, and the run is followed
    by ``extra_setups`` budget-0 runs of the same instance for more set-up
    samples.  Successive rounds over the pool then also run on alternate CPUs.
    Instances that can replay their step loop first do so for ``replay_s`` of
    the ``seconds``; those steps are folded in with the first run.
    """
    attempts: list[Attempt] = []
    replays = {}
    if fastest is not None and replay_s > 0:
        for inst in pool:
            if inst.step_replayer is not None:
                replays[inst.key] = replay_steps(inst, marks, replay_s / len(pool))
        seconds -= replay_s
    start = perf_counter()
    last_s = 0.0
    with AlternateCpus(fastest is not None) as cpus:
        while len(attempts) < min_instances or perf_counter() - start < seconds:
            if attempts and perf_counter() - T0 + last_s > DEADLINE_S:
                break
            if len(attempts) % len(pool) == 0:
                cpus.next()
            attempt = run_attempt(pool[len(attempts) % len(pool)], marks, fastest, tracer,
                                  first_id + len(attempts), extra_setups)
            if attempt.outcome is not None and attempt.key in replays:
                steps, digests = replays.pop(attempt.key)
                for part in steps:
                    fastest[attempt.key].add_part(part, "step")
                if digests != {attempt.outcome.digest}:
                    attempt.error = "an in-process step replay's report differs from the run's"
            attempts.append(attempt)
            last_s = attempt.wall_s
    return attempts


def replay_steps(inst, marks, seconds: float) -> tuple[list[np.ndarray], set[str]]:
    """Replay an instance's step loop for ``seconds``: step intervals and report digests.

    A step loop lasts a few tens of milliseconds, and on a shared host a whole
    loop was either uncontended or about 1.5 times slower, in phases lasting
    seconds.  A refine that takes seconds to set up reaches its step loop only
    a few times per run, too few to find an uncontended one.  The replay
    engine is built before the replays start and dropped after them.
    """
    replay = inst.step_replayer()
    steps: list[np.ndarray] = []
    digests: set[str] = set()
    began = perf_counter()
    with AlternateCpus(True) as cpus:
        while not steps or perf_counter() - began < seconds:
            cpus.next()
            marks.reset()
            digests.add(replay())
            steps.append(Fastest.part(marks, "step"))
    del replay
    gc.collect()
    return steps, digests


class AlternateCpus:
    """Pin this process to one allowed CPU after another; restore on exit.

    A process tends to stay on one CPU.  On a shared host, each vCPU is slowed
    by its own neighbours, at its own times, so repeats on alternate CPUs give
    each interval more chances of an uncontended run.  Only this process's
    own affinity is changed.
    """

    def __init__(self, enabled: bool) -> None:
        can_pin = enabled and hasattr(os, "sched_setaffinity")
        self.allowed = sorted(os.sched_getaffinity(0)) if can_pin else []
        self.turn = -1

    def __enter__(self) -> "AlternateCpus":
        return self

    def next(self) -> None:
        if len(self.allowed) > 1:
            self.turn += 1
            try:
                os.sched_setaffinity(0, {self.allowed[self.turn % len(self.allowed)]})
            except OSError:  # pinning not permitted here: run unpinned
                self.allowed = []

    def __exit__(self, *exc) -> None:
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, self.allowed)


def run_attempt(inst, marks, fastest, tracer, attempt_id: int, extra_setups: int) -> Attempt:
    """One checked run of one pool instance, with its timing folded in."""
    from workloads import InstanceFailed

    if marks is not None:
        marks.reset()
    before = None
    if tracer is not None:
        tracer.instance = attempt_id
        before = tracer.snapshot()
    began = perf_counter()
    outcome, error = None, None
    try:
        outcome = inst.run()
    except InstanceFailed as exc:
        error = str(exc)
    except Exception as exc:  # a crash of the program counts as a failed instance
        error = f"{type(exc).__name__}: {exc}"
    attempt = Attempt(inst.key, outcome, error, perf_counter() - began)
    if fastest is not None and outcome is not None:
        if inst.key in fastest:
            fastest[inst.key].add_run(marks, outcome.started, outcome.run_s)
        else:
            fastest[inst.key] = Fastest(marks, outcome.started, outcome.run_s)
        for _ in range(extra_setups):
            marks.reset()
            try:
                inst.setup_only()
            except Exception as exc:  # counts against the instance, like a failed run
                attempt.error = f"budget-0 run: {type(exc).__name__}: {exc}"
                break
            fastest[inst.key].add_part(Fastest.part(marks, "setup"), "setup")
    if tracer is not None:
        after = tracer.snapshot()
        attempt.layers = {
            name: tuple(x - y for x, y in zip(after[name], before[name]))
            for name in after
        }
    return attempt


def verify_repeats(attempts: list[Attempt]) -> None:
    """Mark attempts whose outputs or deterministic counts differ from the key's first run."""
    digests: dict[int, str] = {}
    counts: dict[int, dict[str, int]] = {}
    for a in attempts:
        if a.outcome is None:
            continue
        if digests.setdefault(a.key, a.outcome.digest) != a.outcome.digest:
            a.error = "report digest differs from an earlier run of the same instance"
            continue
        if a.layers is None:
            continue
        calls = {name: v[0] for name, v in a.layers.items()}
        if counts.setdefault(a.key, calls) != calls:
            a.error = "deterministic call counts differ from an earlier traced run"
        elif calls["harness.oracle.evaluate"] != a.outcome.iterations + 1:
            a.error = (
                f"oracle evaluated {calls['harness.oracle.evaluate']} times for "
                f"{a.outcome.iterations} iterations"
            )


# ------------------------------------------------------------------ metrics


def first_per_key(attempts: list[Attempt]) -> list[Attempt]:
    seen: dict[int, Attempt] = {}
    for a in attempts:
        seen.setdefault(a.key, a)
    return [seen[k] for k in sorted(seen)]


def end_to_end(fastest: dict[int, Fastest]) -> tuple[dict[str, float], int]:
    """Each pool instance's fastest set-up, run and steps; medians over the pool.

    Step percentiles are taken per instance, because pooled they would follow
    the one instance with the most costly steps.
    """
    times = [f.times() for f in fastest.values()]
    deciles = [statistics.quantiles(steps.tolist(), n=10, method="inclusive") for _, _, steps in times]
    values = {
        "setup_s": statistics.median(setup for setup, _, _ in times),
        "run_s": statistics.median(run for _, run, _ in times),
        "step_ms_p50": statistics.median(d[4] for d in deciles) * 1e3,
        "step_ms_p90": statistics.median(d[8] for d in deciles) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, sum(len(steps) for _, _, steps in times)


def per_layer(traced: list[Attempt], untraced: list[Attempt]) -> dict[str, tuple[float, str]]:
    """Per-instance layer metrics, by name, with their units.

    Counts come from the first traced run of each pool key, so they repeat
    exactly for a seed; times are means over every traced run.
    """
    firsts = first_per_key(traced)
    values: dict[str, tuple[float, str]] = {}
    for name, fields in SPAN_METRICS:
        for f in fields:
            if f == "calls":
                value = statistics.fmean(a.layers[name][0] for a in firsts)
            else:
                value = statistics.fmean(a.layers[name][1] for a in traced)
            values[f"{name}.{f}"] = (value, FIELD_UNITS[f])
    for name in COUNTER_METRICS:
        values[name] = (statistics.fmean(a.layers[name][0] for a in firsts), "count")
    flagged = sum(a.outcome.flagged_task_steps for a in firsts)
    values["similarity.zero_weight_task_steps"] = (
        statistics.fmean(a.outcome.zero_weight_task_steps for a in firsts),
        "count",
    )
    values["planner.finetune_useful_ratio"] = (
        sum(a.outcome.useful_flagged_task_steps for a in firsts) / flagged if flagged else 0.0,
        "ratio",
    )
    run_traced = statistics.fmean(a.outcome.run_s for a in traced)
    run_untraced = statistics.fmean(a.outcome.run_s for a in untraced)
    values["trace.run_s_untraced"] = (run_untraced, "s")
    values["trace.run_s_traced"] = (run_traced, "s")
    values["trace.overhead_s"] = (run_traced - run_untraced, "s")
    return values


def print_layer_table(traced: list[Attempt]) -> None:
    """Every span and counter: calls, self and inclusive seconds per instance."""
    firsts = first_per_key(traced)
    run_s = statistics.fmean(a.outcome.run_s for a in traced)
    rows = []
    for name in traced[0].layers:
        calls = statistics.fmean(a.layers[name][0] for a in firsts)
        self_s = statistics.fmean(a.layers[name][1] for a in traced)
        total_s = statistics.fmean(a.layers[name][2] for a in traced)
        rows.append((name, calls, self_s, total_s))
    print(f"# {'span':32} {'calls/inst':>12} {'self_s/inst':>12} {'total_s/inst':>12} {'self%':>6}")
    for name, calls, self_s, total_s in sorted(rows, key=lambda r: -r[2]):
        print(f"# {name:32} {calls:12.6g} {self_s:12.6g} {total_s:12.6g} {100 * self_s / run_s:6.1f}")
    flagged = sum(a.outcome.flagged_task_steps for a in firsts)
    print(f"# planner.finetune_useful_ratio base: {flagged} flagged task-steps in {len(firsts)} instances")


# --------------------------------------------------------------------- main


def fmt(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "mdesign" / "__init__.py").is_file():
        print(f"error: no mdesign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mdesign

    if Path(mdesign.__file__).resolve().parent != (SRC / "mdesign").resolve():
        print(f"error: imported mdesign from {mdesign.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Marks, Patcher, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print("# machine " + json.dumps(machine_record(), sort_keys=True))
    print(f"# workload {workload.name}: {workload_why(workload.name)}")
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = workload.make_pool(args.seed, workdir)
        if args.trace:
            untraced = run_pass(pool, args.seconds / 2, workload.pool_size)
            tracer = Tracer()
            with Patcher() as patcher:
                install_tracer(patcher, tracer)
                traced = run_pass(
                    pool, args.seconds / 2, workload.pool_size + 1, tracer=tracer,
                    first_id=len(untraced),
                )
        else:
            marks, fastest = Marks(), {}
            with Patcher() as patcher:
                install_probe(patcher, marks)
                untraced = run_pass(
                    pool, args.seconds, MIN_REPEATS * workload.pool_size, marks=marks,
                    fastest=fastest, extra_setups=workload.extra_setups,
                    replay_s=workload.step_replay_share * args.seconds,
                )
            traced = []
        attempts = untraced + traced
        verify_repeats(attempts)
        failed = [a for a in attempts if a.error is not None]
        for a in failed:
            print(f"# FAILED instance {a.key}: {a.error}", file=sys.stderr)
        ok_untraced = [a for a in untraced if a.error is None]
        ok_traced = [a for a in traced if a.error is None]
        result = {"correct": not failed, "attempted": len(attempts), "failed": len(failed)}
        if not ok_untraced or (args.trace and not ok_traced):
            print(json.dumps({**result, "metrics": {}}))
            return 1
        summarize_outputs(workload.name, ok_untraced + ok_traced, len(failed), len(attempts))
        if args.trace:
            layer = per_layer(ok_traced, ok_untraced)
            print_layer_table(ok_traced)
            OUT.mkdir(parents=True, exist_ok=True)
            trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl.gz"
            tracer.write(
                trace_path,
                {"workload": workload.name, "seed": args.seed,
                 "instances": {str(len(untraced) + i): a.key for i, a in enumerate(traced)}},
            )
            print(f"# trace: {tracer.span_count} spans written to {trace_path.relative_to(ROOT)}")
            print(
                f"# tracing overhead: run_s traced {fmt(layer['trace.run_s_traced'][0])} s - "
                f"untraced {fmt(layer['trace.run_s_untraced'][0])} s = "
                f"trace.overhead_s {fmt(layer['trace.overhead_s'][0])} s"
            )
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        else:
            values, samples = end_to_end(fastest)
            for name, value in values.items():
                print(f"# {name} = {fmt(value)} {END_TO_END[name]}")
            repeats = sum(f.repeats for f in fastest.values())
            left_out = sum(f.left_out for f in fastest.values())
            partial = sum(f.partial for f in fastest.values())
            print(
                f"# step samples: {samples}, from {repeats} runs cut into "
                f"{sum(len(f.intervals) for f in fastest.values())} intervals"
                f" ({left_out} runs cut otherwise, left out), and {partial} partial runs"
            )
            metrics = {
                name: {"value": value, "unit": END_TO_END[name]} for name, value in values.items()
            }
        print(json.dumps({**result, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summarize_outputs(name: str, ok: list[Attempt], failed: int, attempted: int) -> None:
    """Print output digests and the deterministic quality numbers."""
    firsts = first_per_key(ok)
    combined = hashlib.sha256("".join(a.outcome.digest for a in firsts).encode()).hexdigest()
    outcomes = [a.outcome for a in firsts]
    print(f"# instances: {attempted} attempted, {failed} failed, failed_frac {failed / attempted:.6g}")
    print(f"# report digest over {len(firsts)} pool instances: {combined}")
    print(f"# regret_median = {fmt(statistics.median(o.regret for o in outcomes))}")
    if name == "copy-weave":
        print(f"# evals_to_opt_median = {fmt(statistics.median(o.evals_to_opt for o in outcomes))}")
    flagged = sum(o.flagged_task_steps for o in outcomes)
    useful = sum(o.useful_flagged_task_steps for o in outcomes)
    print(
        "# zero-weight task-steps per instance: "
        + ", ".join(str(o.zero_weight_task_steps) for o in outcomes)
        + f"; flagged task-steps with weight 0: {flagged - useful} of {flagged}"
    )


if __name__ == "__main__":
    sys.exit(main())
