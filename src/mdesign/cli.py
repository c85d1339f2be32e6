"""Command-line interface.

Subcommands: ``ingest`` (CSV + manifest -> store file), ``refine``
(budgeted refinement of the store's unseen task via record replay),
``baseline`` (reference searchers), ``stats`` (gain-consistency statistics),
``synth`` (synthetic problem generator).  Usage errors exit 2; data errors
exit 1 with a diagnostic on stderr.  All report files are deterministic for a
fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .engine import RefinementEngine, RunConfig, _is_count, _is_int, write_report
from .harness import (
    BASELINE_KINDS,
    CorrelationSpec,
    HarnessError,
    consistency_stats,
    generate_landscapes,
    replay_oracle,
    run_baseline,
    shared_edge_gains,
)
from .space import load_design_space
from .store import StoreError, ingest_benchmark, load_store

__all__ = ["cli_run", "main", "build_parser"]

# every mdesign error subclasses ValueError, as does json.JSONDecodeError
_DATA_ERRORS = (ValueError, FileNotFoundError, IsADirectoryError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdesign",
        description="Knowledge-base-driven refinement of discrete architecture designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="<subcommand>")

    p = sub.add_parser("ingest", help="build a store file from benchmark CSV inputs")
    p.add_argument("--space", required=True, help="design-space config file")
    p.add_argument("--records", required=True, help="benchmark records CSV")
    p.add_argument("--stats", help="task statistics CSV")
    p.add_argument("--manifest", help="benchmark manifest JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("refine", help="refine the store's unseen task by record replay")
    p.add_argument("--store", required=True, help="knowledge store file (with unseen task)")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--budget", type=int, help="override config budget")
    p.add_argument("--window", type=int, help="override config window")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("baseline", help="run a reference searcher on the unseen task")
    p.add_argument("--store", required=True, help="knowledge store file (with unseen task)")
    p.add_argument("--config", help="run config JSON (key 'kind' picks the baseline)")
    p.add_argument("--kind", choices=BASELINE_KINDS, help="baseline kind (overrides config)")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--budget", type=int, help="override config budget")
    p.add_argument("--window", type=int, help="override config window")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("stats", help="gain-consistency statistics vs each benchmark")
    p.add_argument("--store", required=True, help="knowledge store file (with unseen task)")
    p.add_argument("--config", help="config JSON (key 'unseen_task')")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic benchmark + unseen task")
    p.add_argument("--space", required=True, help="design-space config file")
    p.add_argument("--config", help="generator config JSON")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)
    return parser


def cli_run(argv: list[str] | None = None) -> int:
    """Parse and execute; returns the process exit code (0 ok, 1 data, 2 usage)."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return ns.func(ns)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_run(sys.argv[1:]))


# ----------------------------------------------------------------- internals


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return payload


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )


def _out_dir(ns) -> Path:
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_config(payload: dict, ns) -> RunConfig:
    for field in ("seed", "budget", "window"):
        value = getattr(ns, field, None)
        if value is not None:
            payload[field] = value
    return RunConfig.from_mapping(payload)


def _unseen_task(payload: dict) -> str:
    """The config's ``unseen_task``, a non-empty string ("unseen" when absent)."""
    unseen_task = payload.get("unseen_task", "unseen")
    if not isinstance(unseen_task, str) or not unseen_task:
        raise HarnessError(f"unseen_task must be a non-empty string, got {unseen_task!r}")
    return unseen_task


def _bench_ids(store, unseen_task: str) -> list[str]:
    """Every task but the unseen one; the store must hold both kinds."""
    if unseen_task not in store.tasks:
        raise StoreError(f"store has no task {unseen_task!r}")
    bench_ids = [tid for tid in store.task_ids if tid != unseen_task]
    if not bench_ids:
        raise StoreError("store has no benchmark tasks besides the unseen one")
    return bench_ids


def _split_store(store, unseen_task: str):
    bench_store = store.subset(_bench_ids(store, unseen_task))
    if store.stat_names:
        target_stats = dict(zip(store.stat_names, store.stats_vector(unseen_task)))
    else:
        target_stats = None
    return bench_store, target_stats


def _cmd_ingest(ns) -> int:
    space = load_design_space(Path(ns.space).read_text(encoding="utf-8"))
    records_text = Path(ns.records).read_text(encoding="utf-8")
    stats_text = Path(ns.stats).read_text(encoding="utf-8") if ns.stats else None
    manifest_text = Path(ns.manifest).read_text(encoding="utf-8") if ns.manifest else None
    store = ingest_benchmark(space, records_text, stats_text, manifest_text)
    out = _out_dir(ns)
    store_path = out / "store.json"
    store.persist(store_path)
    _write_json(
        out / "ingest_summary.json",
        {
            "tasks": list(store.task_ids),
            "architectures": store.arch_count,
            "statistics": list(store.stat_names),
            "space_size": space.size,
        },
    )
    print(f"wrote {store_path}")
    return 0


def _cmd_refine(ns) -> int:
    store = load_store(ns.store)
    config = _run_config(_load_config(ns.config), ns)
    bench_store, target_stats = _split_store(store, config.unseen_task)
    engine = RefinementEngine(bench_store, config, target_stats)
    oracle = replay_oracle(store, config.unseen_task)
    report = engine.run(oracle)
    paths = write_report(report, _out_dir(ns))
    print(f"wrote {paths['report']}")
    return 0


def _cmd_baseline(ns) -> int:
    store = load_store(ns.store)
    payload = _load_config(ns.config)
    kind = ns.kind or payload.pop("kind", "random")
    payload.pop("kind", None)
    config = _run_config(payload, ns)
    bench_store, target_stats = _split_store(store, config.unseen_task)
    oracle = replay_oracle(store, config.unseen_task)
    metrics = run_baseline(kind, config, bench_store, oracle, target_stats=target_stats)
    out = _out_dir(ns)
    reached = metrics.evaluations_to_target
    _write_json(
        out / "summary.json",
        {
            "kind": kind,
            "seed": config.seed,
            "budget": config.budget,
            "evaluations": len(metrics.best_trajectory),
            "best_performance": metrics.best_trajectory[-1],
            "target": metrics.target,
            "evaluations_to_target": None if math.isinf(reached) else int(reached),
        },
    )
    with (out / "trajectory.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "series", "value"])
        for i, best in enumerate(metrics.best_trajectory):
            writer.writerow([i, "best_performance", repr(best)])
    print(f"wrote {out / 'summary.json'}")
    return 0


def _cmd_stats(ns) -> int:
    store = load_store(ns.store)
    unseen_task = _unseen_task(_load_config(ns.config))
    results: dict[str, dict] = {}
    computed = 0
    for tid in _bench_ids(store, unseen_task):
        unseen_gains, bench_gains = shared_edge_gains(store, unseen_task, tid)
        entry: dict = {"shared_edges": int(unseen_gains.size)}
        if unseen_gains.size >= 3:
            stats = consistency_stats(unseen_gains, bench_gains)
            entry.update(
                r_squared=stats.r_squared,
                normality_p=stats.normality_p,
                kendall=stats.kendall,
            )
            computed += 1
        else:
            entry.update(r_squared=None, normality_p=None, kendall=None)
        results[tid] = entry
    if computed == 0:
        raise HarnessError("no benchmark shares at least 3 measured edges with the unseen task")
    out = _out_dir(ns)
    _write_json(out / "stats.json", {"unseen_task": unseen_task, "benchmarks": results})
    with (out / "consistency.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "metric", "value"])
        for tid, entry in results.items():
            for metric in ("r_squared", "normality_p", "kendall", "shared_edges"):
                value = entry[metric]
                writer.writerow([tid, metric, "" if value is None else repr(value)])
    print(f"wrote {out / 'stats.json'}")
    return 0


def _cmd_synth(ns) -> int:
    space = load_design_space(Path(ns.space).read_text(encoding="utf-8"))
    payload = _load_config(ns.config)
    n_benchmarks = payload.get("n_benchmarks", 3)
    if not _is_count(n_benchmarks):
        raise HarnessError(f"n_benchmarks must be an integer >= 1, got {n_benchmarks!r}")
    seed = ns.seed if ns.seed is not None else payload.get("seed", 0)
    if not _is_int(seed):
        raise HarnessError(f"seed must be an integer, got {seed!r}")
    unseen_task = _unseen_task(payload)
    mix = payload.get("mix")
    if mix is None:
        mix = [1.0 / n_benchmarks] * n_benchmarks
    spec = CorrelationSpec(
        mix=mix,
        utility_scale=payload.get("utility_scale", 1.0),
        interaction_strength=payload.get("interaction_strength", 0.0),
        benchmark_noise=payload.get("benchmark_noise", 0.0),
        unseen_noise=payload.get("unseen_noise", 0.0),
        independent_strength=payload.get("independent_strength", 0.0),
    )
    suite = generate_landscapes(space, n_benchmarks, spec, seed)
    full = suite.full_store(unseen_task)
    out = _out_dir(ns)
    store_path = out / "store.json"
    full.persist(store_path)
    _write_json(
        out / "truth.json",
        {
            "unseen_task": unseen_task,
            "seed": seed,
            "space_size": space.size,
            "optimum": {
                "choices": list(suite.optimum_design),
                "labels": list(space.labels_of(suite.optimum_design)),
                "performance": suite.optimum_performance,
            },
        },
    )
    print(f"wrote {store_path}")
    return 0


if __name__ == "__main__":
    main()
