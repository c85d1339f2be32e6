"""Command-line interface: exit codes, file outputs, determinism."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from mdesign.cli import cli_run
from mdesign.store import KnowledgeStore, load_store

SPACE_TEXT = "width: [64, 128, 256]\ndepth: [2, 4, 8]\n"

RECORDS = """task_id,width,depth,performance
cifar10,64,2,0.71
cifar10,64,4,0.74
cifar10,128,2,0.77
cifar10,128,4,0.80
svhn,64,2,0.90
svhn,64,4,0.92
svhn,128,2,0.93
svhn,128,4,0.95
"""

STATS = """task_id,n_classes,input_px
cifar10,10,32
svhn,10,32
"""


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.txt"
    path.write_text(SPACE_TEXT, encoding="utf-8")
    return path


@pytest.fixture
def synth_store(tmp_path, space_file):
    """A synthetic store whose unseen task equals its first benchmark."""
    config = tmp_path / "synth.json"
    config.write_text(
        json.dumps(
            {"n_benchmarks": 2, "mix": [1.0, 0.0], "utility_scale": 0.5, "seed": 5}
        ),
        encoding="utf-8",
    )
    out = tmp_path / "synth_out"
    code = cli_run(
        ["synth", "--space", str(space_file), "--config", str(config), "--out", str(out)]
    )
    assert code == 0
    return out


REFINE_CONFIG = {
    "budget": 6,
    "planner": {"hidden_dim": 8, "pretrain_epochs": 20, "finetune_epochs": 5},
}


def write_refine_config(tmp_path, **overrides):
    payload = dict(REFINE_CONFIG)
    payload.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# ----------------------------------------------------------------- exit codes


def test_no_arguments_is_usage_error():
    assert cli_run([]) == 2


def test_unknown_subcommand_is_usage_error():
    assert cli_run(["transmogrify"]) == 2


def test_missing_required_option_is_usage_error():
    assert cli_run(["refine", "--out", "x"]) == 2


def test_missing_input_file_is_data_error(tmp_path, capsys):
    code = cli_run(
        ["refine", "--store", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


MALFORMED_CONFIGS = {
    "synth-no-benchmarks": ("synth", {"n_benchmarks": 0}),
    "synth-scalar-mix": ("synth", {"mix": 3}),
    "synth-list-utility-scale": ("synth", {"utility_scale": [1]}),
    "refine-scalar-planner": ("refine", {"planner": 5}),
    "refine-text-hidden-dim": ("refine", {"planner": {"hidden_dim": "x"}}),
    "refine-scalar-init-weights": ("refine", {"init_strategy": "explicit", "init_weights": 3}),
    "refine-text-ood-adaptation": ("refine", {"ood_adaptation": "no"}),
    "refine-int-dynamic-updates": ("refine", {"dynamic_updates": 0}),
    "refine-null-revert-on-regress": ("refine", {"revert_on_regress": None}),
    "refine-text-buffer-capacity": ("refine", {"planner": {"buffer_capacity": "x"}}),
    "refine-zero-buffer-capacity": ("refine", {"planner": {"buffer_capacity": 0}}),
    "refine-text-max-samples": ("refine", {"planner": {"max_samples": "x"}}),
    "refine-float-max-samples": ("refine", {"planner": {"max_samples": 8.5}}),
    "refine-bool-max-samples": ("refine", {"planner": {"max_samples": True}}),
    "refine-float-window": ("refine", {"window": 2.5}),
    "refine-float-hidden-dim": ("refine", {"planner": {"hidden_dim": 8.5}}),
    "refine-float-pretrain-epochs": ("refine", {"planner": {"pretrain_epochs": 10.5}}),
    "refine-float-finetune-epochs": ("refine", {"planner": {"finetune_epochs": 2.5}}),
    "refine-float-budget": ("refine", {"budget": 3.5}),
    "refine-bool-budget": ("refine", {"budget": True}),
    "refine-float-persist-steps": ("refine", {"persist_steps": 1.5}),
    "baseline-float-seed": ("baseline", {"kind": "random", "seed": 1.5}),
    "refine-list-unseen-task": ("refine", {"unseen_task": ["u"]}),
    "refine-empty-unseen-task": ("refine", {"unseen_task": ""}),
    "baseline-list-unseen-task": ("baseline", {"kind": "random", "unseen_task": ["u"]}),
    "stats-list-unseen-task": ("stats", {"unseen_task": ["u"]}),
    "synth-int-unseen-task": ("synth", {"unseen_task": 5}),
    "synth-float-n-benchmarks": ("synth", {"n_benchmarks": 2.7}),
    "synth-bool-n-benchmarks": ("synth", {"n_benchmarks": True}),
    "synth-float-seed": ("synth", {"seed": 1.5}),
    "synth-text-seed": ("synth", {"seed": "7"}),
    "refine-list-planner": ("refine", {"planner": []}),
    "refine-zero-planner": ("refine", {"planner": 0}),
    "refine-false-planner": ("refine", {"planner": False}),
    "refine-nan-replay-mix": (
        "refine", {"budget": 5, "ood_adaptation": False, "planner": {"replay_mix": math.nan}}
    ),
    "refine-inf-replay-mix": ("refine", {"budget": 5, "planner": {"replay_mix": math.inf}}),
    "refine-bool-replay-mix": ("refine", {"planner": {"replay_mix": True}}),
    "refine-bool-learning-rate": ("refine", {"planner": {"learning_rate": True}}),
    "refine-bool-noise-floor": ("refine", {"noise_floor": True}),
    "refine-bool-low-weight-factor": ("refine", {"low_weight_factor": True}),
    "refine-bool-init-weights": (
        "refine", {"init_strategy": "explicit", "init_weights": {"bench00": True, "bench01": 0.5}}
    ),
    "synth-text-mix": ("synth", {"mix": ["1", 0.0, 0.0]}),
    "synth-bool-mix": ("synth", {"mix": [1.0, True, 0.0]}),
    "synth-text-utility-scale": ("synth", {"utility_scale": "1"}),
    "synth-bool-utility-scale": ("synth", {"utility_scale": True}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_values_exit_one(tmp_path, space_file, synth_store, capsys, case):
    command, payload = MALFORMED_CONFIGS[case]
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    if command == "synth":
        source = ["--space", str(space_file)]
    else:
        source = ["--store", str(synth_store / "store.json")]
    capsys.readouterr()
    code = cli_run([command, *source, "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "Traceback" not in err


def test_help_exits_zero():
    assert cli_run(["--help"]) == 0


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-c", "from mdesign.cli import main; main()", "--help"],
        capture_output=True,
        text=True,
    )
    # argparse prints usage on --help... but argv[0] consumption differs; just
    # check the module entry point exists and errors out with usage, not crash
    assert proc.returncode in (0, 2)


# --------------------------------------------------------------------- ingest


def test_ingest_writes_store_and_summary(tmp_path, space_file):
    records = tmp_path / "records.csv"
    records.write_text(RECORDS, encoding="utf-8")
    stats = tmp_path / "stats.csv"
    stats.write_text(STATS, encoding="utf-8")
    out = tmp_path / "ingested"
    code = cli_run(
        [
            "ingest",
            "--space", str(space_file),
            "--records", str(records),
            "--stats", str(stats),
            "--out", str(out),
        ]
    )
    assert code == 0
    store = load_store(out / "store.json")
    assert store.task_ids == ("cifar10", "svhn")
    summary = json.loads((out / "ingest_summary.json").read_text())
    assert summary == {
        "tasks": ["cifar10", "svhn"],
        "architectures": 4,
        "statistics": ["n_classes", "input_px"],
        "space_size": 9,
    }


def test_ingest_applies_manifest_direction(tmp_path, space_file):
    records = tmp_path / "records.csv"
    records.write_text(RECORDS, encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            {"space_size": 9, "tasks": {"svhn": {"direction": "min", "metric": "ms"}}}
        ),
        encoding="utf-8",
    )
    out = tmp_path / "ingested"
    code = cli_run(
        [
            "ingest",
            "--space", str(space_file),
            "--records", str(records),
            "--manifest", str(manifest),
            "--out", str(out),
        ]
    )
    assert code == 0
    store = load_store(out / "store.json")
    assert store.performance_of("svhn", (0, 0)) == -0.90


def test_ingest_bad_rows_exit_one(tmp_path, space_file, capsys):
    records = tmp_path / "records.csv"
    records.write_text("task_id,width,depth,performance\ncifar10,96,2,0.7\n", encoding="utf-8")
    code = cli_run(
        ["ingest", "--space", str(space_file), "--records", str(records), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "row 2" in err


# ---------------------------------------------------------------------- synth


def test_synth_outputs_store_and_truth(tmp_path, synth_store):
    store = load_store(synth_store / "store.json")
    assert store.task_ids == ("bench00", "bench01", "unseen")
    assert store.arch_count == 9
    truth = json.loads((synth_store / "truth.json").read_text())
    assert truth["space_size"] == 9
    assert truth["unseen_task"] == "unseen"
    best = tuple(truth["optimum"]["choices"])
    assert store.performance_of("unseen", best) == truth["optimum"]["performance"]
    # identity mix: the unseen task equals bench00 record for record
    for arch, value in store.performances("unseen").items():
        assert store.performances("bench00")[arch] == value


def test_synth_seed_determinism(tmp_path, space_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_run(
            ["synth", "--space", str(space_file), "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    assert (outs[0] / "store.json").read_bytes() == (outs[1] / "store.json").read_bytes()
    assert (outs[0] / "truth.json").read_bytes() == (outs[1] / "truth.json").read_bytes()


# --------------------------------------------------------------------- refine


def test_refine_builds_the_store_once(tmp_path, synth_store, monkeypatch):
    # build and load_store both end in the one canonicalizing construction; subset cuts
    builds = []
    canonical = KnowledgeStore._canonical.__func__

    def counting(cls, *args, **kwargs):
        builds.append(cls)
        return canonical(cls, *args, **kwargs)

    monkeypatch.setattr(KnowledgeStore, "_canonical", classmethod(counting))
    config = write_refine_config(tmp_path)
    argv = ["refine", "--store", str(synth_store / "store.json"), "--config", str(config)]
    assert cli_run([*argv, "--out", str(tmp_path / "refined")]) == 0
    assert len(builds) == 1


def test_refine_pipeline(tmp_path, synth_store):
    config = write_refine_config(tmp_path)
    out = tmp_path / "refined"
    code = cli_run(
        [
            "refine",
            "--store", str(synth_store / "store.json"),
            "--config", str(config),
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "report.jsonl").read_text().strip().splitlines()
    assert len(lines) == 7  # initial + 6 steps
    records = [json.loads(line) for line in lines]
    assert records[0]["event"] == "initial"
    assert all(r["event"] == "step" for r in records[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == 6
    assert summary["oracle_calls"] == 7
    truth = json.loads((synth_store / "truth.json").read_text())
    # identical benchmark available: refinement should reach the optimum fast
    assert summary["best"]["performance"] == pytest.approx(
        truth["optimum"]["performance"]
    )
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "iteration,series,value"


def test_refine_is_byte_deterministic(tmp_path, synth_store):
    config = write_refine_config(tmp_path, seed=9)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli_run(
            [
                "refine",
                "--store", str(synth_store / "store.json"),
                "--config", str(config),
                "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    for fname in ("report.jsonl", "summary.json", "trajectory.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_refine_flag_overrides_config(tmp_path, synth_store):
    config = write_refine_config(tmp_path)
    out = tmp_path / "short"
    code = cli_run(
        [
            "refine",
            "--store", str(synth_store / "store.json"),
            "--config", str(config),
            "--budget", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["budget"] == 2
    assert summary["iterations"] == 2


def test_refine_requires_unseen_task(tmp_path, space_file, capsys):
    records = tmp_path / "records.csv"
    records.write_text(RECORDS, encoding="utf-8")
    out = tmp_path / "ingested"
    cli_run(["ingest", "--space", str(space_file), "--records", str(records), "--out", str(out)])
    code = cli_run(
        ["refine", "--store", str(out / "store.json"), "--out", str(tmp_path / "r")]
    )
    assert code == 1
    assert "no task 'unseen'" in capsys.readouterr().err


def test_refine_rejects_unknown_config_keys(tmp_path, synth_store, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"budget": 3, "turbo": True}), encoding="utf-8")
    code = cli_run(
        [
            "refine",
            "--store", str(synth_store / "store.json"),
            "--config", str(config),
            "--out", str(tmp_path / "r"),
        ]
    )
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


# ------------------------------------------------------------------- baseline


def test_baseline_random(tmp_path, synth_store):
    out = tmp_path / "base"
    code = cli_run(
        [
            "baseline",
            "--store", str(synth_store / "store.json"),
            "--kind", "random",
            "--budget", "5",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "random"
    assert summary["evaluations"] == 6
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 7


def test_baseline_kind_from_config(tmp_path, synth_store):
    config = tmp_path / "base.json"
    config.write_text(json.dumps({"kind": "greedy_local", "budget": 4}), encoding="utf-8")
    out = tmp_path / "base"
    code = cli_run(
        [
            "baseline",
            "--store", str(synth_store / "store.json"),
            "--config", str(config),
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "greedy_local"


def test_baseline_bad_kind_in_config(tmp_path, synth_store, capsys):
    config = tmp_path / "base.json"
    config.write_text(json.dumps({"kind": "psychic"}), encoding="utf-8")
    code = cli_run(
        [
            "baseline",
            "--store", str(synth_store / "store.json"),
            "--config", str(config),
            "--out", str(tmp_path / "b"),
        ]
    )
    assert code == 1
    assert "unknown baseline kind" in capsys.readouterr().err


def test_baseline_static_weave_runs(tmp_path, synth_store):
    config = write_refine_config(tmp_path, budget=4)
    out = tmp_path / "sw"
    code = cli_run(
        [
            "baseline",
            "--store", str(synth_store / "store.json"),
            "--config", str(config),
            "--kind", "static_weave",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "static_weave"
    assert summary["evaluations"] <= 5


# ---------------------------------------------------------------------- stats


def test_stats_reports_consistency(tmp_path, synth_store):
    out = tmp_path / "stats"
    code = cli_run(
        ["stats", "--store", str(synth_store / "store.json"), "--out", str(out)]
    )
    assert code == 0
    payload = json.loads((out / "stats.json").read_text())
    assert payload["unseen_task"] == "unseen"
    bench = payload["benchmarks"]
    assert set(bench) == {"bench00", "bench01"}
    # identity mix: bench00 matches the unseen task exactly
    assert bench["bench00"]["r_squared"] == pytest.approx(1.0, rel=1e-12)
    assert bench["bench00"]["kendall"] == pytest.approx(1.0)
    assert bench["bench00"]["shared_edges"] == 18
    assert bench["bench01"]["r_squared"] < 0.5
    csv_lines = (out / "consistency.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "task,metric,value"
    assert len(csv_lines) == 1 + 2 * 4


def test_stats_requires_unseen_task(tmp_path, space_file, capsys):
    records = tmp_path / "records.csv"
    records.write_text(RECORDS, encoding="utf-8")
    out = tmp_path / "ingested"
    cli_run(["ingest", "--space", str(space_file), "--records", str(records), "--out", str(out)])
    code = cli_run(["stats", "--store", str(out / "store.json"), "--out", str(tmp_path / "s")])
    assert code == 1
    assert "no task 'unseen'" in capsys.readouterr().err
