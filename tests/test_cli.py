"""Command-line interface: exit codes, file outputs, determinism."""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import read_store_file, write_store_file
from mdesign.cli import cli_run
from mdesign.space import load_design_space
from mdesign.store import KnowledgeStore, load_store

ROOT = Path(__file__).resolve().parent.parent
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


@pytest.mark.parametrize("command", ["ingest", "synth", "refine", "baseline", "stats"])
@pytest.mark.parametrize("beneath", [False, True], ids=["file", "beneath-a-file"])
def test_unwritable_out_exits_one(tmp_path, space_file, synth_store, capsys, command, beneath):
    """``--out`` naming an existing file, or a directory beneath one, is a data error."""
    records = tmp_path / "records.csv"
    records.write_text(RECORDS, encoding="utf-8")
    sources = {
        "ingest": ["--space", str(space_file), "--records", str(records)],
        "synth": ["--space", str(space_file)],
    }
    source = sources.get(command, ["--store", str(synth_store / "store.json")])
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    out = taken / "sub" if beneath else taken
    capsys.readouterr()
    assert cli_run([command, *source, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def version_4_payload(header: dict, ranks: list[int], perf: list[list[float]]) -> dict:
    """A store file's payload in the version-4 layout: hex strings of little-endian bytes."""
    return {
        **{key: value for key, value in header.items() if key != "designs"},
        "version": 4,
        "ranks": np.array(ranks, "<i8").tobytes().hex(),
        "perf": [np.array(row, "<f8").tobytes().hex() for row in perf],
    }


def version_3_payload(header: dict, ranks: list[int], perf: list[list[float]]) -> dict:
    """A store file's payload in the version-3 layout: JSON ints, and numbers or nulls."""
    return {
        **{key: value for key, value in header.items() if key != "designs"},
        "version": 3,
        "ranks": ranks,
        "perf": [[None if math.isnan(x) else x for x in row] for row in perf],
    }


def version_2_payload(*parts) -> dict:
    """A store file's payload in the version-2 layout: choice columns and per-task id columns."""
    payload = version_3_payload(*parts)
    space = load_design_space("".join(f"{n}: [{', '.join(c)}]\n" for n, c in payload["space"]))
    perf = []
    for task, row in zip(payload["tasks"], payload["perf"]):
        ids = [i for i, value in enumerate(row) if value is not None]
        perf.append([task[0], ids, [row[i] for i in ids]])
    ranks = payload["ranks"]
    return {
        **{key: value for key, value in payload.items() if key != "ranks"},
        "version": 2,
        "archs": space.choices_at(np.array(ranks)).T.tolist(),
        "perf": perf,
    }


def version_1_payload(*parts) -> dict:
    """A store file's payload in the version-1 layout: a list per design and per measurement."""
    columns = version_2_payload(*parts)
    return {
        **columns,
        "version": 1,
        "archs": [list(design) for design in zip(*columns["archs"])],
        "perf": [
            [tid, [[a, v] for a, v in zip(ids, values)]] for tid, ids, values in columns["perf"]
        ],
    }


def run_on_old_store(tmp_path, synth_store, capsys, command, payload) -> tuple[int, str]:
    """Exit code and stderr of ``command`` on the synth store rewritten as ``payload`` of it."""
    current = read_store_file(synth_store / "store.json")
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload(*current), sort_keys=True) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = cli_run([command, "--store", str(old), "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["refine", "stats", "baseline"])
def test_version_1_store_exits_one(tmp_path, synth_store, capsys, command):
    assert run_on_old_store(tmp_path, synth_store, capsys, command, version_1_payload) == (
        1, f"error: store version mismatch in {tmp_path / 'old.json'}: file has 1, "
        "this build reads version 5\n",
    )


@pytest.mark.parametrize("command", ["refine", "stats", "baseline"])
def test_version_2_store_exits_one(tmp_path, synth_store, capsys, command):
    assert run_on_old_store(tmp_path, synth_store, capsys, command, version_2_payload) == (
        1, f"error: store version mismatch in {tmp_path / 'old.json'}: file has 2, "
        "this build reads version 5\n",
    )


@pytest.mark.parametrize("command", ["refine", "stats", "baseline"])
def test_version_3_store_exits_one(tmp_path, synth_store, capsys, command):
    assert run_on_old_store(tmp_path, synth_store, capsys, command, version_3_payload) == (
        1, f"error: store version mismatch in {tmp_path / 'old.json'}: file has 3, "
        "this build reads version 5\n",
    )


@pytest.mark.parametrize("command", ["refine", "stats", "baseline"])
def test_version_4_store_exits_one(tmp_path, synth_store, capsys, command):
    assert run_on_old_store(tmp_path, synth_store, capsys, command, version_4_payload) == (
        1, f"error: store version mismatch in {tmp_path / 'old.json'}: file has 4, "
        "this build reads version 5\n",
    )


def _row_not_a_string(parts: list) -> str:
    parts[2][0] = b"null"  # bench00's row written as JSON text in place of its 72 bytes
    return "220 bytes follow the header, not 288 (8 x 9 designs x (1 + 3 tasks))"


def _odd_ranks(parts: list) -> str:
    parts[1] = np.array(parts[1], "<i8").tobytes() + b"0"  # one byte after the ranks
    return "289 bytes follow the header, not 288 (8 x 9 designs x (1 + 3 tasks))"


def _infinite_first_value(parts: list) -> str:
    parts[2][0][0] = math.inf
    return "task 'bench00', design (0, 0): non-finite performance"


def _rank_equal_to_size(parts: list) -> str:
    parts[1][-1] = 9
    return "rank 9 out of range 0..8"


def _dimension_name(name):
    def fault(parts: list) -> str:
        parts[0]["space"][0][0] = name
        return f"dimension name must be a non-empty string, got {name!r}"

    return fault


def _designs(count):
    def fault(parts: list) -> str:
        parts[0]["designs"] = count
        return f"designs {count!r} is not an int >= 0"

    return fault


def _body_size(edit):
    """The body's bytes edited: the synth store's 9 designs and 3 tasks take 288 bytes."""
    def fault(parts: list) -> str:
        _, ranks, perf = parts
        body = edit(np.array(ranks, "<i8").tobytes() + np.array(perf, "<f8").tobytes())
        parts[1:] = [body, []]
        return f"{len(body)} bytes follow the header, not 288 (8 x 9 designs x (1 + 3 tasks))"

    return fault


def _no_newline(parts: list) -> str:
    parts[0] = json.dumps(parts[0], sort_keys=True, separators=(",", ":")).encode()
    parts[1:] = [b"", []]
    return "no newline ends the header"


def _invalid_utf8_header(parts: list) -> str:
    line = json.dumps(parts[0], sort_keys=True, separators=(",", ":")).encode()
    parts[0] = line.replace(b'"bench00"', b'"bench\xff00"') + b"\n"
    at = parts[0].index(b"\xff")
    return f"'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"


STORE_FAULTS = {
    "row-not-a-string": _row_not_a_string,
    "odd-ranks": _odd_ranks,
    "infinite-value": _infinite_first_value,
    "rank-equal-to-size": _rank_equal_to_size,
    "dimension-name-null": _dimension_name(None),
    "dimension-name-number": _dimension_name(5),
    "dimension-name-empty": _dimension_name(""),
    "dimension-name-true": _dimension_name(True),
    "designs-negative": _designs(-1),
    "designs-float": _designs(9.0),
    "designs-true": _designs(True),
    "designs-null": _designs(None),
    "designs-string": _designs("9"),
    "body-a-byte-short": _body_size(lambda body: body[:-1]),
    "body-a-byte-long": _body_size(lambda body: body + b"\0"),
    "header-no-newline": _no_newline,
    "header-invalid-utf8": _invalid_utf8_header,
}


@pytest.mark.parametrize("case", sorted(STORE_FAULTS))
def test_refine_on_a_faulty_store_file_exits_one_naming_it(tmp_path, synth_store, capsys, case):
    parts = list(read_store_file(synth_store / "store.json"))
    message = STORE_FAULTS[case](parts)
    path = tmp_path / "faulty.json"
    write_store_file(path, *parts)
    capsys.readouterr()
    assert cli_run(["refine", "--store", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: corrupt store file {path}: {message}\n"


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
    "refine-negative-seed": ("refine", {"seed": -5}),
    "baseline-negative-seed": ("baseline", {"kind": "random", "seed": -5}),
    "baseline-greedy-negative-seed": ("baseline", {"kind": "greedy_local", "seed": -5}),
    "synth-negative-seed": ("synth", {"seed": -2}),
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
    # integers too large for a float
    "refine-huge-noise-floor": ("refine", {"noise_floor": 10**400}),
    "refine-huge-init-weights": (
        "refine", {"init_strategy": "explicit", "init_weights": {"bench00": 10**400}}
    ),
    "refine-huge-learning-rate": ("refine", {"planner": {"learning_rate": 10**400}}),
    "synth-huge-utility-scale": ("synth", {"utility_scale": 10**400}),
    "synth-huge-mix": ("synth", {"mix": [1.0, 10**400, 0.0]}),
    "synth-typo-keys": ("synth", {"n_benchmark": 5, "interaction": 0.3}),
    "stats-typo-keys": ("stats", {"unseen_tsk": "nope", "budget": 3}),
}
# cases whose error is checked word for word: keys no config has, and negative seeds
EXACT_ERRORS = {
    "refine-negative-seed": "seed must be an integer >= 0",
    "baseline-negative-seed": "seed must be an integer >= 0",
    "baseline-greedy-negative-seed": "seed must be an integer >= 0",
    "synth-negative-seed": "seed must be an integer >= 0, got -2",
    "refine-null-revert-on-regress": "unknown config keys: ['revert_on_regress']",
    "refine-float-persist-steps": "unknown config keys: ['persist_steps']",
    "refine-bool-noise-floor": "unknown config keys: ['noise_floor']",
    "refine-huge-noise-floor": "unknown config keys: ['noise_floor']",
    "refine-bool-low-weight-factor": "unknown config keys: ['low_weight_factor']",
    "refine-text-buffer-capacity": "unknown planner config keys: ['buffer_capacity']",
    "refine-zero-buffer-capacity": "unknown planner config keys: ['buffer_capacity']",
    "refine-text-max-samples": "unknown planner config keys: ['max_samples']",
    "refine-float-max-samples": "unknown planner config keys: ['max_samples']",
    "refine-bool-max-samples": "unknown planner config keys: ['max_samples']",
    "refine-bool-learning-rate": "unknown planner config keys: ['learning_rate']",
    "refine-huge-learning-rate": "unknown planner config keys: ['learning_rate']",
    "synth-typo-keys": "unknown config keys: ['interaction', 'n_benchmark']",
    "stats-typo-keys": "unknown config keys: ['budget', 'unseen_tsk']",
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
    if case in EXACT_ERRORS:
        assert err == f"error: {EXACT_ERRORS[case]}\n"


def test_help_exits_zero():
    assert cli_run(["--help"]) == 0


def test_module_entry_point_warns_nothing():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "mdesign.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: mdesign")


def test_console_script_is_installed(monkeypatch, capsys):
    """``mdesign`` names ``mdesign.cli:main``, which runs the CLI on ``sys.argv``; the
    ``python -m mdesign.cli`` route is the test above."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"mdesign": "mdesign.cli:main"}
    module, _, attr = scripts["mdesign"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["mdesign", "--help"])
    with pytest.raises(SystemExit) as info:
        entry()
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mdesign")


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


def test_ingest_manifest_with_an_unknown_task_exits_one(tmp_path, space_file, capsys):
    records = tmp_path / "records.csv"
    records.write_text(RECORDS, encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"space_size": 9, "tasks": {"svhn-1": {"direction": "min"}}}), encoding="utf-8"
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
    assert code == 1
    assert "manifest lists unknown tasks: ['svhn-1']" in capsys.readouterr().err
    assert not (out / "store.json").exists()


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
    # build, load_store and subset all end in the one constructor; nothing rebuilds from rows
    made = []
    init = KnowledgeStore.__init__

    def counting(self, *args, **kwargs):
        made.append(len(args[1]))  # the store's task count
        init(self, *args, **kwargs)

    monkeypatch.setattr(KnowledgeStore, "__init__", counting)
    config = write_refine_config(tmp_path)
    argv = ["refine", "--store", str(synth_store / "store.json"), "--config", str(config)]
    assert cli_run([*argv, "--out", str(tmp_path / "refined")]) == 0
    assert made == [3, 2]  # load_store's whole store, then subset's benchmarks


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
