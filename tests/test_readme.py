"""The README's config reference matches the code: every key, default and constant.

A key added to or removed from ``RunConfig``, ``PlannerSettings`` or the
``synth`` config fails here until the README's tables say so too.
"""

from __future__ import annotations

import ast
import importlib
import json
import re
from dataclasses import fields
from pathlib import Path

from mdesign.cli import _SPEC_KEYS
from mdesign.engine import PlannerSettings, RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src" / "mdesign"


def section(title: str) -> str:
    """The README's text under the ``### title`` heading, up to the next heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n### {title}\n")
    end = text.find("\n#", start + 1)
    return text[start : end if end != -1 else len(text)]


def table(text: str) -> dict[str, str]:
    """First column (a backticked key) -> second column, over every table row of ``text``."""
    rows = {}
    for line in text.splitlines():
        if line.startswith("| `"):
            key, value = (cell.strip() for cell in line.strip("|").split("|")[:2])
            rows[key.strip("`")] = value
    return rows


def test_the_run_config_example_is_a_config():
    [example] = re.findall(r"```json\n(.*?)```", section("Run config"), re.DOTALL)
    payload = json.loads(example)
    config = RunConfig.from_mapping(payload)
    assert config.budget == payload["budget"]


def test_every_run_config_key_is_listed_with_its_default():
    rows = table(section("Run config"))
    documented = {key: value for key, value in rows.items() if not key.startswith("mdesign.")}
    config = RunConfig()
    defaults = {f.name: getattr(config, f.name) for f in fields(RunConfig) if f.name != "planner"}
    defaults.update({f"planner.{f.name}": getattr(config.planner, f.name)
                     for f in fields(PlannerSettings)})
    assert set(documented) == set(defaults)
    for key, value in documented.items():
        assert json.loads(value.strip("`")) == defaults[key], key


def test_every_listed_constant_holds_its_value():
    rows = table(section("Run config"))
    constants = {key: value for key, value in rows.items() if key.startswith("mdesign.")}
    assert len(constants) == 6
    for key, value in constants.items():
        module, name = key.rsplit(".", 1)
        assert getattr(importlib.import_module(module), name) == json.loads(value.strip("`")), key


def listed_constants() -> set[str]:
    """The bare names of the constants the README lists."""
    rows = table(section("Run config"))
    return {key.rsplit(".", 1)[1] for key in rows if key.startswith("mdesign.")}


def package_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def names_in(node: ast.AST) -> set[str]:
    """Every name and attribute that ``node`` reads."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_no_parameter_or_field_defaults_to_a_listed_constant():
    """The listed constants are read where they are used; nothing takes them as a setting."""
    names = listed_constants()
    found = []
    for file, tree in package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = [*node.args.defaults, *filter(None, node.args.kw_defaults)]
            elif isinstance(node, ast.ClassDef):
                defaults = [s.value for s in node.body if isinstance(s, ast.AnnAssign) and s.value]
            else:
                continue
            for default in defaults:
                found += [(file, getattr(node, "name", "lambda"), name) for name in names_in(default) & names]
    assert len(names) == 6
    assert found == []


def test_no_call_into_the_package_passes_a_listed_constant():
    """No class or function of the package is handed a listed constant; the standard library may be."""
    names = listed_constants()
    trees = package_trees()
    defined = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    found = []
    for file, tree in trees.items():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            if callee in defined:
                for arg in [*call.args, *(keyword.value for keyword in call.keywords)]:
                    found += [(file, arg.lineno, callee, name) for name in names_in(arg) & names]
    assert found == []


def test_every_synth_config_key_is_listed():
    documented = set(table(section("Synth config")))
    assert documented == _SPEC_KEYS | {"n_benchmarks", "seed", "unseen_task"}
