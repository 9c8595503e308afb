"""The benchmark under bench/ binds library names; fail fast when one is gone."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import prophet_samples.cli  # noqa: F401  the tracer patches cli.main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_removes(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_spans", spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    bindings = [(importlib.import_module(f"prophet_samples.{mod}"), attr) for _, mod, attr in spans.FUNCTIONS]
    bindings += [(cls, attr) for _, cls, attr in spans.METHODS]
    originals = [getattr(owner, attr) for owner, attr in bindings]
    with spans.Tracer().installed():
        for (owner, attr), original in zip(bindings, originals):
            assert getattr(owner, attr) is not original, attr
    for (owner, attr), original in zip(bindings, originals):
        assert getattr(owner, attr) is original, attr


def _library_aliases(tree: ast.Module) -> dict[str, object]:
    """Local name -> object for every prophet_samples import."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("prophet_samples"):
                    aliases[a.asname or a.name] = importlib.import_module(a.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("prophet_samples"):
            for a in node.names:
                aliases[a.asname or a.name] = importlib.import_module(f"{node.module}.{a.name}")
    return aliases


# Every bench module that imports the library; their attribute chains must resolve.
_CLIENTS = sorted(
    path.name for path in BENCH.glob("*.py")
    if _library_aliases(ast.parse(path.read_text(encoding="utf-8")))
)


@pytest.mark.parametrize("module", _CLIENTS)
def test_workload_library_names_resolve(module):
    tree = ast.parse((BENCH / module).read_text(encoding="utf-8"))
    aliases = _library_aliases(tree)
    checked = 0
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            obj = aliases[node.id]
            for attr in reversed(chain):
                assert hasattr(obj, attr), f"bench/{module} uses {node.id}.{'.'.join(reversed(chain))}"
                obj = getattr(obj, attr)
            checked += 1
    assert checked


def test_bench_clients_include_the_workloads():
    assert {"run.py", "spans.py", "workloads.py"} <= set(_CLIENTS)
