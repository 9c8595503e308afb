"""The benchmark under bench/ binds library names; fail fast when one is gone."""

import ast
import importlib
import importlib.util
import inspect
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


def _library_calls(tree: ast.Module, aliases: dict[str, object]):
    """(dotted name, callable, call node) for every call of a library name
    whose arguments can be counted: no *args and no **kwargs."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.append(func.attr)
            func = func.value
        if not (isinstance(func, ast.Name) and func.id in aliases):
            continue
        obj = aliases[func.id]
        for attr in reversed(chain):
            obj = getattr(obj, attr, None)
        starred = any(isinstance(a, ast.Starred) for a in node.args) or any(kw.arg is None for kw in node.keywords)
        if callable(obj) and not starred:
            yield ".".join([func.id, *reversed(chain)]), obj, node


@pytest.mark.parametrize("module", _CLIENTS)
def test_workload_library_calls_bind(module):
    """Every library call in bench/ binds its arguments to the callee's
    signature, so a dropped parameter fails here and not in a benchmark run."""
    tree = ast.parse((BENCH / module).read_text(encoding="utf-8"))
    for name, obj, call in _library_calls(tree, _library_aliases(tree)):
        placeholders = [None] * len(call.args)
        keywords = {kw.arg: None for kw in call.keywords}
        try:
            inspect.signature(obj).bind(*placeholders, **keywords)
        except TypeError as exc:
            pytest.fail(f"bench/{module}:{call.lineno} calls {name}: {exc}")


def test_library_calls_include_the_pinned_keywords():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    calls = {name: call for name, _, call in _library_calls(tree, _library_aliases(tree))}
    assert [kw.arg for kw in calls["evaluation.dominance_check"].keywords] == ["mode"]
    assert len(calls["evaluation.ordinal_upper_bound_sweep"].args) == 4
    # ps, delta and the ignored reps and rng; the pair goes when the bench stops passing it
    assert len(calls["stats.chernoff_check"].args) == 4


def test_bench_clients_include_the_workloads():
    assert {"run.py", "spans.py", "workloads.py"} <= set(_CLIENTS)


@pytest.fixture(scope="module")
def bench_workloads():
    sys.path.insert(0, str(BENCH))  # workloads imports its oracles as a top-level module
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


BENCH_WORKLOADS = ("semi-atoms", "paper-sweep", "mc-pool", "exact-oracles")


@pytest.mark.parametrize("name", BENCH_WORKLOADS)
def test_workload_checks_pass_on_one_pass(bench_workloads, name, tmp_path):
    """One pass of each benchmark workload at a fixed seed satisfies the
    workload's own output checks, which the benchmark counts as failures."""
    assert bench_workloads.WORKLOADS == BENCH_WORKLOADS
    workload = bench_workloads.build(name, 1, tmp_path)
    try:
        outputs = [task.call() for task in workload.tasks]
    finally:
        workload.close()
    problems = [p for p in workload.check(workload.tasks, outputs) if p]
    assert not problems, problems
