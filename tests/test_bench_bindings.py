"""The module bindings perfbench's tracer patches must exist in `affsched`."""

import importlib

import pytest

from affsched import procedure
from conftest import fixture_nest, perfbench_module

spans = perfbench_module("spans")


@pytest.mark.parametrize(
    "module, attr",
    [entry[:2] for entry in spans.SPANS + spans.FOLDED],
    ids=lambda v: str(v),
)
def test_traced_binding_resolves(module, attr):
    # `Tracer.install` replaces each one with getattr/setattr; a missing name
    # crashes `perfbench/run.py --trace 1`
    assert callable(getattr(importlib.import_module(module), attr))


def test_columns_built_inside_the_traced_build(monkeypatch):
    # perfbench's `constraints.build` span wraps `build_recursion_system`
    # only; a column built outside it would leave that span's time
    builders = ("build_legality_columns", "build_alignment_columns",
                "build_space_locality_columns")
    depth = [0]
    calls = []  # (builder, whether a build_recursion_system call is open)

    def entering(fn):
        def wrapper(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapper

    def recording(name, fn):
        def wrapper(*args):
            calls.append((name, depth[0] > 0))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(
        procedure, "build_recursion_system", entering(procedure.build_recursion_system)
    )
    for name in builders:
        monkeypatch.setattr(procedure, name, recording(name, getattr(procedure, name)))
    for name, r in (("matmul", 1), ("matvec", 1), ("chain23", 2), ("stencil", 0)):
        procedure.run_procedure(fixture_nest(name), r_space=r)
    assert {name for name, _ in calls} == set(builders)
    assert all(inside for _, inside in calls)
