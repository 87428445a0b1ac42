"""The module bindings perfbench's tracer patches must exist in `affsched`."""

import importlib

import pytest

from conftest import perfbench_module

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
