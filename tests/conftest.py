import importlib
import json
import pathlib
import sys
from types import SimpleNamespace

import pytest

from affsched.algebra import dot
from affsched.comm import comm_report
from affsched.constraints import _column
from affsched.nest import load_nest
from affsched.procedure import run_procedure

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
PERFBENCH_DIR = FIXTURE_DIR.parent / "perfbench"

FIXTURE_NAMES = ("vecadd", "chain", "stencil", "addmat", "matvec", "matmul")


def fixture_doc(name):
    return json.loads((FIXTURE_DIR / f"{name}.json").read_text())


def fixture_nest(name):
    return load_nest(fixture_doc(name))


def reversal_doc():
    """S1 over 0 <= i <= N (N >= 2) with a flow dependence from S1(N - i) to S1(i).

    t(i) - t(N - i) = tau*(2i - N) is >= 0 at both ends of the domain only
    for tau = 0, so no full-rank schedule exists.
    """
    box = {"box": [{"lower": {"coeffs": [0], "const": 0}, "upper": {"coeffs": [1], "const": 0}}]}
    return {
        "params": [{"name": "N", "min": 2}],
        "statements": [{"id": "S1", "depth": 1, "domain": box, "order": 1}],
        "arrays": [],
        "accesses": [],
        "dependences": [{"source": "S1", "target": "S1", "kind": "flow", "Phi": [[-1]],
                         "Psi": [[1]], "phi": [0], "domain": box}],
    }


# default spatial dimension count per fixture: one spatial dimension where
# the nest is deep enough, none for single loops
DEFAULT_R = {
    "vecadd": 0,
    "chain": 0,
    "stencil": 1,
    "addmat": 1,
    "matvec": 1,
    "matmul": 1,
}

_plan_cache = {}


def fixture_plan(name, r_space=None, **kwargs):
    if r_space is None:
        r_space = DEFAULT_R[name]
    key = (name, r_space, tuple(sorted(kwargs.items())))
    if key not in _plan_cache:
        _plan_cache[key] = run_procedure(fixture_nest(name), r_space=r_space, **kwargs)
    return _plan_cache[key]


def column(coeffs, sense, family, label, weight):
    """The constraint column with dense coefficients `coeffs`, built as the builders build one."""
    return _column(SimpleNamespace(size=len(coeffs)), [(0, coeffs)], sense, family, label, weight)


def access_of(nest, key):
    """The access of `nest` with key (array, statement, slot)."""
    (acc,) = [acc for acc in nest.accesses if acc.key == tuple(key)]
    return acc


def broadcast_finding(plan, nest, key):
    """The broadcast finding of the read `key` in the plan's communication report."""
    (finding,) = [b for b in comm_report(plan, nest)["broadcasts"] if b["access"] == list(key)]
    return finding


def index_at(acc, point, n_vals):
    """The element the access `acc` touches at operation `point`: F J + G N + f."""
    return tuple(dot(f, point) + dot(g, n_vals) + c
                 for f, g, c in zip(acc.iter_coeffs, acc.param_coeffs, acc.offset))


def source_point(dep, target_point, n_vals):
    """The source operation of the dependence `dep` at `target_point`: Phi J + Psi N - phi."""
    return tuple(dot(p, target_point) + dot(q, n_vals) - h
                 for p, q, h in zip(dep.source_map, dep.param_map, dep.shift))


def vertex_at(vertex, n_vals):
    """A parametric vertex (R rows, omega) of `Domain.vertices` at concrete parameters."""
    rows, omega = vertex
    return tuple(dot(r, n_vals) + w for r, w in zip(rows, omega))


def perfbench_module(name):
    """A module of perfbench/, imported (never modified) through sys.path."""
    if str(PERFBENCH_DIR) not in sys.path:
        sys.path.append(str(PERFBENCH_DIR))
    return importlib.import_module(name)


@pytest.fixture
def nests():
    return {name: fixture_nest(name) for name in FIXTURE_NAMES}
