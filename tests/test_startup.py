"""numpy is a validator-only dependency: planning and reporting never load it.

Each check runs in a fresh interpreter, since this one has long imported
numpy and resolved `affsched.validate`.
"""

import json
import os
import pathlib
import subprocess
import sys

from conftest import FIXTURE_DIR

SRC_DIR = FIXTURE_DIR.parent / "src"
TESTS_DIR = pathlib.Path(__file__).resolve().parent


def run_fresh(code: str, tmp_path) -> dict:
    """The JSON object that `code` prints last, run in a new interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), str(TESTS_DIR),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_solve_and_report_leave_numpy_unloaded(tmp_path):
    got = run_fresh(f"""
import contextlib, io, json, sys
import affsched, affsched.cli
loaded = ["numpy" in sys.modules]
nest = {str(FIXTURE_DIR / "stencil.json")!r}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [affsched.cli.main(["solve", "--input", nest, "--out", "plan.json"]),
             affsched.cli.main(["report", "--input", nest, "--plan", "plan.json"])]
loaded.append("numpy" in sys.modules)
with open(nest) as fh:
    n = affsched.load_nest(json.load(fh))
with open("plan.json") as fh:
    plan = affsched.plan_from_doc(json.load(fh), n)
passed = affsched.validate(n, plan, [4]).passed
loaded.append("numpy" in sys.modules)
print(json.dumps({{"codes": codes, "loaded": loaded, "passed": passed}}))
""", tmp_path)
    assert got == {"codes": [0, 0], "loaded": [False, False, True], "passed": True}


def test_validator_names_resolve(tmp_path):
    got = run_fresh("""
import json
import affsched
from affsched import enumerate_domain, validate
import affsched.validation as v
ns = {}
exec("from affsched import *", ns)
print(json.dumps({
    "named": [validate is v.validate, enumerate_domain is v.enumerate_domain],
    "star": sorted(set(affsched.__all__) - set(ns)),
}))
""", tmp_path)
    assert got == {"named": [True, True], "star": []}


def test_tracer_round_trip_restores_validate(tmp_path):
    # perfbench's tracer reads and restores `affsched.validate` with
    # getattr/setattr; here it is resolved for the first time by `install`
    got = run_fresh("""
import json
import affsched
from conftest import fixture_nest, perfbench_module
fresh = "validate" not in vars(affsched)
tracer = perfbench_module("spans").Tracer()
tracer.install()
try:
    nest = fixture_nest("stencil")
    affsched.validate(nest, affsched.run_procedure(nest, r_space=1), [4])
finally:
    tracer.uninstall()
spans, _ = tracer.take()
print(json.dumps({
    "fresh": fresh,
    "restored": affsched.validate is affsched.validation.validate,
    "spans": sorted({s[0] for s in spans}),
}))
""", tmp_path)
    assert got["fresh"] and got["restored"]
    assert {"validation.validate", "nest.enum", "procedure.run"} <= set(got["spans"])
