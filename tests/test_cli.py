"""Command-line front end: exit codes, outputs, option handling."""

import json

import pytest

from affsched.cli import EXIT_INPUT, EXIT_OK, EXIT_TIMEOUT, EXIT_VIOLATION, main
from affsched.procedure import plan_from_doc
from conftest import FIXTURE_DIR, fixture_doc, fixture_nest, reversal_doc


def fixture_path(name):
    return str(FIXTURE_DIR / f"{name}.json")


@pytest.fixture
def matmul_plan(tmp_path):
    out = tmp_path / "plan.json"
    rc = main(["solve", "--input", fixture_path("matmul"), "--out", str(out)])
    assert rc == EXIT_OK
    return out


class TestSolve:
    def test_writes_plan_with_comm_report(self, matmul_plan):
        doc = json.loads(matmul_plan.read_text())
        assert doc["statements"]["S1"]["T"] == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        assert doc["r_space"] == 1
        assert doc["comm_report"]["broadcasts"][0]["eligible"] is True

    def test_idempotent_output(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["solve", "--input", fixture_path("stencil"), "--out", str(out)]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_spatial_dims_zero(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        rc = main(
            ["solve", "--input", fixture_path("chain"), "--spatial-dims", "0",
             "--out", str(out)]
        )
        assert rc == EXIT_OK
        assert "communication-free" in capsys.readouterr().out

    def test_infeasible_exit_code(self, tmp_path, capsys):
        p = tmp_path / "reversal.json"
        p.write_text(json.dumps(reversal_doc()))
        rc = main(["solve", "--input", str(p), "--spatial-dims", "0"])
        assert rc == EXIT_VIOLATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: recursion 1 infeasible (active dependences [0], ")

    def test_tie_warning_is_printed(self, capsys):
        rc = main(["solve", "--input", fixture_path("chain23"), "--spatial-dims", "1"])
        assert rc == EXIT_OK
        assert (
            "warning: dependence #0 (S1->S2, flow) is scheduled with equal time vectors at "
            "every level; correctness relies on textual order"
        ) in capsys.readouterr().out.splitlines()

    def test_r_must_be_smaller_than_depth(self, capsys):
        rc = main(["solve", "--input", fixture_path("vecadd"), "--spatial-dims", "1"])
        assert rc == EXIT_INPUT
        assert "0 <= r < n: got r=1, n=1" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        rc = main(["solve", "--input", "/nonexistent.json"])
        assert rc == EXIT_INPUT
        assert "not found" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{ not json")
        assert main(["solve", "--input", str(p)]) == EXIT_INPUT

    @pytest.mark.parametrize("text", ["", "[1, 2]"])
    def test_input_without_json_object(self, tmp_path, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["solve", "--input", str(p)]) == EXIT_INPUT

    def test_weight_override(self, tmp_path):
        out = tmp_path / "p.json"
        rc = main(
            ["solve", "--input", fixture_path("chain"), "--spatial-dims", "0",
             "--weight", "legality=3", "--out", str(out)]
        )
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["diagnostics"][0]["objective"] == [6, 1]

    def test_bad_weight(self, capsys):
        rc = main(
            ["solve", "--input", fixture_path("chain"), "--spatial-dims", "0",
             "--weight", "legality"]
        )
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("weight,message", [
        ("legality=abc", "bad weight value 'abc'"),
        ("speed=2", "unknown weight family 'speed'"),
    ])
    def test_bad_weight_override(self, capsys, weight, message):
        rc = main(["solve", "--input", fixture_path("chain"), "--spatial-dims", "0",
                   "--weight", weight])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_time_limit_exit_code(self, capsys):
        rc = main(["solve", "--input", fixture_path("matmul"), "--time-limit", "1e-9"])
        assert rc == EXIT_TIMEOUT
        assert "recursion 1" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["nan", "0", "-1"])
    def test_bad_time_limit(self, limit, capsys):
        rc = main(["solve", "--input", fixture_path("matmul"), "--time-limit", limit])
        assert rc == EXIT_INPUT
        assert "time_limit must be > 0" in capsys.readouterr().err

    def test_field_of_wrong_json_type(self, tmp_path, capsys):
        doc = fixture_doc("chain")
        doc["dependences"][0]["domain"] = 3
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(p)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: dependence #0: domain: expected an object, got int\n")

    @pytest.mark.parametrize("path,value", [
        (("statements", 0, "depth"), [1]),
        (("statements", 0, "id"), ["S1"]),
        (("statements", 0, "domain", "box", 0, "lower", "coeffs"), 5),
        (("accesses", 0, "F"), 3),
        (("arrays", 0, "dim"), 1.5),
        (("params", 0, "min"), "4"),
        (("dependences", 0, "produced_by", "slot"), 1),
    ])
    def test_malformed_nest_field(self, tmp_path, capsys, path, value):
        doc = fixture_doc("chain")
        *path, last = path
        target = doc
        for key in path:
            target = target[key]
        target[last] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(p), "--spatial-dims", "0"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "p.json"
        rc = main(["solve", "--input", fixture_path("chain"), "--spatial-dims", "0",
                   "--out", str(out)])
        assert rc == EXIT_INPUT
        assert f"cannot write output file {out}" in capsys.readouterr().err


class TestValidate:
    def test_pass(self, matmul_plan, capsys):
        rc = main(
            ["validate", "--input", fixture_path("matmul"), "--plan", str(matmul_plan),
             "--params", "N=3"]
        )
        assert rc == EXIT_OK
        assert "pass" in capsys.readouterr().err

    def test_default_two_settings(self, matmul_plan, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            ["validate", "--input", fixture_path("matmul"), "--plan", str(matmul_plan),
             "--out", str(out)]
        )
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert [r["n_vals"] for r in doc["reports"]] == [[4], [6]]

    def test_no_parameters_validates_once(self, tmp_path, capsys):
        # N^(0)+2 and N^(0)+4 are both N=() in a nest without parameters
        doc = fixture_doc("vecadd")
        doc["params"] = []
        doc["statements"][0]["domain"]["box"] = [
            {"lower": {"coeffs": [], "const": 0}, "upper": {"coeffs": [], "const": 3}}]
        for acc in doc["accesses"]:
            acc["G"] = [[]]
        nest, plan, out = (tmp_path / name for name in ("nest.json", "plan.json", "out.json"))
        nest.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(nest), "--spatial-dims", "0",
                     "--out", str(plan)]) == EXIT_OK
        capsys.readouterr()
        rc = main(["validate", "--input", str(nest), "--plan", str(plan), "--out", str(out)])
        assert rc == EXIT_OK
        assert [r["n_vals"] for r in json.loads(out.read_text())["reports"]] == [[]]
        assert capsys.readouterr().err == "N=(): pass (violations=0, comm=0)\n"

    def test_vertex_domain_solves_but_cannot_validate(self, tmp_path, capsys):
        # a domain given by vertices plans and reports, but the validator
        # cannot enumerate it: bad input, exit 2
        doc = fixture_doc("vecadd")
        doc["statements"][0]["domain"] = {
            "vertices": [{"R": [[0]], "omega": [0]}, {"R": [[1]], "omega": [0]}]}
        nest, plan = tmp_path / "nest.json", tmp_path / "plan.json"
        nest.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(nest), "--spatial-dims", "0",
                     "--out", str(plan)]) == EXIT_OK
        assert main(["report", "--input", str(nest), "--plan", str(plan)]) == EXIT_OK
        capsys.readouterr()
        rc = main(["validate", "--input", str(nest), "--plan", str(plan)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: explicit-vertex domains cannot be enumerated\n")

    def test_violation_exit_code(self, matmul_plan, tmp_path, capsys):
        doc = json.loads(matmul_plan.read_text())
        doc["statements"]["S1"]["T"] = [[-1, 0, 0], [0, 0, -1], [0, -1, 0]]
        # the solved schedule's diagnostics are not what the new one gives
        del doc["diagnostics"], doc["warnings"]
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            ["validate", "--input", fixture_path("matmul"), "--plan", str(bad),
             "--params", "N=3"]
        )
        assert rc == EXIT_VIOLATION
        assert "FAIL" in capsys.readouterr().err

    def test_unknown_parameter(self, matmul_plan):
        rc = main(
            ["validate", "--input", fixture_path("matmul"), "--plan", str(matmul_plan),
             "--params", "M=3"]
        )
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("setting,message", [
        ("N=4,N=5", "parameter 'N' given twice in 'N=4,N=5'"),
        ("N=abc", "bad value 'abc' for parameter 'N'; expected an integer"),
        ("N=", "bad value '' for parameter 'N'; expected an integer"),
        ("N4", "bad parameter setting 'N4'; expected name=value"),
        # 101^3 matmul points pass the enumeration cap
        ("N=101", "domain has more than 1000000 points"),
    ])
    def test_bad_parameter_setting(self, matmul_plan, capsys, setting, message):
        rc = main(["validate", "--input", fixture_path("matmul"), "--plan", str(matmul_plan),
                   "--params", setting])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_setting_missing_a_parameter(self, tmp_path, capsys):
        # vecadd with a second parameter M that no bound or access uses
        doc = fixture_doc("vecadd")
        doc["params"].append({"name": "M", "min": 1})
        for bound in doc["statements"][0]["domain"]["box"]:
            bound["lower"]["coeffs"].append(0)
            bound["upper"]["coeffs"].append(0)
        for acc in doc["accesses"]:
            acc["G"] = [row + [0] for row in acc["G"]]
        nest, plan = tmp_path / "nest.json", tmp_path / "plan.json"
        nest.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(nest), "--spatial-dims", "0",
                     "--out", str(plan)]) == EXIT_OK
        capsys.readouterr()
        rc = main(["validate", "--input", str(nest), "--plan", str(plan), "--params", "N=3"])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == "error: parameter setting 'N=3' misses ['M']\n"

    def test_params_below_minimum(self, matmul_plan):
        rc = main(
            ["validate", "--input", fixture_path("matmul"), "--plan", str(matmul_plan),
             "--params", "N=1"]
        )
        assert rc == EXIT_INPUT

    def test_missing_plan_file(self):
        rc = main(
            ["validate", "--input", fixture_path("matmul"), "--plan", "/nope.json"]
        )
        assert rc == EXIT_INPUT

    def test_directory_as_input_or_plan(self, matmul_plan, tmp_path, capsys):
        for argv in (["--input", str(tmp_path), "--plan", str(matmul_plan)],
                     ["--input", fixture_path("matmul"), "--plan", str(tmp_path)]):
            assert main(["validate", *argv]) == EXIT_INPUT
            assert "cannot read" in capsys.readouterr().err

    def test_plan_missing_field(self, matmul_plan, tmp_path, capsys):
        doc = json.loads(matmul_plan.read_text())
        del doc["statements"]["S1"]["B"]
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps(doc))
        rc = main(["validate", "--input", fixture_path("matmul"), "--plan", str(bad)])
        assert rc == EXIT_INPUT
        assert "misses field 'B'" in capsys.readouterr().err

    @pytest.mark.parametrize("path,value", [
        (("r_space",), "1"),
        (("r_space",), 2),
        (("statements", "S1", "a"), [-2]),
        (("arrays", "u", "y"), []),
        (("weights", "legality"), [1, 0]),
        (("statements", "S1", "a"), [1.5, 0]),
        (("statements", "S1", "T"), 5),
        (("weights",), [1]),
        (("warnings",), 3),
        (("diagnostics", 0, "witnesses"), [1]),
        (("diagnostics", 0, "slacks", "dep0.v0"), 0.5),
        (("diagnostics", 0, "witnesses", "S1", "sign"), "x"),
        (("diagnostics", 0, "witnesses", "S1", "s"), [1, "0"]),
        (("diagnostics", 0, "dropped_dependences"), [0.0]),
        # diagnostics out of range
        (("diagnostics", 0, "witnesses", "S1", "sign"), 5),
        (("diagnostics", 0, "witnesses", "S1", "s"), [1, 0, 7]),
        (("diagnostics", 0, "witnesses", "S9"), {"s": [1, 0], "sign": 1}),
        (("diagnostics", 0, "active_dependences"), [-3, 99]),
        (("warnings",), [1, 2]),
        (("diagnostics", 0, "active_space_accesses"), [["Q", "S9", 7, 8]]),
        (("diagnostics", 0, "active_space_accesses"), [[1]]),
        (("diagnostics", 0, "xi"), -4),
        (("diagnostics", 1, "xi"), 1),
        (("weights",), {"indep": [4, 1], "align-F": [64, 1], "align-G": [64, 1],
                        "align-f": [64, 1], "space": [2, 1]}),
        (("weights", "speed"), [1, 1]),
        (("weights", "legality"), [-1, 1]),
        # a slot that equals an access's int slot without being an int
        (("diagnostics", 0, "active_space_accesses"), [["u", "S1", 1.0]]),
        (("diagnostics", 0, "active_space_accesses"), [["u", "S1", True]]),
    ])
    def test_plan_of_wrong_shape(self, tmp_path, capsys, path, value):
        plan = tmp_path / "plan.json"
        assert main(["solve", "--input", fixture_path("stencil"), "--out", str(plan)]) == EXIT_OK
        doc = json.loads(plan.read_text())
        *path, last = path
        target = doc
        for key in path:
            target = target[key]
        target[last] = value
        plan.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["validate", "--input", fixture_path("stencil"), "--plan", str(plan),
                   "--params", "N=4"])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: plan ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_plan_with_a_diagnostics_entry_too_many(self, command, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert main(["solve", "--input", fixture_path("stencil"), "--out", str(plan)]) == EXIT_OK
        doc = json.loads(plan.read_text())
        doc["diagnostics"].append({**doc["diagnostics"][-1], "xi": 3})
        plan.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main([command, "--input", fixture_path("stencil"), "--plan", str(plan)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: plan document, field 'diagnostics': 3 entries, its transforms give 2\n")

    def test_unwritable_out(self, matmul_plan, tmp_path, capsys):
        out = tmp_path / "missing" / "v.json"
        rc = main(["validate", "--input", fixture_path("matmul"), "--plan", str(matmul_plan),
                   "--params", "N=3", "--out", str(out)])
        assert rc == EXIT_INPUT
        assert f"cannot write output file {out}" in capsys.readouterr().err


class TestReport:
    def test_report_json(self, matmul_plan, tmp_path, capsys):
        out = tmp_path / "comm.json"
        rc = main(
            ["report", "--input", fixture_path("matmul"), "--plan", str(matmul_plan),
             "--out", str(out)]
        )
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["exchanges"][0]["access"] == ["B", "S1", 1]
        assert "broadcast eligible" in capsys.readouterr().out

    def test_unwritable_out(self, matmul_plan, tmp_path, capsys):
        out = tmp_path / "missing" / "comm.json"
        rc = main(["report", "--input", fixture_path("matmul"), "--plan", str(matmul_plan),
                   "--out", str(out)])
        assert rc == EXIT_INPUT
        assert f"cannot write output file {out}" in capsys.readouterr().err


def _edited_plan(tmp_path, name, edit):
    """The path of `name`'s solved plan after `edit` of its document."""
    plan = tmp_path / "plan.json"
    assert main(["solve", "--input", fixture_path(name), "--out", str(plan)]) == EXIT_OK
    doc = json.loads(plan.read_text())
    edit(doc)
    plan.write_text(json.dumps(doc))
    return plan


class TestReplayedDiagnostics:
    """A plan's diagnostics and warnings are what its transforms give."""

    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_forged_diagnostics_rejected(self, command, tmp_path, capsys):
        def forge(doc):
            for d in doc["diagnostics"]:
                d["objective"] = [0, 1]
                d["slacks"] = dict.fromkeys(d["slacks"], 0)
            doc["warnings"] = ["anything"]

        plan = _edited_plan(tmp_path, "stencil", forge)
        capsys.readouterr()
        rc = main([command, "--input", fixture_path("stencil"), "--plan", str(plan)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: plan diagnostics #0: objective [0, 1], its transforms give [68, 1]\n")

    @pytest.mark.parametrize("name,params,verdict", [
        ("stencil", "N=6", "N=(6,): FAIL (violations=0, comm=66)"),
        ("matmul", "N=4", "N=(4,): FAIL (violations=0, comm=32)"),
        ("chain23", "N=4", "N=(4,): FAIL (violations=36, comm=128)"),
        ("mixed", "N=4,M=4", "N=(4, 4): FAIL (violations=16, comm=23)"),
    ])
    def test_rank_deficient_plan_replays(self, name, params, verdict, tmp_path, capsys):
        # every schedule row zeroed, the diagnostics and warnings dropped:
        # the plan reads back, and validate, not the reading, reports it
        def zero(doc):
            for st in doc["statements"].values():
                st["T"] = [[0] * len(row) for row in st["T"]]
            del doc["diagnostics"], doc["warnings"]

        plan = _edited_plan(tmp_path, name, zero)
        replayed = plan_from_doc(json.loads(plan.read_text()), fixture_nest(name))
        capsys.readouterr()
        assert main(["report", "--input", fixture_path(name), "--plan", str(plan)]) == EXIT_OK
        printed = [line.removeprefix("warning: ") for line in capsys.readouterr().out.splitlines()
                   if line.startswith("warning: ")]
        assert printed == replayed.warnings
        rc = main(["validate", "--input", fixture_path(name), "--plan", str(plan),
                   "--params", params])
        assert rc == EXIT_VIOLATION
        assert capsys.readouterr().err == verdict + "\n"
