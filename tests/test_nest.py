"""Loop-nest ingestion, validation, vertices and enumeration."""

import copy
import re

import pytest

from affsched.nest import (
    EnumerationError,
    NestError,
    contains_point,
    load_nest,
)
from affsched.validation import enumerate_domain
from conftest import (
    FIXTURE_NAMES,
    fixture_doc,
    fixture_nest,
    index_at,
    source_point,
    vertex_at,
)


class TestLoading:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_load(self, name):
        nest = fixture_nest(name)
        assert nest.statements and nest.arrays and nest.accesses

    def test_load_from_path(self, tmp_path):
        import json

        p = tmp_path / "n.json"
        p.write_text(json.dumps(fixture_doc("vecadd")))
        nest = load_nest(str(p))
        assert nest.max_depth == 1

    def test_parse_error_reports_location(self):
        with pytest.raises(NestError, match="line"):
            load_nest("{ bad json }")

    @pytest.mark.parametrize("text", ["", "  ", "\n\t"])
    def test_empty_text_rejected(self, text):
        with pytest.raises(NestError, match="empty"):
            load_nest(text)

    @pytest.mark.parametrize("source", [[1], None, 3])
    def test_source_of_other_type_rejected(self, source):
        with pytest.raises(NestError, match="expected JSON text"):
            load_nest(source)

    def test_load_from_path_object(self, tmp_path):
        import json

        p = tmp_path / "n.json"
        p.write_text(json.dumps(fixture_doc("vecadd")))
        assert load_nest(p).max_depth == 1


class TestValidationErrors:
    def test_missing_field(self):
        doc = fixture_doc("vecadd")
        del doc["statements"][0]["depth"]
        with pytest.raises(NestError, match="depth"):
            load_nest(doc)

    def test_duplicate_statement_ids(self):
        doc = fixture_doc("vecadd")
        doc["statements"].append(copy.deepcopy(doc["statements"][0]))
        with pytest.raises(NestError, match="duplicate"):
            load_nest(doc)

    def test_statements_sharing_an_order(self):
        doc = fixture_doc("chain23")
        doc["statements"][1]["order"] = doc["statements"][0]["order"]
        with pytest.raises(NestError, match="^statements 'S1' and 'S2' share order 1$"):
            load_nest(doc)

    def test_duplicate_access_keys(self):
        doc = fixture_doc("vecadd")
        doc["accesses"].append(copy.deepcopy(doc["accesses"][0]))
        with pytest.raises(NestError, match="duplicate"):
            load_nest(doc)

    def test_bad_access_shape(self):
        doc = fixture_doc("vecadd")
        doc["accesses"][0]["F"] = [[1, 0]]
        with pytest.raises(NestError, match="expected 1x1"):
            load_nest(doc)

    def test_bad_dependence_kind(self):
        doc = fixture_doc("chain")
        doc["dependences"][0]["kind"] = "sideways"
        with pytest.raises(NestError, match="bad kind"):
            load_nest(doc)

    def test_empty_domain_at_minimum(self):
        doc = fixture_doc("vecadd")
        doc["statements"][0]["domain"]["box"][0]["lower"]["const"] = 5
        doc["params"][0]["min"] = 1
        with pytest.raises(NestError, match="empty"):
            load_nest(doc)

    def test_dependence_source_outside_domain(self):
        doc = fixture_doc("chain")
        # shift so the source image falls before the first iteration
        doc["dependences"][0]["phi"] = [5]
        with pytest.raises(NestError, match="source image"):
            load_nest(doc)

    @pytest.mark.parametrize("phi, domain, message", [
        # box: corners (1, 0), (1, 3), (2, 0), (2, 3) at N^(0) = 2
        ([1, 0], {"box": [
            {"lower": {"coeffs": [0], "const": 1}, "upper": {"coeffs": [1], "const": 0}},
            {"lower": {"coeffs": [0], "const": 0}, "upper": {"coeffs": [1], "const": 1}},
        ]}, "vertex (1, 0) outside target domain at N^(0)"),
        # vertices (2, 1), (2, 3), (3, 1) at N^(0) = 2
        ([1, 0], {"vertices": [
            {"R": [[0], [0]], "omega": [2, 1]},
            {"R": [[1], [1]], "omega": [0, 1]},
            {"R": [[0], [0]], "omega": [3, 1]},
        ]}, "vertex (2, 3) outside target domain at N^(0)"),
        # box: every corner's source image (i - 1, j + 1) leaves the domain
        ([1, -1], {"box": [
            {"lower": {"coeffs": [0], "const": 1}, "upper": {"coeffs": [1], "const": 0}},
            {"lower": {"coeffs": [0], "const": 1}, "upper": {"coeffs": [1], "const": 0}},
        ]}, "source image (0, 2) outside source domain at N^(0)"),
        # vertices (2, 1), (1, 2), (1, 1): images (1, 1), (0, 2), (0, 1)
        ([1, 0], {"vertices": [
            {"R": [[0], [0]], "omega": [2, 1]},
            {"R": [[0], [1]], "omega": [1, 0]},
            {"R": [[0], [0]], "omega": [1, 1]},
        ]}, "source image (0, 2) outside source domain at N^(0)"),
    ], ids=["target-box", "target-vertices", "source-box", "source-vertices"])
    def test_dependence_domain_error_names_first_bad_corner(self, phi, domain, message):
        doc = fixture_doc("stencil")
        doc["dependences"][0]["phi"] = phi
        doc["dependences"][0]["domain"] = domain
        with pytest.raises(NestError, match=f"^{re.escape('dependence #0: ' + message)}$"):
            load_nest(doc)

    def test_produced_by_must_resolve(self):
        doc = fixture_doc("chain")
        doc["dependences"][0]["produced_by"] = {"array": "x", "slot": 9}
        with pytest.raises(NestError, match="produced_by"):
            load_nest(doc)

    @pytest.mark.parametrize("path,value,match", [
        (("params",), 5, "field 'params' must be a list, got int"),
        (("params",), [5], "params: expected an object, got int"),
        (("statements",), {}, "field 'statements' must be a list"),
        (("arrays",), "x", "field 'arrays' must be a list, got str"),
        (("accesses",), None, "field 'accesses' must be a list"),
        (("dependences",), {}, "field 'dependences' must be a list"),
        (("dependences", 0, "domain"), 3, "dependence #0: domain: expected an object, got int"),
        (("statements", 0, "domain", "box"), 1, "field 'box' must be a list, got int"),
        (("statements", 0, "domain", "box", 0), [1], "statement 'S1': expected an object"),
        (("statements", 0, "domain"), {"vertices": 2}, "field 'vertices' must be a list"),
        (("statements", 0, "depth"), [1], r"statement 'S1' depth \[1\] is not an int"),
        (("statements", 0, "order"), None, "statement 'S1' order None is not an int"),
        (("statements", 0, "id"), ["S1"], "field 'id' must be a string, got list"),
        (("statements", 0, "domain", "box", 0, "lower", "coeffs"), 5,
         "field 'coeffs' must be a list, got int"),
        (("accesses", 0, "F"), 3, "field 'F' must be a list, got int"),
        (("accesses", 0, "f"), 3, "field 'f' must be a list, got int"),
        # non-integers are rejected, not truncated to the int they start with
        (("arrays", 0, "dim"), 1.5, "array 'x' dim 1.5 is not an int"),
        (("arrays", 0, "dim"), "1", "array 'x' dim '1' is not an int"),
        (("params", 0, "min"), "4", "params min '4' is not an int"),
        (("accesses", 1, "f"), [-1.0], "field 'f': entry -1.0 is not an int"),
        (("dependences", 0, "Phi"), [[True]], "field 'Phi': entry True is not an int"),
        # values that make no nest
        (("params",), [{"name": "N", "min": 2}] * 2, "^duplicate outer variable names$"),
        (("statements",), [], "^no statements$"),
        (("statements", 0, "domain", "box"), [{"lower": {"coeffs": [0], "const": 1}, "upper": {"coeffs": [1], "const": 0}}] * 2,
         "^statement 'S1': domain dimensionality 2 != depth 1$"),
        (("statements", 0, "domain"), {}, "^statement 'S1': domain needs 'box' or 'vertices'$"),
        (("arrays", 0, "dim"), 0, "^array 'x': dim must be >= 1$"),
        (("arrays",), [{"id": "x", "dim": 1}] * 2, "^duplicate array ids$"),
        (("accesses", 0, "kind"), "modify", "bad kind 'modify'$"),
        (("dependences", 0, "domain", "box"), [{"lower": {"coeffs": [0], "const": 1}, "upper": {"coeffs": [1], "const": 0}}] * 2,
         "^dependence #0: domain dimensionality != target depth$"),
    ])
    def test_field_of_wrong_json_type(self, path, value, match):
        doc = fixture_doc("chain")
        *path, last = path
        target = doc
        for key in path:
            target = target[key]
        target[last] = value
        with pytest.raises(NestError, match=match):
            load_nest(doc)

    def test_unknown_statement_in_access(self):
        doc = fixture_doc("vecadd")
        doc["accesses"][0]["statement"] = "nope"
        with pytest.raises(NestError, match="unknown statement"):
            load_nest(doc)


class TestVertices:
    def test_chain_vertices(self):
        nest = fixture_nest("chain")
        verts = nest.statements[0].domain.vertices
        evaluated = sorted(vertex_at(v, [5]) for v in verts)
        assert evaluated == [(1,), (5,)]

    def test_computed_once_per_domain(self):
        dom = fixture_nest("chain").dependences[0].domain
        # load_nest's N^(0) check computed them; every later reader shares that tuple
        assert "vertices" in vars(dom)
        assert dom.vertices is dom.vertices

    def test_square_domain_has_four_corners(self):
        nest = fixture_nest("stencil")
        assert len(nest.statements[0].domain.vertices) == 4

    def test_degenerate_corners_are_deduplicated(self):
        doc = fixture_doc("vecadd")
        # collapse the loop to the single point i = 0
        doc["statements"][0]["domain"]["box"][0]["upper"] = {"coeffs": [0], "const": 0}
        nest = load_nest(doc)
        assert len(nest.statements[0].domain.vertices) == 1

    def test_explicit_vertices_pass_through(self):
        doc = fixture_doc("vecadd")
        doc["statements"][0]["domain"] = {
            "vertices": [
                {"R": [[0]], "omega": [0]},
                {"R": [[1]], "omega": [0]},
            ]
        }
        nest = load_nest(doc)
        assert len(nest.statements[0].domain.vertices) == 2


class TestEnumeration:
    def test_points_in_lex_order(self):
        nest = fixture_nest("stencil")
        pts = enumerate_domain(nest.statements[0].domain, [2])
        assert [tuple(p) for p in pts] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_cap(self):
        nest = fixture_nest("stencil")
        with pytest.raises(EnumerationError, match="more than"):
            enumerate_domain(nest.statements[0].domain, [1001])

    def test_empty_domain_rejected(self):
        dom = fixture_nest("stencil").statements[0].domain
        with pytest.raises(EnumerationError, match=r"^empty domain at N=\(0,\): \[1\.\.0\]$"):
            enumerate_domain(dom, [0])

    def test_bound_beyond_int64_rejected(self):
        # N <= i <= N holds one point at every N, so the point cap never
        # stops it first
        doc = fixture_doc("vecadd")
        doc["statements"][0]["domain"]["box"][0]["lower"] = {"coeffs": [1], "const": 0}
        dom = load_nest(doc).statements[0].domain
        with pytest.raises(EnumerationError, match=r"^domain bound beyond 2\*\*62 at N="):
            enumerate_domain(dom, [2**62])

    def test_contains_point(self):
        nest = fixture_nest("stencil")
        dom = nest.statements[0].domain
        assert contains_point(dom, [1, 3], [3])
        assert not contains_point(dom, [0, 1], [3])
        assert not contains_point(dom, [1, 4], [3])

    @pytest.mark.parametrize("n_vals", [[], [3, 4]], ids=repr)
    def test_wrong_parameter_count_rejected(self, n_vals):
        # a count other than the nest's is not zipped down to a shorter one
        dom = fixture_nest("stencil").statements[0].domain
        match = f"{len(n_vals)} parameter values for a bound over 1 outer variables"
        with pytest.raises(ValueError, match=match):
            enumerate_domain(dom, n_vals)
        with pytest.raises(ValueError, match=match):
            contains_point(dom, [1, 1], n_vals)

    def test_explicit_vertex_domain_cannot_enumerate(self):
        doc = fixture_doc("vecadd")
        doc["statements"][0]["domain"] = {"vertices": [{"R": [[0]], "omega": [0]}]}
        dom = load_nest(doc).statements[0].domain
        match = "^explicit-vertex domains cannot be enumerated$"
        with pytest.raises(EnumerationError, match=match):
            enumerate_domain(dom, [3])
        with pytest.raises(EnumerationError, match=match):
            contains_point(dom, [0], [3])


class TestAccessAndDependence:
    def test_index_at(self):
        nest = fixture_nest("stencil")
        acc = nest.access(("u", "S1", 2))
        assert tuple(index_at(acc, [3, 4], [9])) == (2, 4)

    def test_source_point(self):
        nest = fixture_nest("chain")
        dep = nest.dependences[0]
        assert tuple(source_point(dep, [4], [9])) == (3,)

    def test_lookup_errors(self):
        nest = fixture_nest("vecadd")
        with pytest.raises(NestError):
            nest.statement("zz")
        with pytest.raises(NestError):
            nest.array("zz")
        with pytest.raises(NestError):
            nest.access(("zz", "S1", 1))
