"""Constraint-column construction: layout, legality, alignment, locality."""

import dataclasses
import random
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affsched.algebra import dot
from affsched.constraints import (
    ABS,
    GEQ0,
    ConstraintColumn,
    ExtendedLayout,
    _column,
    build_alignment_columns,
    build_legality_columns,
    build_space_locality_columns,
    rank_witnesses,
)
from affsched.nest import load_nest
from affsched.procedure import initial_sets
from affsched.validation import enumerate_domain
from conftest import fixture_doc, fixture_nest, perfbench_module, source_point, vertex_at

FIXTURES = ("vecadd", "chain", "stencil", "addmat", "matvec", "matmul", "chain23", "chain42")


def _all_nests():
    """Every fixture nest and jacobi2, by name."""
    nests = {name: fixture_nest(name) for name in FIXTURES}
    nests["jacobi2"] = load_nest(perfbench_module("gen").jacobi2())
    return nests


def _difference(x, dep, lay, vertex, n_vals):
    """t(target) - t(source) under the coefficient vector `x`, evaluated
    directly at the dependence's `vertex` and parameters `n_vals`."""
    v = vertex_at(vertex, n_vals)
    s = source_point(dep, v, n_vals)

    def t(sid, point):
        return (dot(lay.block(x, "tau", sid), point)
                + dot(lay.block(x, "b", sid), n_vals) + x[lay.offset("a", sid)])

    return t(dep.target, v) - t(dep.source, s)


def _step(x, dep, lay, vertex, n0, n_vals):
    """What moving the parameters from `n0` to `n_vals` adds to the difference."""
    return _difference(x, dep, lay, vertex, n_vals) - _difference(x, dep, lay, vertex, n0)


def _direct_forms(dep, nest, lay):
    """Every vertex's constant form, then its parameter form per outer
    variable, as (family, linear function of x) evaluated directly.

    The constant form is the difference at N^(0); the parameter form of
    outer variable j is what one more unit of N_j adds to it.
    """
    n0 = list(nest.outer_vars.minima)
    steps = [[m + (k == j) for k, m in enumerate(n0)] for j in range(len(n0))]
    forms = []
    for vertex in dep.domain.vertices:
        forms.append(("legality-const", partial(_difference, dep=dep, lay=lay, vertex=vertex,
                                                n_vals=n0)))
        forms += [("legality-param", partial(_step, dep=dep, lay=lay, vertex=vertex, n0=n0,
                                             n_vals=n)) for n in steps]
    return forms


def _coefficients(form, size):
    """The coefficient vector of the linear `form`, read off at unit vectors."""
    return tuple(form([int(k == i) for k in range(size)]) for i in range(size))


class TestLayout:
    def test_blocks_partition_the_vector(self):
        nest = fixture_nest("matmul")
        lay = ExtendedLayout.for_nest(nest)
        # one statement of depth 3, three 2-d arrays, one outer variable
        assert lay.size == 3 + 6 + 1 + 3 + 1 + 3
        offsets = [lay.offset("tau", "S1")]
        offsets += [lay.offset("eta", a) for a in ("C", "A", "B")]
        offsets += [lay.offset("b", "S1")]
        offsets += [lay.offset("z", a) for a in ("C", "A", "B")]
        offsets += [lay.offset("a", "S1")]
        offsets += [lay.offset("y", a) for a in ("C", "A", "B")]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)

    def test_block_extractors(self):
        nest = fixture_nest("matvec")
        lay = ExtendedLayout.for_nest(nest)
        x = list(range(lay.size))
        assert tuple(lay.block(x, "tau", "S1")) == (0, 1)
        assert tuple(lay.block(x, "eta", "A")) == (
            x[lay.offset("eta", "A")],
            x[lay.offset("eta", "A") + 1],
        )
        assert tuple(lay.block(x, "a", "S1")) == (x[lay.offset("a", "S1")],)
        assert tuple(lay.block(x, "y", "x")) == (x[lay.offset("y", "x")],)


@st.composite
def _coeffs_and_vector(draw):
    size = draw(st.integers(0, 12))
    entries = st.lists(st.integers(-6, 6), min_size=size, max_size=size)
    coeffs = draw(st.one_of(st.just([0] * size), entries))
    return tuple(coeffs), tuple(draw(st.lists(st.integers(-40, 40), min_size=size, max_size=size)))


class TestColumnTerms:
    @given(_coeffs_and_vector(), st.sampled_from([GEQ0, ABS]))
    def test_terms_agree_with_dense_coefficients(self, drawn, sense):
        coeffs, x = drawn
        col = ConstraintColumn(coeffs, sense, "f", "c", Fraction(1))
        dense = sum(c * v for c, v in zip(coeffs, x))
        assert col.value(x) == dense
        assert col.slack(x) == (abs(dense) if sense == ABS else dense)
        assert col.terms == tuple((i, c) for i, c in enumerate(coeffs) if c)
        # a builder's column and a rebuilt column carry the same terms
        built = _column(SimpleNamespace(size=len(coeffs)), [(0, coeffs)], sense, "f", "c",
                        Fraction(1))
        assert built == col and built.terms == col.terms
        negated = dataclasses.replace(col, coeffs=tuple(-c for c in coeffs))
        assert negated.terms == tuple((i, -c) for i, c in col.terms)


class TestLegalityColumns:
    def test_column_count_law(self):
        # one column per distinct constant form and per distinct nonzero
        # parameter form, in order of first occurrence; no zero parameter column
        for name, nest in _all_nests().items():
            lay = ExtendedLayout.for_nest(nest)
            for i, dep in enumerate(nest.dependences):
                forms = [(family, _coefficients(form, lay.size))
                         for family, form in _direct_forms(dep, nest, lay)]
                distinct = [f for f in dict.fromkeys(forms)
                            if f[0] == "legality-const" or any(f[1])]
                cols = build_legality_columns(dep, i, nest, lay)
                assert [(c.family, c.coeffs) for c in cols] == distinct, (name, i)

    def test_multiplicity_weights(self):
        # the weighted slack of the built columns is that of every per-vertex
        # and per-(vertex, outer variable) form, each weighted once
        rng = random.Random(16)
        weight = Fraction(3, 2)
        for name, nest in _all_nests().items():
            lay = ExtendedLayout.for_nest(nest)
            for i, dep in enumerate(nest.dependences):
                cols = build_legality_columns(dep, i, nest, lay, weight)
                forms = [form for _, form in _direct_forms(dep, nest, lay)]
                for _ in range(5):
                    x = [rng.randint(-3, 3) for _ in range(lay.size)]
                    direct = sum(abs(f(x)) if dep.kind == "in" else f(x) for f in forms)
                    assert sum(c.weight * c.slack(x) for c in cols) == weight * direct, (name, i)

    def test_sense_by_kind(self):
        nest = fixture_nest("matmul")
        lay = ExtendedLayout.for_nest(nest)
        for i, dep in enumerate(nest.dependences):
            for col in build_legality_columns(dep, i, nest, lay):
                assert col.sense == (ABS if dep.kind == "in" else GEQ0)

    def test_chain_constant_column_by_hand(self):
        # uniform self-dependence with unit shift: both domain corners give
        # the single schedule coefficient, and every parameter form cancels
        nest = fixture_nest("chain")
        lay = ExtendedLayout.for_nest(nest)
        cols = build_legality_columns(nest.dependences[0], 0, nest, lay)
        assert len(nest.dependences[0].domain.vertices) == 2
        (col,) = cols
        expect = [0] * lay.size
        expect[lay.offset("tau", "S1")] = 1
        assert (col.family, list(col.coeffs), col.label) == ("legality-const", expect, "dep0.v0")
        assert col.weight == 2

    def test_explicit_vertices_give_the_box_columns(self):
        # the stencil's first dependence domain, written out as its corners
        doc = fixture_doc("stencil")
        box = load_nest(doc)
        dep = box.dependences[0]
        doc["dependences"][0]["domain"] = {"vertices": [
            {"R": [list(r) for r in rows], "omega": list(omega)}
            for rows, omega in dep.domain.vertices
        ]}
        explicit = load_nest(doc)
        lay = ExtendedLayout.for_nest(box)
        assert (build_legality_columns(explicit.dependences[0], 0, explicit, lay)
                == build_legality_columns(dep, 0, box, lay))

    def test_columns_match_direct_evaluation_at_vertices(self):
        # at every vertex, the schedule difference evaluated directly at the
        # smallest parameters equals the value of the constant column that
        # carries that vertex's form
        rng = random.Random(3)
        for name in ("chain", "stencil", "matvec", "matmul", "chain23"):
            nest = fixture_nest(name)
            lay = ExtendedLayout.for_nest(nest)
            n0 = list(nest.outer_vars.minima)
            for i, dep in enumerate(nest.dependences):
                cols = {
                    c.coeffs: c
                    for c in build_legality_columns(dep, i, nest, lay)
                    if c.family == "legality-const"
                }
                for vertex in dep.domain.vertices:
                    direct = partial(_difference, dep=dep, lay=lay, vertex=vertex, n_vals=n0)
                    col = cols[_coefficients(direct, lay.size)]
                    for _ in range(5):
                        x = [rng.randint(-2, 2) for _ in range(lay.size)]
                        assert col.value(x) == direct(x)


class TestAlignmentColumns:
    def test_column_count(self):
        nest = fixture_nest("matvec")
        lay = ExtendedLayout.for_nest(nest)
        acc = nest.access(("A", "S1", 1))
        cols = build_alignment_columns(acc, nest, lay)
        # depth schedule columns, e parameter columns, one offset column
        assert len(cols) == 2 + 1 + 1
        assert all(c.sense == ABS for c in cols)

    def test_perfect_alignment_has_zero_slack(self):
        nest = fixture_nest("addmat")
        lay = ExtendedLayout.for_nest(nest)
        acc = nest.access(("a", "S1", 1))
        x = [0] * lay.size
        x[lay.offset("tau", "S1")] = 1  # tau = (1, 0)
        x[lay.offset("eta", "a")] = 1  # eta = (1, 0)
        for col in build_alignment_columns(acc, nest, lay):
            assert col.value(x) == 0

    def test_misalignment_shows_in_offset_column(self):
        nest = fixture_nest("chain")
        lay = ExtendedLayout.for_nest(nest)
        acc = nest.access(("x", "S1", 2))  # reads x[i-1]
        x = [0] * lay.size
        x[lay.offset("tau", "S1")] = 1
        x[lay.offset("eta", "x")] = 1
        cols = build_alignment_columns(acc, nest, lay)
        by_family = {c.family: c for c in cols}
        assert by_family["align-F"].value(x) == 0
        assert by_family["align-f"].value(x) == 1  # a - eta . (-1) - y

    def test_weights_carried_per_family(self):
        nest = fixture_nest("vecadd")
        lay = ExtendedLayout.for_nest(nest)
        cols = build_alignment_columns(
            nest.accesses[0], nest, lay, Fraction(7), Fraction(11), Fraction(13)
        )
        weights = {c.family: c.weight for c in cols}
        assert weights == {
            "align-F": Fraction(7),
            "align-G": Fraction(11),
            "align-f": Fraction(13),
        }


class TestSpaceLocality:
    def test_one_dimensional_arrays_contribute_nothing(self):
        nest = fixture_nest("chain")
        assert nest.accesses[0].row_rule is None
        assert nest.accesses[0].key not in initial_sets(nest)[2]

    def test_full_rank_truncation_contributes_nothing(self):
        # stencil u access: truncated matrix [[1, 0]] over a depth-2
        # statement has rank 1 < 2, so columns do appear; compare with the
        # matvec A access where truncation leaves rank 1 over depth 2 too
        nest = fixture_nest("stencil")
        lay = ExtendedLayout.for_nest(nest)
        target, kernel = nest.accesses[0].row_rule
        assert target == 1
        cols = build_space_locality_columns(nest.accesses[0], kernel, lay)
        assert len(cols) == 1
        # the single column is tau . d for d spanning the kernel (0, 1)
        x = [0] * lay.size
        x[lay.offset("tau", "S1") + 1] = 5
        assert cols[0].value(x) == 5

    @pytest.mark.parametrize(
        "rows, target",
        [
            ([[0, 0], [0, 1]], None),  # R[0][j]: rank-0 truncation reads one row
            ([[1, 0], [0, 1], [0, 0]], None),  # R[i][j][0]: full-rank truncation
            ([[1, 1], [0, 1]], 1),
        ],
    )
    def test_target_bounds(self, rows, target):
        doc = fixture_doc("stencil")
        doc["arrays"].append({"id": "R", "dim": len(rows)})
        doc["accesses"].append(
            {"array": "R", "statement": "S1", "slot": 9, "kind": "read",
             "F": rows, "G": [[0]] * len(rows), "f": [0] * len(rows)}
        )
        nest = load_nest(doc)
        acc = nest.access(("R", "S1", 9))
        rule = acc.row_rule
        assert (rule[0] if rule else None) == target
        assert initial_sets(nest)[2].get(acc.key) == rule

    def test_truncation_side(self):
        # B[k][j]: the last index j is contiguous, the row matrix is [[0, 0, 1]]
        nest = fixture_nest("matmul")
        target, kernel = nest.access(("B", "S1", 1)).row_rule
        assert (target, [tuple(v) for v in kernel]) == (1, [(0, 1, 0), (1, 0, 0)])

    def test_locality_kernel(self):
        nest = fixture_nest("matmul")
        _, kernel = nest.access(("C", "S1", 1)).row_rule
        assert [tuple(v) for v in kernel] == [(0, 0, 1), (0, 1, 0)]


class TestRankWitnesses:
    def test_first_recursion_unit_candidates(self):
        nest = fixture_nest("stencil")
        lay = ExtendedLayout.for_nest(nest)
        wits = rank_witnesses({"S1": []}, 2, lay)
        assert [tuple(w.s) for w in wits["S1"]] == [(0, 1), (1, 0)]
        for w in wits["S1"]:
            embedded = w.s_tilde[lay.offset("tau", "S1"): lay.offset("tau", "S1") + 2]
            assert embedded == tuple(w.s)

    def test_candidates_shrink_with_accumulated_rows(self):
        nest = fixture_nest("stencil")
        lay = ExtendedLayout.for_nest(nest)
        wits = rank_witnesses({"S1": [(1, 0)]}, 1, lay)
        assert [tuple(w.s) for w in wits["S1"]] == [(0, 1)]

    def test_only_statements_with_levels_left_grow(self):
        # chain23: two statements of depth 3; a statement must grow only
        # when its kernel has one vector per level left
        nest = fixture_nest("chain23")
        lay = ExtendedLayout.for_nest(nest)
        one, two = [(1, 0, 0)], [(1, 0, 0), (0, 1, 0)]
        assert sorted(rank_witnesses({"S1": one, "S2": one}, 2, lay)) == ["S1", "S2"]
        assert sorted(rank_witnesses({"S1": one, "S2": []}, 2, lay)) == ["S1"]
        assert sorted(rank_witnesses({"S1": two, "S2": one}, 1, lay)) == ["S1"]


class TestSoundness:
    def test_feasible_columns_imply_pointwise_legality(self):
        # vertex-based feasibility must imply the pointwise schedule
        # inequality across the whole (bounded) dependence domain
        rng = random.Random(2024)
        nest = fixture_nest("stencil")
        lay = ExtendedLayout.for_nest(nest)
        all_cols = []
        for i, dep in enumerate(nest.dependences):
            all_cols.extend(build_legality_columns(dep, i, nest, lay))
        found = 0
        trials = 0
        while found < 40 and trials < 20000:
            trials += 1
            x = [rng.randint(-2, 2) for _ in range(lay.size)]
            if any(c.value(x) < 0 for c in all_cols):
                continue
            found += 1
            tau = lay.block(x, "tau", "S1")
            b = lay.block(x, "b", "S1")
            a = x[lay.offset("a", "S1")]
            for n in (3, 5):
                for dep in nest.dependences:
                    for pt in enumerate_domain(dep.domain, [n]):
                        src = source_point(dep, pt, [n])
                        t_target = dot(tau, pt) + dot(b, [n]) + a
                        t_source = dot(tau, src) + dot(b, [n]) + a
                        assert t_target - t_source >= 0
        assert found == 40
