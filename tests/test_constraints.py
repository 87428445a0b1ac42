"""Constraint-column construction: layout, legality, alignment, locality."""

import random
from fractions import Fraction

import pytest

from affsched.algebra import IntVector
from affsched.constraints import (
    ABS,
    GEQ0,
    ExtendedLayout,
    build_alignment_columns,
    build_legality_columns,
    build_space_locality_columns,
    locality_kernel,
    locality_target,
    rank_witnesses,
    truncated_access_matrix,
)
from affsched.nest import enumerate_domain, load_nest, vertices
from conftest import fixture_doc, fixture_nest


class TestLayout:
    def test_blocks_partition_the_vector(self):
        nest = fixture_nest("matmul")
        lay = ExtendedLayout.for_nest(nest)
        # one statement of depth 3, three 2-d arrays, one outer variable
        assert lay.size == 3 + 6 + 1 + 3 + 1 + 3
        offsets = [lay.tau_offset("S1")]
        offsets += [lay.eta_offset(a) for a in ("C", "A", "B")]
        offsets += [lay.b_offset("S1")]
        offsets += [lay.z_offset(a) for a in ("C", "A", "B")]
        offsets += [lay.a_offset("S1")]
        offsets += [lay.y_offset(a) for a in ("C", "A", "B")]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)

    def test_block_extractors(self):
        nest = fixture_nest("matvec")
        lay = ExtendedLayout.for_nest(nest)
        x = list(range(lay.size))
        assert tuple(lay.tau_block(x, "S1")) == (0, 1)
        assert tuple(lay.eta_block(x, "A")) == (
            x[lay.eta_offset("A")],
            x[lay.eta_offset("A") + 1],
        )
        assert lay.a_value(x, "S1") == x[lay.a_offset("S1")]
        assert lay.y_value(x, "x") == x[lay.y_offset("x")]


class TestLegalityColumns:
    def test_column_count_law(self):
        for name in ("chain", "stencil", "matmul"):
            nest = fixture_nest(name)
            lay = ExtendedLayout.for_nest(nest)
            e = nest.outer_vars.count
            for i, dep in enumerate(nest.dependences):
                cols = build_legality_columns(dep, i, nest, lay)
                nverts = len(vertices(dep.domain))
                assert len(cols) == nverts * (1 + e)

    def test_sense_by_kind(self):
        nest = fixture_nest("matmul")
        lay = ExtendedLayout.for_nest(nest)
        for i, dep in enumerate(nest.dependences):
            for col in build_legality_columns(dep, i, nest, lay):
                assert col.sense == (ABS if dep.kind == "in" else GEQ0)

    def test_chain_constant_column_by_hand(self):
        # uniform self-dependence with unit shift: the constant columns
        # collapse to the single schedule coefficient
        nest = fixture_nest("chain")
        lay = ExtendedLayout.for_nest(nest)
        cols = build_legality_columns(nest.dependences[0], 0, nest, lay)
        const_cols = [c for c in cols if c.family == "legality-const"]
        assert len(const_cols) == 2  # two domain corners
        for col in const_cols:
            expect = [0] * lay.size
            expect[lay.tau_offset("S1")] = 1
            assert list(col.coeffs) == expect

    def test_columns_match_direct_evaluation_at_vertices(self):
        # the value of each constant column equals the schedule difference
        # evaluated at the corresponding vertex with the smallest parameters
        rng = random.Random(3)
        for name in ("chain", "stencil", "matvec", "matmul"):
            nest = fixture_nest(name)
            lay = ExtendedLayout.for_nest(nest)
            n0 = nest.outer_vars.minima
            for i, dep in enumerate(nest.dependences):
                cols = [
                    c
                    for c in build_legality_columns(dep, i, nest, lay)
                    if c.family == "legality-const"
                ]
                for _ in range(5):
                    x = [rng.randint(-2, 2) for _ in range(lay.size)]
                    tau_t = lay.tau_block(x, dep.target)
                    tau_s = lay.tau_block(x, dep.source)
                    b_t = lay.b_block(x, dep.target)
                    b_s = lay.b_block(x, dep.source)
                    for col, (r_mat, omega) in zip(cols, vertices(dep.domain)):
                        v = r_mat.matvec(n0) + omega
                        s = dep.source_point(v, n0)
                        direct = (
                            tau_t.dot(v)
                            + b_t.dot(n0)
                            + lay.a_value(x, dep.target)
                            - tau_s.dot(s)
                            - b_s.dot(n0)
                            - lay.a_value(x, dep.source)
                        )
                        assert col.value(x) == direct


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
        x[lay.tau_offset("S1")] = 1  # tau = (1, 0)
        x[lay.eta_offset("a")] = 1  # eta = (1, 0)
        for col in build_alignment_columns(acc, nest, lay):
            assert col.value(x) == 0

    def test_misalignment_shows_in_offset_column(self):
        nest = fixture_nest("chain")
        lay = ExtendedLayout.for_nest(nest)
        acc = nest.access(("x", "S1", 2))  # reads x[i-1]
        x = [0] * lay.size
        x[lay.tau_offset("S1")] = 1
        x[lay.eta_offset("x")] = 1
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
        lay = ExtendedLayout.for_nest(nest)
        assert locality_target(nest.accesses[0], nest) is None
        assert build_space_locality_columns(nest.accesses[0], nest, lay) == []

    def test_full_rank_truncation_contributes_nothing(self):
        # stencil u access: truncated matrix [[1, 0]] over a depth-2
        # statement has rank 1 < 2, so columns do appear; compare with the
        # matvec A access where truncation leaves rank 1 over depth 2 too
        nest = fixture_nest("stencil")
        lay = ExtendedLayout.for_nest(nest)
        assert locality_target(nest.accesses[0], nest) == 1
        cols = build_space_locality_columns(nest.accesses[0], nest, lay)
        assert len(cols) == 1
        # the single column is tau . d for d spanning the kernel (0, 1)
        x = [0] * lay.size
        x[lay.tau_offset("S1") + 1] = 5
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
        assert locality_target(acc, nest) == target
        cols = build_space_locality_columns(acc, nest, ExtendedLayout.for_nest(nest))
        assert (cols == []) == (target is None)

    def test_truncation_side(self):
        nest = fixture_nest("matmul")
        acc = nest.access(("B", "S1", 1))
        last = truncated_access_matrix(acc, last_index_contiguous=True)
        first = truncated_access_matrix(acc, last_index_contiguous=False)
        assert last.rows == ((0, 0, 1),)
        assert first.rows == ((0, 1, 0),)

    def test_locality_kernel(self):
        nest = fixture_nest("matmul")
        acc = nest.access(("C", "S1", 1))
        kern = locality_kernel(acc)
        assert [tuple(v) for v in kern] == [(0, 0, 1), (0, 1, 0)]


class TestRankWitnesses:
    def test_first_recursion_unit_candidates(self):
        nest = fixture_nest("stencil")
        lay = ExtendedLayout.for_nest(nest)
        wits = rank_witnesses({"S1": []}, ["S1"], lay)
        assert [tuple(w.s) for w in wits["S1"]] == [(0, 1), (1, 0)]
        for w in wits["S1"]:
            embedded = w.s_tilde[lay.tau_offset("S1"): lay.tau_offset("S1") + 2]
            assert embedded == tuple(w.s)

    def test_candidates_shrink_with_accumulated_rows(self):
        nest = fixture_nest("stencil")
        lay = ExtendedLayout.for_nest(nest)
        wits = rank_witnesses({"S1": [IntVector([1, 0])]}, ["S1"], lay)
        assert [tuple(w.s) for w in wits["S1"]] == [(0, 1)]

    def test_full_rank_raises(self):
        nest = fixture_nest("stencil")
        lay = ExtendedLayout.for_nest(nest)
        rows = [IntVector([1, 0]), IntVector([0, 1])]
        with pytest.raises(ValueError, match="full rank"):
            rank_witnesses({"S1": rows}, ["S1"], lay)


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
            tau = lay.tau_block(x, "S1")
            b = lay.b_block(x, "S1")
            a = lay.a_value(x, "S1")
            for n in (3, 5):
                for dep in nest.dependences:
                    for pt in enumerate_domain(dep.domain, [n]):
                        src = dep.source_point(pt, [n])
                        t_target = tau.dot(pt) + b.dot([n]) + a
                        t_source = tau.dot(src) + b.dot([n]) + a
                        assert t_target - t_source >= 0
        assert found == 40
