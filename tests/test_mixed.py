"""`fixtures/mixed.json`: statements of depths 1 and 2 over two parameters.

S1 (1 <= i <= N) writes x[i] from x[i - 1]; S2 (1 <= i <= N, 1 <= j <= M)
writes y[i][j] from x[i] and y[i][j - 1].  Every other fixture has one
parameter and statements of one depth, so this one alone runs schedule
blocks of unequal width, a statement padded to the nest's depth and sizes
that differ per parameter end to end.
"""

import pytest

from affsched.nest import load_nest
from affsched.procedure import run_procedure
from affsched.solver import SolverConfig
from affsched.validation import validate
from conftest import fixture_doc
from test_dependences import in_sequence, listed_pairs, program_dependence_pairs
from test_metamorphic import _objectives_and_verdict, _shuffled

# (N, M) pairs of unequal sizes, each way round, and the program pairs at each
PAIRS = {(4, 5): 3 + 20 + 16, (6, 3): 5 + 18 + 12}


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("r", [0, 1])
def test_solves_and_validates_at_unequal_sizes(r, bound):
    nest = load_nest(fixture_doc("mixed"))
    plan = run_procedure(nest, r_space=r, solver_cfg=SolverConfig(coeff_bound=bound))
    assert len(plan.diagnostics) == nest.max_depth == 2
    for n_vals in PAIRS:
        report = validate(nest, plan, n_vals)
        assert report.rank_failures == []
        assert report.passed, n_vals


@pytest.mark.parametrize("n_vals", PAIRS)
def test_listed_pairs_are_the_programs(n_vals):
    # the three listed flow dependences are every pair of the program
    nest = load_nest(fixture_doc("mixed"))
    program = program_dependence_pairs(nest, in_sequence, n_vals)
    assert set(program) == listed_pairs(nest, n_vals)
    assert len(program) == PAIRS[n_vals]
    assert all(kinds == {"flow"} for kinds in program.values())


@pytest.mark.parametrize("r", [0, 1])
def test_permutation(r):
    # statements and arrays listed the other way round: same optima and verdict
    doc = fixture_doc("mixed")
    expected = _objectives_and_verdict(doc, r, {}, 2)
    for seed in (1, 2):
        assert _objectives_and_verdict(_shuffled(doc, seed), r, {}, 2) == expected
