"""The dependences each nest lists, against the ones its program has.

Plans are legal for the dependences a nest lists, and `validate` checks
them against those alone, so a dependence missing from the list goes
unseen.  Here every operation of a nest runs in its original order, given
by a timestamp per operation, and the flow, anti and output pairs of
distinct operations that touch one element are compared with the pairs
the listed dependences enumerate.
"""

import collections
import itertools
import random

import pytest

from affsched.nest import load_nest
from conftest import fixture_doc, index_at, perfbench_module, source_point
from test_procedure import GENERATED_CHAINS

FIXTURES = ("vecadd", "chain", "stencil", "addmat", "matvec", "matmul", "chain23", "chain42")
CHAINS = sorted({(k, d, seed) for k, d, seed, _ in GENERATED_CHAINS} | {(8, 3, 83)})


def in_sequence(stmt, point):
    """Statements one after another, each over its whole domain in lex order."""
    return (stmt.textual_order, *point)


def time_stepped(stmt, point):
    """(t, order, i): every statement's sweep within one time step t."""
    return (point[0], stmt.textual_order, *point[1:])


def _points(domain, n_vals):
    return itertools.product(*(range(lo, hi + 1) for lo, hi in domain.bounds_at(n_vals)))


def program_dependence_pairs(nest, stamp, n_vals):
    """(source op, target op) -> its kinds, for every pair of distinct
    operations ordered by a flow, anti or output dependence when the
    operations run in `stamp` order; an operation reads before it writes."""
    reads_first = {s.id: sorted((a for a in nest.accesses if a.statement == s.id),
                                key=lambda a: a.kind == "write") for s in nest.statements}
    ops = sorted(((s, p) for s in nest.statements for p in _points(s.domain, n_vals)),
                 key=lambda sp: stamp(*sp))
    last_writer, readers = {}, collections.defaultdict(list)
    pairs = collections.defaultdict(set)
    for s, p in ops:
        op = (s.id, p)
        for acc in reads_first[s.id]:
            elem = (acc.array, index_at(acc, p, n_vals))
            writer = last_writer.get(elem)
            if acc.kind == "read":
                readers[elem].append(op)
                kind = "flow"
            else:
                for reader in readers.pop(elem, []):
                    pairs[(reader, op)].add("anti")
                last_writer[elem] = op
                kind = "out"
            if writer is not None:
                pairs[(writer, op)].add(kind)
    return {pair: kinds for pair, kinds in pairs.items() if pair[0] != pair[1]}


def listed_pairs(nest, n_vals):
    """(source op, target op) of every listed flow, anti and output dependence;
    input dependences order nothing."""
    return {((d.source, source_point(d, p, n_vals)), (d.target, p))
            for d in nest.dependences if d.kind != "in" for p in _points(d.domain, n_vals)}


def _docs():
    """Name -> nest document of every fixture and generated chain."""
    gen = perfbench_module("gen")
    docs = {name: fixture_doc(name) for name in FIXTURES}
    for k, d, seed in CHAINS:
        docs[f"chain({k},{d}) S={seed}"] = gen.chain(gen.draw_offsets(k, d, random.Random(seed)))
    return docs


DOCS = _docs()
# program pairs at N = 6, so that an oracle finding none cannot pass unseen
PAIRS_AT_6 = {"matmul": 180, "chain23": 150, "chain(8,3) S=83": 1030}


@pytest.mark.parametrize("name", DOCS)
def test_listed_pairs_are_the_programs(name):
    nest = load_nest(DOCS[name])
    for step in (2, 4):
        n_vals = [m + step for m in nest.outer_vars.minima]
        program = program_dependence_pairs(nest, in_sequence, n_vals)
        assert set(program) == listed_pairs(nest, n_vals), n_vals
        if name in PAIRS_AT_6 and n_vals == [6]:
            assert len(program) == PAIRS_AT_6[name]


@pytest.mark.parametrize("n,anti,out", [(5, 20, 24), (6, 36, 40)])
def test_jacobi2_lists_only_its_flow(n, anti, out):
    # jacobi2 describes A and B as if expanded per time step: run in place,
    # its anti and output pairs are real but unlisted
    nest = load_nest(perfbench_module("gen").jacobi2())
    program = program_dependence_pairs(nest, time_stepped, [n])
    listed = listed_pairs(nest, [n])
    assert listed <= set(program)
    missing = collections.Counter(k for pair in set(program) - listed for k in program[pair])
    assert missing == {"anti": anti, "out": out}
    assert len(program) - len(listed) == anti + out
