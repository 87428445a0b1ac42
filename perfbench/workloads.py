"""The benchmark's workloads: named instance lists built from a seed.

An instance is one nest document (as JSON text), a spatial dimension count
`r`, the sizes it is validated at, and the per-recursion solver time limit.
Why each instance is in its workload is recorded next to it and in
README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import gen

FIXTURES = ("vecadd", "chain", "stencil", "addmat", "matvec", "matmul")

# Per-recursion solver budget on `multistmt`.  The slowest passing recursions
# (jacobi2 r=1, chain(2,3) r=1) take 2-2.6 s; chain(4,2) r=1 exhausts any
# budget under a minute.
MULTISTMT_TIME_LIMIT = 5.0
MULTISTMT_SIZE = 6


@dataclass(frozen=True)
class Instance:
    id: str
    text: str  # the nest document, as `affsched solve --input` would read it
    r: int
    sizes: tuple[tuple[int, ...], ...]
    time_limit: float | None = None


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _fixture(root: Path, name: str) -> dict:
    return json.loads((root / "fixtures" / f"{name}.json").read_text())


def _instance(iid, doc, r, sizes, time_limit=None) -> Instance:
    return Instance(iid, json.dumps(doc), r, tuple(tuple(s) for s in sizes), time_limit)


def fixtures(root: Path, seed: int) -> list[Instance]:
    """Every fixture at every admissible r, validated at the CLI's default
    sizes N0+2 and N0+4: everyday single-statement traffic, where fixed
    per-call costs weigh most.  The seed only shuffles the order."""
    out = []
    for name in FIXTURES:
        doc = _fixture(root, name)
        n0 = [p["min"] for p in doc["params"]]
        depth = max(s["depth"] for s in doc["statements"])
        sizes = [[m + 2 for m in n0], [m + 4 for m in n0]]
        out.extend(_instance(f"{name} r={r}", doc, r, sizes) for r in range(depth))
    _rng(seed, "fixtures").shuffle(out)
    return out


def _chain(seed, k, d, r, sizes, time_limit=None) -> Instance:
    """chain(k, d) with read offsets drawn from the seed."""
    iid = f"chain({k},{d}) r={r}"
    return _instance(iid, gen.chain(gen.draw_offsets(k, d, _rng(seed, iid))), r, sizes,
                     time_limit)


# Fixed read offsets where a chain's solve time would dominate a total: the
# solve time of chain(3,2) and chain(2,3) moves by up to a third between
# offset draws, and that of chain(2,2) doubles, more than a run may spread
# across seeds.  Each is a draw near the median cost with every value of
# {-1, 0, 1} present.
CHAIN_3_2 = [[0, 1], [0, -1], [-1, 1]]
CHAIN_2_3 = [[-1, -1, 0], [-1, 0, 1]]
CHAIN_2_2 = [[1, 0], [-1, 1]]


def multistmt(root: Path, seed: int) -> list[Instance]:
    """Generated multi-statement nests, where solve dominates and the
    witness-branch product grows with the statement count.  The seed draws
    the read offsets of chain(2,2) r=1 and chain(3,2) r=0."""
    size = [[MULTISTMT_SIZE]]
    tl = MULTISTMT_TIME_LIMIT
    return [
        _chain(seed, 2, 2, 1, size, tl),
        _instance("chain(3,2) r=1", gen.chain(CHAIN_3_2), 1, size, tl),
        _instance("chain(2,3) r=1", gen.chain(CHAIN_2_3), 1, size, tl),
        _chain(seed, 3, 2, 0, size, tl),
        _instance("jacobi2 r=1", gen.jacobi2(), 1, size, tl),
    ]


def multistmt_known_failures(seed: int) -> list[Instance]:
    """Multi-statement instances known to fail: the jacobi2 r=0 plan orders
    a flow dependence only by textual order, the wrong way round, and
    chain(4,2) r=1 exhausts the solver budget."""
    size = [[MULTISTMT_SIZE]]
    tl = MULTISTMT_TIME_LIMIT
    return [
        _instance("jacobi2 r=0", gen.jacobi2(), 0, size, tl),
        _chain(seed, 4, 2, 1, size, tl),
    ]


def big_n(root: Path, seed: int) -> list[Instance]:
    """Cheap solves validated at large sizes (1.6k-1.7k points per domain),
    where the validator's per-point cost and point lists dominate.  The seed
    only shuffles the order."""
    out = [
        _instance("matmul r=1 N=12", _fixture(root, "matmul"), 1, [[12]]),
        _instance("stencil r=1 N=40", _fixture(root, "stencil"), 1, [[40]]),
        _instance("matvec r=1 N=40", _fixture(root, "matvec"), 1, [[40]]),
        _instance("chain(2,2) r=1 N=40", gen.chain(CHAIN_2_2), 1, [[40]]),
    ]
    _rng(seed, "bigN").shuffle(out)
    return out


WORKLOADS = {"fixtures": fixtures, "multistmt": multistmt, "bigN": big_n}
KNOWN_FAILURES = {"multistmt": multistmt_known_failures}


def instances(name: str, root: Path, seed: int, known_failures: bool = False):
    """The workload's instances; with `known_failures`, also those known to
    fail, which timed runs leave out because no timed operation may fail."""
    out = WORKLOADS[name](root, seed)
    if known_failures and name in KNOWN_FAILURES:
        out += KNOWN_FAILURES[name](seed)
    return out
