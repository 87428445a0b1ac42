"""Exact minimization of one recursion's weighted slack objective.

The search runs over integer coefficient vectors in a bounded box as one
depth-first branch-and-bound with interval bounds on every column.  The
bounds are incremental: assigning a variable changes only the columns it
touches, so a parent derives each child's bound from those columns and never
enters a child that is infeasible or worse than the incumbent.  The search
runs in passes under a growing objective cap (iterative deepening): a pass
cuts every subtree whose bound exceeds the cap, so the first pass whose cap
reaches the optimum finds it without first hunting for an incumbent.
Set-up keeps every row, witness and derived ones too, as nonzero terms:
columns whose slack is equal at every x share one row with the sum of their
weights (scaled to integers once), which keeps every bound, and a zero
column gets no row.  Set-up derives two kinds of row from every two rows
that end at the same variable (in search order).  Rows a and b of one sense
with equal |coefficient| there are bounded as a pair through c = a +- b,
which cancels that variable: |a| + |b| >= |c| prices the pair from c's
interval levels before a and b are fixed.  GEQ0 rows r1 and r2 with
coefficients c1 > 0 and -c2 < 0 there imply the row c2*r1 + c1*r2 >= 0
without it, one step of Fourier-Motzkin elimination (as in Pugh's Omega
test).  Each nonzero such row joins the dead check with weight 0, so a child
that r1 and r2 can only rule out together is cut at the depth of the implied
row's last variable.  The rows are built once and cut no feasible vector, so
plans do not depend on them; a repeated row, or a multiple of one, cuts
nothing more.

Rank growth is a disjunction: for each statement that must grow, the new
schedule row needs sign * s~.x >= 1 for some kernel witness s and sign.  A
statement's options are (w1, +1), (w1, -1), (w2, +1), ... in candidate order;
the witness rows join the interval bookkeeping, and a node is cut as soon as
some statement has no option left that can still be met.

Among the vectors of least objective the search returns the first one it
meets: it takes the used variables in layout order and tries each variable's
values in the order 0, 1, -1, 2, -2, ...  The reported witness of each
statement is its earliest satisfied option.  No floating point anywhere.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .constraints import ABS, GEQ0, ConstraintSystem


class InfeasibleError(RuntimeError):
    """No feasible coefficient vector inside the bound box."""


class SolverTimeout(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    coeff_bound: int = 2
    time_limit: float | None = None

    def __post_init__(self):
        # bool is an int subclass; a float bound would fail deep in the search
        if type(self.coeff_bound) is not int:
            raise TypeError(f"coeff_bound {self.coeff_bound!r} is not an int")
        if self.coeff_bound < 1:
            raise ValueError("coeff_bound must be >= 1")
        # True would run as a 1-second budget
        if isinstance(self.time_limit, bool):
            raise TypeError(f"time_limit {self.time_limit!r} is not a number of seconds")
        # written so that NaN fails too
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError(f"time_limit must be > 0 seconds, got {self.time_limit}")


@dataclass
class Solution:
    x: tuple[int, ...]
    objective: Fraction
    slacks: dict[str, int]
    witness_used: dict[str, tuple[tuple[int, ...], int]]  # statement -> (s, sign)
    nodes: int  # search nodes entered over all passes; deterministic for a given system
    passes: int  # capped passes run, the last one successful
    cap: Fraction  # objective cap of the last pass
    rows: int  # rows the search bounds: merged columns, pair combinations, implied rows
    implied_rows: int  # of those, rows implied by two GEQ0 columns


def _value_order(bound: int):
    vals = [0]
    for v in range(1, bound + 1):
        vals.append(v)
        vals.append(-v)
    return tuple(vals)


class _Search:
    """Minimize the objective over the box under linear constraints.

    A node at depth k has the first k variables assigned, knows its
    objective lower bound and knows that no column is dead (a GEQ0 column
    whose interval lies below zero).  Only the rows that variable k touches
    change between a node and its children, so the parent derives each
    child's bound from those rows alone and skips a child that has a dead
    column, or whose bound is not below the incumbent's objective.

    The bound is the sum over columns of weight times d, the distance of the
    column's interval from 0, plus for each pair (a, b, c) with m = min(w_a,
    w_b) the excess m * max(0, d_c - d_a - d_b): the pair then bounds
    w_a*|a| + w_b*|b| >= (w_a - m)*d_a + (w_b - m)*d_b + m*max(d_a + d_b, d_c).
    An ABS pair uses |a| + |b| >= |a +- b|; a GEQ0 pair uses a + b >= |a - b|
    or, for c = a + b, a + b = c >= 0.  The implied rows, which include a
    multiple of every GEQ0 pair's sum, are the only columns of weight 0, for
    the dead check alone.  Every d only grows with depth, and at a leaf
    d_c <= d_a + d_b, so the bound never falls and equals the objective there.
    A pass keeps the least bound its cap cut in `least`, and the last cap
    that held no vector, as an objective, in `proven`.
    """

    def __init__(self, system: ConstraintSystem, bound, deadline):
        self.system = system
        self.deadline = math.inf if deadline is None else deadline
        self.scale = scale = lcm(*{col.weight.denominator for col in system.columns})
        self.values = _value_order(bound)
        # columns whose slack is equal at every x share one row weighted by the
        # sum of their weights: equal rows, and for ABS columns also opposite
        # rows; every interval bound keeps its value.  A zero column, whose
        # slack is 0 at every x, needs no row.
        merged = {}
        for col in system.columns:
            terms = col.terms
            if not terms:
                continue
            if terms[0][1] < 0 and col.sense == ABS:
                terms = tuple((i, -c) for i, c in terms)
            key = (terms, col.sense == GEQ0)
            w = col.weight
            merged[key] = merged.get(key, 0) + w.numerator * (scale // w.denominator)
        # variables in no row and no witness stay 0, the others are searched in
        # layout order; `nonzero` holds each row's (position, coefficient) terms
        used = {i for terms, _ in merged for i, _ in terms}
        for cands in system.witnesses.values():
            for w in cands:
                used.update(i for i, c in enumerate(w.s_tilde) if c)
        self.used = used = sorted(used)
        self.nvars = nvars = len(used)
        pos = {g: k for k, g in enumerate(used)}
        nonzero = [tuple((pos[i], c) for i, c in terms) for terms, _ in merged]
        geq = [g for _, g in merged]
        weights = list(merged.values())
        # paired columns: each pair's combination c = a +- b joins the rows
        # with weight 0, for the pair bound only; the implied rows join with
        # weight 0, for the dead check only
        derived, implied = _derived_rows(nonzero, geq)
        pairs = [(a, b, len(nonzero) + i, min(weights[a], weights[b]))
                 for i, (a, b, _) in enumerate(derived)]
        nonzero += [c for _, _, c in derived] + implied
        geq += [False] * len(pairs) + [True] * len(implied)
        weights += [0] * (len(pairs) + len(implied))
        self.rows = ncols = len(nonzero)
        self.implied = len(implied)
        # statements with witnesses, in layout order, and their witness rows
        self.statements = [s for s in system.layout.statement_ids if s in system.witnesses]
        witness_rows = []
        for sid in self.statements:
            cands = system.witnesses[sid]
            witness_rows.append(range(len(nonzero), len(nonzero) + len(cands)))
            nonzero.extend(tuple((k, w.s_tilde[g]) for k, g in enumerate(used) if w.s_tilde[g])
                           for w in cands)
        # rest[r][k]: max |contribution| of variables k.. to row r
        rest = []
        self.by_pos = [[] for _ in used]
        for ri, terms in enumerate(nonzero):
            spread = [0] * (nvars + 1)
            for k, c in terms:
                spread[k] = abs(c) * bound
                self.by_pos[k].append((ri, c))
            rest.append(list(accumulate(reversed(spread)))[::-1])
        # per depth, each statement's witness rows with their spreads, and the
        # columns and the pairs variable k touches, with their coefficients and
        # spreads before and after k is assigned
        self.witness_at = [
            [tuple((ri, rest[ri][k]) for ri in wrows) for wrows in witness_rows]
            for k in range(nvars + 1)
        ]
        self.columns_at = [
            [(ri, c, geq[ri], weights[ri], rest[ri][k], rest[ri][k + 1])
             for ri, c in touched if ri < ncols and (weights[ri] or geq[ri])]
            for k, touched in enumerate(self.by_pos)
        ]
        self.pairs_at = [[] for _ in used]
        for a, b, c, m in pairs:
            ta, tb, tc = (dict(nonzero[ri]) for ri in (a, b, c))
            for k in sorted(ta.keys() | tb.keys() | tc.keys()):
                self.pairs_at[k].append(
                    (a, ta.get(k, 0), rest[a][k], rest[a][k + 1], b, tb.get(k, 0), rest[b][k],
                     rest[b][k + 1], c, tc.get(k, 0), rest[c][k], rest[c][k + 1], m))
        self.partial = [0] * len(nonzero)
        self.assign = [0] * nvars
        self.nodes = 0
        self.passes = 0
        self.proven = None

    def run(self, cap):
        """One pass under the objective cap `cap` (scaled units).

        The pass starts from a sentinel incumbent objective of cap + 1, which
        cuts every child whose bound is above the cap.  A child is entered
        only if its bound is below the incumbent's, so until the first
        optimal leaf is met every cut subtree is bounded above the optimum:
        if the pass finds a vector, `best_x` is the first vector of least
        objective in search order, whatever the bounds and the cap.  If not,
        `proven` is the cap as an objective and `over_cap` the least bound
        it cut (`least`), or None when it cut nothing: the box holds no
        feasible vector at all.
        """
        self.passes += 1
        self.cap = cap
        self.best = cap + 1
        self.best_x = None
        self.least = math.inf
        self.dfs()
        if self.best_x is None:
            self.proven = Fraction(cap, self.scale)
        self.over_cap = None if self.least == math.inf else self.least

    def solution(self) -> Solution:
        """The incumbent of the last pass as a full-layout solution.  Each
        statement's witness is its first candidate with s~.x != 0, the sign
        that of s~.x: the earliest option the search saw met at the leaf."""
        system = self.system
        full = [0] * system.layout.size
        for g, v in zip(self.used, self.best_x):
            full[g] = v
        full = tuple(full)
        witness_used = {}
        for sid in self.statements:
            for w in system.witnesses[sid]:
                v = sum(c * xv for c, xv in zip(w.s_tilde, full))
                if v:
                    witness_used[sid] = (w.s, 1 if v > 0 else -1)
                    break
        return Solution(
            x=full,
            objective=Fraction(self.best, self.scale),
            slacks={col.label: col.slack(full) for col in system.columns},
            witness_used=witness_used,
            nodes=self.nodes,
            passes=self.passes,
            cap=Fraction(self.cap, self.scale),
            rows=self.rows,
            implied_rows=self.implied,
        )

    def dfs(self, k=0, lb=0):
        """Search below the node at depth k whose objective lower bound is lb,
        which is below the incumbent's.

        At the root every partial sum is 0, so each column's interval
        contains 0: the bound is 0 and no column is dead.  While the pass has
        no incumbent, a child cut by the cap lowers `least` to its bound.  A
        spent budget raises the timeout, naming the pass, its cap and `proven`.
        """
        self.nodes += 1
        # the first node checks too, so a spent budget stops even a small search
        if self.nodes % 1024 == 1 and time.monotonic() > self.deadline:
            proven = "" if self.proven is None else f"; no solution with objective <= {self.proven}"
            raise SolverTimeout(
                f"solver time limit exceeded after {self.nodes} nodes in pass {self.passes} "
                f"under objective cap {Fraction(self.cap, self.scale)}{proven}")
        partial = self.partial
        # cut the node if some statement has no option that a completion of
        # the first k variables can still meet
        for options in self.witness_at[k]:
            for ri, spread in options:
                p = partial[ri]
                if p + spread >= 1 or p - spread <= -1:
                    break
            else:
                return
        if k == self.nvars:
            self.best, self.best_x = lb, tuple(self.assign)
            return
        columns = self.columns_at[k]
        pairs = self.pairs_at[k]
        touched = self.by_pos[k]
        best = self.best
        # the bound without the touched columns' contributions and the touched
        # pairs' excess terms; |p| is spelled out, as builtin calls cost more
        # than the arithmetic here
        base = lb
        for ri, _, _, w, before, _ in columns:
            p = partial[ri]
            if p - before > 0:
                base -= w * (p - before)
            elif p + before < 0:
                base += w * (p + before)
        for a, _, ba, _, b, _, bb, _, c, _, bc, _, m in pairs:
            p = partial[c]
            excess = (p if p >= 0 else -p) - bc
            if excess > 0:
                p = partial[a]
                p = (p if p >= 0 else -p) - ba
                if p > 0:
                    excess -= p
                p = partial[b]
                p = (p if p >= 0 else -p) - bb
                if p > 0:
                    excess -= p
                if excess > 0:
                    base -= m * excess
        for v in self.values:
            child = base
            for ri, c, geq, w, _, after in columns:
                p = partial[ri] + c * v
                if p - after > 0:
                    child += w * (p - after)
                elif p + after < 0:
                    if geq:
                        break
                    child -= w * (p + after)
            else:
                for a, ca, _, sa, b, cb, _, sb, c, cc, _, sc, m in pairs:
                    p = partial[c] + cc * v
                    excess = (p if p >= 0 else -p) - sc
                    if excess > 0:
                        p = partial[a] + ca * v
                        p = (p if p >= 0 else -p) - sa
                        if p > 0:
                            excess -= p
                        p = partial[b] + cb * v
                        p = (p if p >= 0 else -p) - sb
                        if p > 0:
                            excess -= p
                        if excess > 0:
                            child += m * excess
                if child >= best:
                    # while there is no incumbent, cut by the cap alone: the
                    # next pass needs a cap this high
                    if child < self.least:
                        self.least = child
                    continue
                self.assign[k] = v
                if v:
                    for ri, c in touched:
                        partial[ri] += c * v
                self.dfs(k + 1, child)
                best = self.best
                if v:
                    for ri, c in touched:
                        partial[ri] -= c * v
        self.assign[k] = 0


def _combined(u, s, v, t):
    """The nonzero terms of u*s + v*t, for rows s and t given as terms."""
    row = {k: u * c for k, c in s}
    for k, c in t:
        row[k] = row.get(k, 0) + v * c
    return tuple(sorted(kc for kc in row.items() if kc[1]))


def _derived_rows(nonzero, geq):
    """The pairs and the implied rows of every two rows that end at the same
    variable k in search order.  Every row, given or derived, is its nonzero
    (position, coefficient) terms in position order, never empty, so a row's
    coefficient at k is its last term.

    Pairs are disjoint, of one sense with equal |coefficient| at k, as
    (a, b, c): c is a - b or, for opposite coefficients, a + b, so it
    cancels k.  Pairs whose c ends the most positions earlier are taken
    first, ties by row index; a pair whose c is zero is never taken.
    Implied rows are one round of Fourier-Motzkin elimination: for GEQ0
    rows r1 and r2 with coefficients c1 > 0 and -c2 < 0 at k, c2*r1 + c1*r2
    >= 0 holds wherever both do and cancels k; a zero row is left out."""
    buckets = {}
    for ri, terms in enumerate(nonzero):
        buckets.setdefault(terms[-1][0], []).append(ri)
    candidates, implied = [], []
    for k, members in buckets.items():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                ta, tb = nonzero[a], nonzero[b]
                ca, cb = ta[-1][1], tb[-1][1]
                if geq[a] == geq[b] and abs(ca) == abs(cb):
                    c = _combined(1, ta, -1 if ca == cb else 1, tb)
                    if c:
                        candidates.append((c[-1][0] - k, a, b, c))
                if geq[a] and geq[b] and ca * cb < 0:
                    row = _combined(abs(cb), ta, abs(ca), tb)
                    if row:
                        implied.append(row)
    candidates.sort()  # (end, a, b) is unique, so c is never compared
    taken, pairs = set(), []
    for _, a, b, c in candidates:
        if a not in taken and b not in taken:
            taken.update((a, b))
            pairs.append((a, b, c))
    return pairs, implied


def solve(system: ConstraintSystem, cfg: SolverConfig | None = None) -> Solution:
    """Minimize the weighted slack objective over the bounded integer box.

    Variables appearing in no column and no witness are pinned to zero.  Of
    the vectors of least objective the first in search order wins: the used
    variables in layout order, each trying 0, 1, -1, 2, -2, ...  The search runs
    capped passes from cap 0: a pass that fails proves the optimum is at
    least the least bound its cap cut, and the next cap is that bound or
    twice the cap, whichever is larger.
    """
    cfg = cfg or SolverConfig()
    deadline = None if cfg.time_limit is None else time.monotonic() + cfg.time_limit
    search = _Search(system, cfg.coeff_bound, deadline)
    cap = 0
    while True:
        search.run(cap)
        if search.best_x is not None:
            return search.solution()
        if search.over_cap is None:
            raise InfeasibleError(
                f"no feasible coefficients with entries in [-{cfg.coeff_bound}, "
                f"{cfg.coeff_bound}]; consider raising the bound"
            )
        cap = max(search.over_cap, 2 * cap)
