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
interval levels before a and b are fixed; c's partial sums and coefficients
are read off a's and b's.  GEQ0 rows r1 and r2 with coefficients c1 > 0 and
-c2 < 0 there imply the row c2*r1 + c1*r2 >= 0 without it, one step of
Fourier-Motzkin elimination (as in Pugh's Omega test).  Each nonzero such
row joins the dead check with weight 0, so a child that r1 and r2 can only
rule out together is cut at the depth of the implied row's last variable.
The rows are built once and cut no feasible vector, so plans do not depend
on them.  An implied row is divided by the gcd of its coefficients and kept
once: a repeated row, or a multiple of one, cuts nothing more.

Each node does only the work that can change what it enters.  Its GEQ0
rows narrow the next variable to one interval of values, outside which
every child is dead (bounds propagation on the branching variable,
Achterberg 2007), so no dead child is priced.  A row or pair whose partial
sum lies so close to 0 that no value can move its interval off 0 adds
nothing to any child and is skipped.  A child already cut by its rows alone
is not priced further.  A leaf of objective 0 ends the pass, as no bound is
negative.  The node counts are those of pricing every row at every child.

Rank growth is a disjunction: for each statement that must grow, the new
schedule row needs sign * s~.x >= 1 for some kernel witness s and sign.  A
statement's options are (w1, +1), (w1, -1), (w2, +1), ... in candidate order;
the witness rows join the interval bookkeeping.  An option fails only once
it is fully assigned with s~.x = 0, so a statement is checked once, at the
depth after its last witness variable, and a node there is cut if none of
its options is met.

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
from functools import cache
from math import gcd, lcm

from .algebra import dot
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


@cache
def _value_orders(bound: int):
    """orders[lo + bound][hi + bound]: the values in [lo, hi] in search order
    0, 1, -1, 2, -2, ...  Cached per coefficient bound, as every search of
    a run sets up the same table."""
    values = [0]
    for v in range(1, bound + 1):
        values += [v, -v]
    span = range(-bound, bound + 1)
    return [[tuple(v for v in values if lo <= v <= hi) for hi in span] for lo in span]


class _Search:
    """Minimize the objective over the box under linear constraints.

    A node at depth k has the first k variables assigned, knows its
    objective lower bound and knows that no GEQ0 row is dead (its interval
    lies below zero).  Only the rows that variable k touches change between
    a node and its children, so the parent derives each child's bound from
    those rows alone and skips a child that has a dead row, or whose bound
    is not below the incumbent's objective.

    The bound is the sum over rows of weight times d, the distance of the
    row's interval from 0; a pair (a, b, c) with m = min(w_a, w_b) counts
    as (w_a - m)*d_a + (w_b - m)*d_b + m*max(d_a + d_b, d_c), which bounds
    w_a*|a| + w_b*|b|.  An ABS pair uses |a| + |b| >= |a +- b|; a GEQ0 pair
    uses a + b >= |a - b| or, for c = a + b, a + b = c >= 0.  The implied
    rows, which include a multiple of every GEQ0 pair's sum, have weight 0:
    they serve the dead check alone.  Every d only grows with depth, and at
    a leaf d_c <= d_a + d_b, so the bound never falls and equals the
    objective there.

    The parent first narrows variable k to one interval of values (bounds
    propagation): a GEQ0 row with partial sum p, coefficient c at k and
    spread `after` over the later variables is dead for v < -((p + after)
    // c) when c > 0 and for v > (p + after) // -c when c < 0, and a row
    with p + after >= |c|*bound is dead for no v.  So the values outside
    the interval are exactly the dead children, and the implied rows never
    reach the per-value loop.  A row whose |p| lies within its free radius
    `after - |c|*bound`, or a pair whose a, b and c all do, adds 0 to the
    node's bound and to every child's, so only the movable rest is priced
    per value.  A child whose bound without the pairs is at least both the
    incumbent's and `least` is cut before the pairs are added: the full
    bound is no lower.  A statement's witness options are checked once, at
    the depth after its last witness variable, since an option fails only
    once it is fully assigned with s~.x = 0.  A leaf of objective 0 ends
    the pass, as no bound is negative.  A pass keeps the least bound its
    cap cut in `least`, and the last cap that held no vector, as an
    objective, in `proven`.
    """

    def __init__(self, system: ConstraintSystem, bound, deadline):
        self.system = system
        self.deadline = math.inf if deadline is None else deadline
        self.scale = scale = lcm(*{col.weight.denominator for col in system.columns})
        self.bound = bound
        self.orders = _value_orders(bound)
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
        # per statement with witnesses, its options as the nonzero terms of s~
        options = [[[(i, c) for i, c in enumerate(w.s_tilde) if c] for w in cands]
                   for cands in system.witnesses.values()]
        # variables in no row and no witness stay 0, the others are searched in
        # layout order, so a row's terms, in layout order, are in search order
        rows = [terms for terms, _ in merged]
        used = {i for terms in rows for i, _ in terms}
        used.update(i for opts in options for terms in opts for i, _ in terms)
        self.used = used = sorted(used)
        self.nvars = nvars = len(used)
        geq = [g for _, g in merged]
        weights = list(merged.values())
        # paired columns: a pair's combination c = a + sign*b bounds the pair
        # and is read off a and b; the implied rows join the rows with weight
        # 0, for the dead check only
        pairs, implied = _derived_rows(rows, geq)
        self.rows = len(rows) + len(pairs) + len(implied)
        self.implied = len(implied)
        rows += implied
        geq += [True] * len(implied)
        weights += [0] * len(implied)
        # a paired row counts in its pair with weight m and alone with the rest
        pairs = [(a, b, sign, min(weights[a], weights[b])) for a, b, sign in pairs]
        for a, b, _, m in pairs:
            weights[a] -= m
            weights[b] -= m

        # per variable, in `levels` by depth: the GEQ0 rows it touches, for the
        # value interval; the weighted rows; the pairs whose a or b it
        # touches; the partial sums that assigning it updates.  Each entry
        # holds the coefficient there and the spreads before and after the
        # variable is assigned.  A row's partial sum is read up to its last
        # variable (a pair's, up to that of a and b), so assigning that one
        # leaves it alone; a statement reads its witness rows after theirs.
        size = system.layout.size
        geq_at, plain_at, pairs_at, by_pos = ([[] for _ in range(size)] for _ in range(4))
        for ri, terms in enumerate(rows):
            is_geq, w = geq[ri], weights[ri]
            after = 0
            for k, c in reversed(terms):
                spread = abs(c) * bound
                if after:
                    by_pos[k].append((ri, c))
                if is_geq:
                    geq_at[k].append((ri, c, after, spread - after))
                if w:
                    plain_at[k].append((ri, c, w, after + spread, after, after - spread))
                after += spread
        for a, b, sign, m in pairs:
            if m:
                _pair_entries(pairs_at, a, rows[a], b, rows[b], sign, m, bound)
        self.witness_at = [[] for _ in range(nvars + 1)]
        for opts in options:
            witness_rows = tuple(range(len(rows), len(rows) + len(opts)))
            for ri, terms in zip(witness_rows, opts):
                rows.append(terms)
                for k, c in terms:
                    by_pos[k].append((ri, c))
            depth = max((used.index(terms[-1][0]) + 1 for terms in opts), default=0)
            self.witness_at[depth].append(witness_rows)
        self.size = len(rows)
        self.levels = [(geq_at[g], plain_at[g], pairs_at[g], by_pos[g]) for g in used]
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
        feasible vector at all.  A pass that finds a vector leaves
        `over_cap` None, as it may stop before it has seen every cut.
        """
        self.passes += 1
        self.cap = cap
        self.best = cap + 1
        self.best_x = None
        self.least = math.inf
        self.partial = [0] * self.size
        self.dfs()
        self.over_cap = None
        if self.best_x is None:
            self.proven = Fraction(cap, self.scale)
            if self.least != math.inf:
                self.over_cap = self.least

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
        for sid, cands in system.witnesses.items():
            for w in cands:
                v = dot(w.s_tilde, full)
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

        At the root every partial sum is 0, so each row's interval contains
        0: the bound is 0 and no row is dead.  While the pass has no
        incumbent, a child cut by the cap lowers `least` to its bound.  A
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
        # cut the node if a statement whose options are all assigned has none met
        for rows in self.witness_at[k]:
            for ri in rows:
                if partial[ri]:
                    break
            else:
                return
        if k == self.nvars:
            self.best, self.best_x = lb, tuple(self.assign)
            return
        geqs, plain, pairs, touched = self.levels[k]
        bound = self.bound
        lo, hi = -bound, bound
        for ri, c, after, limit in geqs:
            s = partial[ri]
            if s < limit:
                s += after
                if c > 0:
                    s = -(s // c)
                    if s > lo:
                        lo = s
                else:
                    s //= -c
                    if s < hi:
                        hi = s
        if lo > hi:
            return
        # the bound without the movable rows' and pairs' contributions, and
        # those rows and pairs; |p| is spelled out, as builtin calls cost
        # more than the arithmetic here
        base = lb
        rows = []
        for ri, c, w, before, after, radius in plain:
            p = partial[ri]
            d = p if p >= 0 else -p
            if d > radius:
                if d > before:
                    base -= w * (d - before)
                rows.append((p, c, w, after))
        units = []
        for a, ca, ba, sa, ra, b, cb, bb, sb, rb, sign, bc, sc, rc, m in pairs:
            pa = partial[a]
            da = pa if pa >= 0 else -pa
            pb = partial[b]
            db = pb if pb >= 0 else -pb
            dc = pa + sign * pb
            if dc < 0:
                dc = -dc
            if da <= ra and db <= rb and dc <= rc:
                continue
            d = da - ba if da > ba else 0
            if db > bb:
                d += db - bb
            if dc - bc > d:
                d = dc - bc
            base -= m * d
            units.append((pa, ca, sa, pb, cb, sb, sign, sc, m))
        assign = self.assign
        best = self.best
        least = self.least
        for v in self.orders[lo + bound][hi + bound]:
            child = base
            for p, c, w, after in rows:
                p += c * v
                if p < 0:
                    p = -p
                if p > after:
                    child += w * (p - after)
            if child >= best and child >= least:
                continue
            for pa, ca, sa, pb, cb, sb, sign, sc, m in units:
                pa += ca * v
                pb += cb * v
                pc = pa + sign * pb
                if pa < 0:
                    pa = -pa
                d = pa - sa if pa > sa else 0
                if pb < 0:
                    pb = -pb
                if pb > sb:
                    d += pb - sb
                if pc < 0:
                    pc = -pc
                pc -= sc
                child += m * (pc if pc > d else d)
            if child >= best:
                # while there is no incumbent, cut by the cap alone: the
                # next pass needs a cap this high
                if child < least:
                    self.least = least = child
                continue
            assign[k] = v
            # the child gets its own partial sums, so nothing is undone after it
            if v:
                sums = partial[:]
                for ri, c in touched:
                    sums[ri] += c * v
                self.partial = sums
            else:
                self.partial = partial
            self.dfs(k + 1, child)
            best = self.best
            if not best:  # a leaf of objective 0: no later child can beat it
                return
            least = self.least


def _combined(u, s, v, t):
    """The nonzero terms of u*s + v*t, for rows s and t given as terms and
    nonzero u and v: a merge of the two position-ordered lists."""
    out = []
    i = j = 0
    ns, nt = len(s), len(t)
    while i < ns and j < nt:
        ks, cs = s[i]
        kt, ct = t[j]
        if ks < kt:
            out.append((ks, u * cs))
            i += 1
        elif kt < ks:
            out.append((kt, v * ct))
            j += 1
        else:
            c = u * cs + v * ct
            if c:
                out.append((ks, c))
            i += 1
            j += 1
    out += [(k, u * c) for k, c in s[i:]]
    out += [(k, v * c) for k, c in t[j:]]
    return tuple(out)


def _end(s, t, v):
    """The last position of s + v*t with a nonzero coefficient, or None when
    it is zero, for rows s and t whose last terms cancel: a walk back over
    both term lists."""
    i, j = len(s) - 2, len(t) - 2
    while i >= 0 and j >= 0:
        (ks, cs), (kt, ct) = s[i], t[j]
        if ks != kt or cs + v * ct:
            return ks if ks > kt else kt
        i -= 1
        j -= 1
    if i >= 0:
        return s[i][0]
    return t[j][0] if j >= 0 else None


def _pair_entries(pairs_at, a, ta, b, tb, sign, m, bound):
    """Append the entries of the pair (a, b, c = a + sign*b) to `pairs_at`,
    from the last variable that a or b touches to the first, in one walk
    back over the terms of a and b, which hold every term of c: per row its
    coefficient there, spreads before and after the variable is assigned
    and free radius, with the indices of a and b, then m."""
    i, j = len(ta) - 1, len(tb) - 1
    sa = sb = sc = 0
    while i >= 0 or j >= 0:
        ka = ta[i][0] if i >= 0 else -1
        kb = tb[j][0] if j >= 0 else -1
        k = ka if ka > kb else kb
        ca = cb = 0
        if ka == k:
            ca = ta[i][1]
            i -= 1
        if kb == k:
            cb = tb[j][1]
            j -= 1
        ua, ub, uc = abs(ca) * bound, abs(cb) * bound, abs(ca + sign * cb) * bound
        pairs_at[k].append((a, ca, sa + ua, sa, sa - ua, b, cb, sb + ub, sb, sb - ub,
                            sign, sc + uc, sc, sc - uc, m))
        sa += ua
        sb += ub
        sc += uc


def _derived_rows(nonzero, geq):
    """The pairs and the implied rows of every two rows that end at the same
    variable k in search order.  Every row, given or derived, is its nonzero
    (position, coefficient) terms in position order, never empty, so a row's
    coefficient at k is its last term.

    Pairs are disjoint, of one sense with equal |coefficient| at k, as
    (a, b, sign): c = a + sign*b is a - b or, for opposite coefficients,
    a + b, so it cancels k.  Pairs whose c ends the most positions earlier
    are taken first, ties by row index; a pair whose c is zero is never
    taken.  The search reads c off a and b, so c is never built; where it
    ends comes from a walk back over both rows.  Implied rows are one round of
    Fourier-Motzkin elimination: for GEQ0 rows r1 and r2 with coefficients
    c1 > 0 and -c2 < 0 at k, c2*r1 + c1*r2 >= 0 holds wherever both do and
    cancels k.  Each is divided by the gcd of its coefficients, and a zero
    row or a repeat of an earlier one is left out."""
    buckets = {}
    for ri, terms in enumerate(nonzero):
        buckets.setdefault(terms[-1][0], ([], []))[geq[ri]].append((ri, terms, terms[-1][1]))
    candidates, implied = [], {}
    for k, groups in buckets.items():
        for is_geq, members in enumerate(groups):
            for i, (a, ta, ca) in enumerate(members):
                for b, tb, cb in members[i + 1:]:
                    if ca == cb or ca == -cb:
                        sign = -1 if ca == cb else 1
                        end = _end(ta, tb, sign)
                        if end is not None:
                            candidates.append((end - k, a, b, sign))
                    if is_geq and (ca > 0) != (cb > 0):
                        row = _combined(abs(cb), ta, abs(ca), tb)
                        if row:
                            g = gcd(*(c for _, c in row))
                            implied.setdefault(tuple((pos, c // g) for pos, c in row))
    candidates.sort()  # (end, a, b) is unique
    taken, pairs = set(), []
    for _, a, b, sign in candidates:
        if a not in taken and b not in taken:
            taken.update((a, b))
            pairs.append((a, b, sign))
    return pairs, list(implied)


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
