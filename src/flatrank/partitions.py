"""Partition combinatorics and GL-module dimension bookkeeping.

Partitions are stored as tuples of positive integers, weakly decreasing,
with no trailing zeros; the empty tuple is the trivial partition.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from operator import le

Partition = tuple[int, ...]


def make_partition(parts) -> Partition:
    """Normalize an iterable of part lengths into a partition tuple.

    Trailing zeros are dropped; raises ValueError if the result is not
    weakly decreasing or contains a negative part.
    """
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    if any(x <= 0 for x in p):
        raise ValueError(f"parts must be positive: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {p}")
    return p


def conjugate(pi: Partition) -> Partition:
    """Column lengths of the Young diagram of pi."""
    if not pi:
        return ()
    cols = [0] * pi[0]
    for part in pi:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def schur_dim(pi: Partition, N: int) -> int:
    """Dimension of the Schur module of shape pi over an N-dimensional space.

    Hook content formula: product over cells of (N + j - i) / hook(i, j).
    Returns 0 when the shape has more rows than N.
    """
    if len(pi) > N:
        return 0
    conj = conjugate(pi)
    val = Fraction(1)
    for i, part in enumerate(pi):
        for j in range(part):
            hook = (part - j) + (conj[j] - i) - 1
            val *= Fraction(N + j - i, hook)
    if val.denominator != 1:
        raise RuntimeError(f"hook content formula gave {val} for {pi} over N={N}")
    return int(val)


def partitions_of(p: int, max_part: int | None = None):
    """Yield all partitions of p with parts at most max_part, largest part first."""
    if max_part is None:
        max_part = p
    if p == 0:
        yield ()
        return
    for first in range(min(p, max_part), 0, -1):
        for rest in partitions_of(p - first, first):
            yield (first,) + rest


def pieri_row(pi: Partition, d: int, N: int) -> list[Partition]:
    """Partitions obtained from pi by adding d boxes, no two in the same column.

    This is the horizontal-strip (Pieri) rule for tensoring with the d-th
    symmetric power; results with more than N rows are discarded.
    """
    if len(pi) > N:
        return []
    results: list[Partition] = []
    nrows = min(len(pi) + 1, N)

    def extend(row: int, remaining: int, built: list[int]):
        if row == nrows:
            if remaining == 0:
                results.append(make_partition(built))
            return
        old = pi[row] if row < len(pi) else 0
        below = pi[row + 1] if row + 1 < len(pi) else 0
        # horizontal strip: old <= new <= old + remaining, and the row below
        # may grow at most up to old (no two added boxes in one column)
        upper = old + remaining
        if row > 0:
            upper = min(upper, built[-1])
        for new in range(old, upper + 1):
            # all lower rows must stay >= below; new boxes in lower rows are
            # capped by `old` via the strip condition checked at that level
            extend(row + 1, remaining - (new - old), built + [new])

    # strip condition between consecutive rows: mu[i+1] <= pi[i]; enforce here
    def valid(mu: Partition) -> bool:
        for i in range(1, len(mu)):
            if mu[i] > (pi[i - 1] if i - 1 < len(pi) else 0):
                return False
        return True

    extend(0, d, [])
    return [mu for mu in results if valid(mu)]


def kostka(shape: Partition, content) -> int:
    """Number of semistandard tableaux of the shape with content[i] entries
    equal to i+1: the dimension of the weight-`content` space of the Schur
    module of the shape.

    Such a tableau is a chain () = s0 < s1 < ... < s_k = shape in which
    s_i / s_(i-1) is a horizontal strip of content[i-1] boxes (the entries
    equal to i), so the chains are counted strip by strip (`pieri_row`),
    keeping only the shapes inside `shape`."""
    shape = make_partition(shape)
    counts = {(): 1}
    for c in content:
        if not c:
            continue
        step: dict[Partition, int] = {}
        for s, k in counts.items():
            for t in pieri_row(s, c, len(shape)):
                if all(map(le, t, shape)):
                    step[t] = step.get(t, 0) + k
        counts = step
    return counts.get(shape, 0)


def pieri_column(pi: Partition, k: int, N: int) -> list[Partition]:
    """Partitions obtained from pi by adding k boxes, no two in the same row.

    Vertical-strip rule for tensoring with the k-th exterior power; results
    with more than N rows are discarded.
    """
    if k == 0:
        return [pi] if len(pi) <= N else []
    results = []
    nrows = len(pi) + k
    for rows in combinations(range(nrows), k):
        mu = list(pi) + [0] * k
        for r in rows:
            mu[r] += 1
        try:
            cand = make_partition(mu)
        except ValueError:
            continue
        if len(cand) <= N:
            results.append(cand)
    # combinations over row positions can hit the same shape at most once
    return results


class ModuleList:
    """Multiset of irreducible GL x GL modules with multiplicities."""

    def __init__(self, entries: list[tuple[Partition, Partition, int]] | None = None):
        self.entries = [] if entries is None else entries

    def add(self, a: Partition, b: Partition, mult: int = 1) -> None:
        for idx, (ea, eb, m) in enumerate(self.entries):
            if ea == a and eb == b:
                self.entries[idx] = (ea, eb, m + mult)
                return
        self.entries.append((a, b, mult))

    def multiplicity(self, a: Partition, b: Partition) -> int:
        for ea, eb, m in self.entries:
            if ea == a and eb == b:
                return m
        return 0

    def sorted(self) -> "ModuleList":
        return ModuleList(sorted(self.entries))

    def total_dimension(self, N: int) -> int:
        return sum(m * schur_dim(a, N) * schur_dim(b, N) for a, b, m in self.entries)

    def to_json(self, N: int) -> str:
        records = [
            {
                "a": list(a),
                "b": list(b),
                "mult": m,
                "dim_a": schur_dim(a, N),
                "dim_b": schur_dim(b, N),
            }
            for a, b, m in self.sorted().entries
        ]
        records.append({"total_dim": self.total_dimension(N)})
        return json.dumps(records)


def cauchy_wedge(p: int, Na: int, Nb: int) -> ModuleList:
    """Decompose the p-th exterior power of a tensor product of spaces.

    One entry (lam, conjugate(lam), 1) per partition lam of p fitting in an
    Na x Nb box.
    """
    ml = ModuleList()
    for lam in partitions_of(p):
        if len(lam) <= Na and len(conjugate(lam)) <= Nb:
            ml.add(lam, conjugate(lam), 1)
    return ml


def _decompose_wedge_tensor(wedge: int, p: int, n: int) -> ModuleList:
    """Decomposition of wedge^wedge(A) x wedge^wedge(B) x wedge^p(A tensor B)
    over GL(A) x GL(B), both spaces n-dimensional."""
    out = ModuleList()
    for lam, lamc, mult in cauchy_wedge(p, n, n).entries:
        for a in pieri_column(lam, wedge, n):
            for b in pieri_column(lamc, wedge, n):
                out.add(a, b, mult)
    return out.sorted()


def candidate_image(n: int, d: int, p: int) -> ModuleList:
    """Modules that can appear in the image of the minor-indexed Koszul map.

    Intersection (with minimum multiplicities) of the domain decomposition
    with the codomain decomposition.  No shape has more than n rows:
    `cauchy_wedge` and `pieri_column` keep only shapes that fit.
    """
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    if not 0 < d < n:
        raise ValueError(f"need 0 < d < n, got d={d}, n={n}")
    domain = _decompose_wedge_tensor(n - d, p, n)
    codomain = _decompose_wedge_tensor(n - d - 1, p + 1, n)
    out = ModuleList()
    for a, b, m in domain.entries:
        mc = codomain.multiplicity(a, b)
        if mc > 0:
            out.add(a, b, min(m, mc))
    return out.sorted()


def theoretical_image_dim(n: int, d: int, p: int) -> int:
    """Dimension of the candidate image over n-dimensional spaces."""
    return candidate_image(n, d, p).total_dimension(n)
