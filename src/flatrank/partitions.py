"""Partition combinatorics and GL-module dimension bookkeeping.

Partitions are stored as tuples of positive integers, weakly decreasing,
with no trailing zeros; the empty tuple is the trivial partition.
"""

from __future__ import annotations

from functools import cache
from math import fsum, log10, prod
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


def _hook_contents(pi: Partition, N: int) -> list[tuple[int, int]]:
    """The content factor N + j - i and the hook length of each cell (i, j)."""
    conj = conjugate(pi)
    return [(N + j - i, r - j + conj[j] - i - 1) for i, r in enumerate(pi) for j in range(r)]


def schur_dim(pi: Partition, N: int) -> int:
    """Dimension of the Schur module of shape pi over an N-dimensional space.

    Hook content formula: product over cells of (N + j - i) / hook(i, j).
    Returns 0 when the shape has more rows than N.
    """
    if len(pi) > N:
        return 0
    cells = _hook_contents(pi, N)
    contents, hooks = prod(c for c, _ in cells), prod(h for _, h in cells)
    val, rest = divmod(contents, hooks)
    if rest:
        raise RuntimeError(f"hook content formula gave {contents}/{hooks} for {pi} over N={N}")
    return val


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
    symmetric power: row i grows from pi[i] to at most pi[i-1], the first
    row without limit.  Results with more than N rows are discarded.
    """
    if len(pi) > N:
        return []
    results: list[Partition] = []

    def grow(i: int, left: int, built: Partition):
        if left == 0:
            results.append(built + pi[i:])
        elif i <= len(pi) and i < N:
            old = pi[i] if i < len(pi) else 0
            most = left if i == 0 else min(left, pi[i - 1] - old)
            for add in range(most + 1):
                grow(i + 1, left - add, built + (old + add,))

    grow(0, d, ())
    return results


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

    Vertical-strip rule for tensoring with the k-th exterior power: the
    conjugates of the horizontal strips added to conjugate(pi).  Results
    with more than N rows are discarded.
    """
    pc = conjugate(pi)
    return [mu for mu in map(conjugate, pieri_row(pc, k, len(pc) + 1)) if len(mu) <= N]


def cauchy_wedge(p: int, n: int) -> dict:
    """Decompose the p-th exterior power of A tensor B, both spaces
    n-dimensional: {(lam, conjugate(lam)): 1} for each partition lam of p
    fitting in an n x n box."""
    return {(lam, conjugate(lam)): 1 for lam in partitions_of(p, n) if len(lam) <= n}


def _decompose_wedge_tensor(wedge: int, p: int, n: int) -> dict:
    """Decomposition {(a, b): multiplicity} of
    wedge^wedge(A) x wedge^wedge(B) x wedge^p(A tensor B) over
    GL(A) x GL(B), both spaces n-dimensional."""
    out: dict = {}
    for (lam, lamc), mult in cauchy_wedge(p, n).items():
        for a in pieri_column(lam, wedge, n):
            for b in pieri_column(lamc, wedge, n):
                out[a, b] = out.get((a, b), 0) + mult
    return out


@cache
def candidate_image(n: int, d: int, p: int) -> tuple[tuple[Partition, Partition, int], ...]:
    """Modules that can appear in the image of the minor-indexed Koszul map,
    as sorted (a, b, multiplicity) triples for S_a(A) x S_b(B).

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
    return tuple(sorted((a, b, min(m, codomain[a, b]))
                        for (a, b), m in domain.items() if (a, b) in codomain))


def total_dimension(modules, N: int) -> int:
    """Dimension of a sum of modules given as (a, b, multiplicity) triples,
    over N-dimensional spaces."""
    return sum(m * schur_dim(a, N) * schur_dim(b, N) for a, b, m in modules)


def total_log10(modules, N: int) -> float:
    """log10 of `total_dimension(modules, N)`, off by far less than 1e-6: summed
    in floats over the hook-content factors, so no large int is built."""
    logs = [log10(m) + fsum(log10(c / h) for s in (a, b) for c, h in _hook_contents(s, N))
            for a, b, m in modules]
    return (top := max(logs)) + log10(fsum(10 ** (x - top) for x in logs))


def theoretical_image_dim(n: int, d: int, p: int) -> int:
    """Dimension of the candidate image over n-dimensional spaces."""
    return total_dimension(candidate_image(n, d, p), n)
