"""Partition combinatorics and GL-module dimension bookkeeping.

Partitions are stored as tuples of positive integers, weakly decreasing,
with no trailing zeros; the empty tuple is the trivial partition.
"""

from functools import cache
from itertools import combinations, groupby, product
from math import fsum, lgamma, log, log10, prod
from operator import ge, le

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
    """Column lengths of the Young diagram of pi, one run of equal lengths
    for each run of equal parts, so a long row or column costs one step."""
    cols, rows, last = [], len(pi), 0
    for part, run in groupby(reversed(pi)):
        cols += [rows] * (part - last)
        rows, last = rows - len(list(run)), part
    return tuple(cols)


def schur_dim(pi: Partition, N: int) -> int:
    """Dimension of the Schur module of shape pi over an N-dimensional space.

    Hook content formula: product over cells of (N + j - i) / hook(i, j).
    It is 0 when the shape has more rows than N: the first cell of row N,
    counting rows from 0, has content 0.
    """
    conj = conjugate(pi)
    contents = prod(N + j - i for i, r in enumerate(pi) for j in range(r))
    hooks = prod(r - j + conj[j] - i - 1 for i, r in enumerate(pi) for j in range(r))
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


@cache
def kostka(shape: Partition, content) -> int:
    """Number of semistandard tableaux of the shape with content[i] entries
    equal to i+1: the dimension of the weight-`content` space of the Schur
    module of the shape.

    Such a tableau is a chain () = s0 < s1 < ... < s_k = shape in which
    s_i / s_(i-1) is a horizontal strip of content[i-1] boxes (the entries
    equal to i), at most one a column, so the chains are counted strip by
    strip on column lengths, keeping only the shapes inside `shape`."""
    top = conjugate(make_partition(shape))
    counts = {(0,) * len(top): 1}
    for c in content:
        step: dict[tuple, int] = {}
        for s, k in counts.items():
            for grown in combinations(range(len(top)), c):
                t = tuple(x + (j in grown) for j, x in enumerate(s))
                if all(map(le, t, top)) and all(map(ge, t, t[1:])):
                    step[t] = step.get(t, 0) + k
        counts = step
    return counts.get(top, 0)


def weight_space_dim(modules: dict, wa, wb) -> int:
    """Dimension of the (wa, wb) weight space of the sum of S_a(A) x S_b(B)
    over {(a, b): multiplicity}: the sum of multiplicity * K(a, wa) * K(b, wb)."""
    wa, wb = tuple(filter(None, wa)), tuple(filter(None, wb))
    return sum(m * ka * kostka(b, wb) for (a, b), m in modules.items() if (ka := kostka(a, wa)))


def pieri_column(pi: Partition, k: int, N: int) -> list[Partition]:
    """Partitions obtained from pi by adding k boxes, no two in the same row.

    Vertical-strip rule for tensoring with the k-th exterior power: in each
    run of equal parts of pi the first g rows gain one box, and the boxes
    left start new rows of one box.  Results with more than N rows are
    discarded.
    """
    runs = [(part, len(list(run))) for part, run in groupby(pi)]
    results: list[Partition] = []
    for grown in product(*(range(r + 1) for _, r in runs)):
        if 0 <= (new := k - sum(grown)) <= N - len(pi):
            shape: list[int] = []
            for (part, r), g in zip(runs, grown):
                shape += [part + 1] * g + [part] * (r - g)
            results.append(tuple(shape) + (1,) * new)
    return results


@cache
def _decompose_wedge_tensor(wedge: int, p: int, n: int) -> dict:
    """Decomposition {(a, b): multiplicity} of
    wedge^wedge(A) x wedge^wedge(B) x wedge^p(A tensor B) over
    GL(A) x GL(B), both spaces n-dimensional.

    By the Cauchy rule wedge^p(A tensor B) is the sum, each once, of
    S_lam(A) x S_lam'(B) over the partitions lam of p, lam' its conjugate;
    the vertical-strip rule (`pieri_column`) then tensors each side with
    its wedge power, keeping only shapes of at most n rows."""
    out: dict = {}
    for lam in partitions_of(p, n):
        for a in pieri_column(lam, wedge, n):
            for b in pieri_column(conjugate(lam), wedge, n):
                out[a, b] = out.get((a, b), 0) + 1
    return out


@cache
def candidate_image(n: int, d: int, p: int) -> tuple[tuple[Partition, Partition, int], ...]:
    """Modules that can appear in the image of the minor-indexed Koszul map,
    as sorted (a, b, multiplicity) triples for S_a(A) x S_b(B).

    Intersection (with minimum multiplicities) of the domain decomposition
    with the codomain decomposition.  No shape has more than n rows:
    `pieri_column` keeps only shapes that fit.
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
    in floats, one lgamma difference per run of consecutive factors (the
    contents down a column, the hooks down a column of equal rows)."""
    def ln_dim(pi):
        conj, out, i = conjugate(pi), 0.0, 0
        for r, run in groupby(pi):
            k = len(list(run))
            out -= fsum(lgamma(r - j + c - i) - lgamma(r - j + c - i - k)
                        for j, c in enumerate(conj[:r]))
            i += k
        return out + fsum(lgamma(N + j + 1) - lgamma(N + j - c + 1) for j, c in enumerate(conj))

    logs = [log10(m) + (ln_dim(a) + ln_dim(b)) / log(10) for a, b, m in modules]
    return (top := max(logs)) + log10(fsum(10 ** (x - top) for x in logs))


def theoretical_image_dim(n: int, d: int, p: int) -> int:
    """Dimension of the candidate image over n-dimensional spaces."""
    return total_dimension(candidate_image(n, d, p), n)
