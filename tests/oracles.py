"""Reference implementations the tests check the library against.

Whole-matrix builders, the all-columns weight grouping, brute-force
tableau enumeration, dense eliminations, the polynomials the tests build
as inputs, and polynomial sums, scaling, differentiation and
contraction.  No certificate path uses them: the library builds one
weight block per kept weight and ranks it by sparse elimination.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, lcm

from flatrank import flattening
from flatrank.bounds import f_formula
from flatrank.exact_linalg import DEFAULT_MEMORY_CAP_BYTES
from flatrank.flattening import FlatteningMatrix, full_column_image, monomials_of_degree
from flatrank.partitions import (
    Partition,
    _decompose_wedge_tensor,
    conjugate,
    make_partition,
    theoretical_image_dim,
)
from flatrank.polynomials import Exponents, Polynomial, sort_sign, var_index
from flatrank.schur_flattening import (
    Tableau,
    _canonical,
    _fill_columns,
    _pieri_target,
    _straighten_sorted,
    pieri_arrangements,
    pieri_column_image,
    rows_to_columns,
)


def group_by_weight(cols, weight_of) -> dict:
    """The columns grouped by weight: weights in the order of their first
    column, each group's columns in basis order."""
    groups: dict = {}
    for label in cols:
        groups.setdefault(weight_of(label), []).append(label)
    return groups


# ---------------------------------------------------------------------------
# test polynomials

def poly_mul(P: Polynomial, Q: Polynomial) -> Polynomial:
    """The product of two polynomials in the same variables."""
    if P.n != Q.n:
        raise ValueError("incompatible polynomials")
    terms: dict[Exponents, Fraction] = {}
    for ea, ca in P.terms.items():
        for eb, cb in Q.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc = terms.get(e, Fraction(0)) + ca * cb
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
    return Polynomial(P.n, P.degree + Q.degree, terms)


def monomial(n: int, degree: int, exps: Exponents, coeff=1) -> Polynomial:
    return Polynomial(n, degree, {exps: coeff})


def add(P: Polynomial, Q: Polynomial) -> Polynomial:
    """P + Q."""
    if P.n != Q.n or P.degree != Q.degree:
        raise ValueError("incompatible polynomials")
    terms = dict(P.terms)
    for exps, c in Q.terms.items():
        acc = terms.get(exps, 0) + c
        if acc:
            terms[exps] = acc
        else:
            terms.pop(exps, None)
    return Polynomial(P.n, P.degree, terms)


def scale(P: Polynomial, c) -> Polynomial:
    """c times P, coefficients as Fractions."""
    c = Fraction(c)
    if c == 0:
        return Polynomial(P.n, P.degree, {})
    return Polynomial(P.n, P.degree, {e: c * v for e, v in P.terms.items()})


def partial(P: Polynomial, k: int) -> Polynomial:
    """Bare partial derivative with respect to variable index k."""
    if P.degree == 0:
        return Polynomial(P.n, 0, {})
    terms = {}
    for exps, coeff in P.terms.items():
        if exps[k]:
            e = list(exps)
            e[k] -= 1
            terms[tuple(e)] = coeff * exps[k]
    return Polynomial(P.n, P.degree - 1, terms)


def contract(alpha: Polynomial, P: Polynomial) -> Polynomial:
    """Apolarity contraction: each dual monomial acts as the corresponding
    iterated bare partial derivative (no factorial normalization)."""
    if alpha.n != P.n:
        raise ValueError("incompatible polynomials")
    if alpha.degree > P.degree:
        raise ValueError(
            f"dual degree {alpha.degree} exceeds polynomial degree {P.degree}"
        )
    out = Polynomial(P.n, P.degree - alpha.degree, {})
    for exps, coeff in alpha.terms.items():
        Q = P
        for k, e in enumerate(exps):
            for _ in range(e):
                Q = partial(Q, k)
        out = add(out, scale(Q, coeff))
    return out


def evaluate(P: Polynomial, values) -> Fraction:
    """P at a flat sequence of n*n rational values."""
    total = Fraction(0)
    for exps, coeff in P.terms.items():
        prod = coeff
        for k, e in enumerate(exps):
            if e:
                prod *= Fraction(values[k]) ** e
        total += prod
    return total


def linear_form_power(coeffs, e: int, n: int) -> Polynomial:
    """The e-th power of a linear form, expanded with multinomial coefficients."""
    if e < 1:
        raise ValueError("exponent must be at least 1")
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) != n * n:
        raise ValueError(f"expected {n * n} coefficients, got {len(coeffs)}")
    if all(c == 0 for c in coeffs):
        raise ValueError("zero linear form")
    linear = Polynomial(
        n, 1, {
            tuple(1 if k == i else 0 for k in range(n * n)): c
            for i, c in enumerate(coeffs) if c
        },
    )
    out = linear
    for _ in range(e - 1):
        out = poly_mul(out, linear)
    return out


def substitute_linear(P: Polynomial, M) -> Polynomial:
    """Apply the linear change of variables x_k -> sum_l M[k][l] x_l."""
    nv = P.n * P.n
    images = []
    for k in range(nv):
        terms = {
            tuple(1 if t == l else 0 for t in range(nv)): Fraction(M[k][l])
            for l in range(nv) if M[k][l]
        }
        images.append(Polynomial(P.n, 1, terms))
    out = Polynomial(P.n, P.degree, {})
    for exps, coeff in P.terms.items():
        prod = Polynomial(P.n, 0, {tuple([0] * nv): coeff})
        for k, e in enumerate(exps):
            for _ in range(e):
                prod = poly_mul(prod, images[k])
        out = add(out, prod)
    return out


def substitute_row_column(P: Polynomial, A, B) -> Polynomial:
    """P(A X B): the change of variables X -> A X B of the n x n variable
    matrix X, A and B given as n x n lists of rows."""
    n = P.n
    M = [[0] * (n * n) for _ in range(n * n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    M[var_index(i, j, n)][var_index(k, l, n)] = A[i - 1][k - 1] * B[l - 1][j - 1]
    return substitute_linear(P, M)


def minor_poly(n: int, I, J) -> Polynomial:
    """The |I| x |I| minor of the generic matrix on rows I and columns J (1-based)."""
    I, J = tuple(I), tuple(J)
    if len(I) != len(J):
        raise ValueError("row and column sets must have equal size")
    k = len(I)
    if k == 0:
        return Polynomial(n, 0, {tuple([0] * (n * n)): Fraction(1)})
    terms = {}
    for perm in permutations(range(k)):
        sign = sort_sign(perm)[0]
        exps = [0] * (n * n)
        for a in range(k):
            exps[var_index(I[a], J[perm[a]], n)] += 1
        terms[tuple(exps)] = Fraction(sign)
    return Polynomial(n, k, terms)


def random_low_rank(r: int, e: int, n: int, seed: int) -> Polynomial:
    """Sum of r e-th powers of pseudorandom small-integer linear forms."""
    if r < 1 or e < 1:
        raise ValueError("r and e must be at least 1")
    rng = random.Random(seed)
    out = Polynomial(n, e, {})
    for _ in range(r):
        while True:
            coeffs = [rng.randint(-3, 3) for _ in range(n * n)]
            if any(coeffs):
                break
        out = add(out, linear_form_power(coeffs, e, n))
    return out


# ---------------------------------------------------------------------------
# minor-indexed map

def var_pos(k: int, n: int) -> tuple[int, int]:
    """Inverse of var_index: (row, col), 1-based."""
    return k // n + 1, k % n + 1


def bidegree_of_label(label, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(A-weight, B-weight) of a minor-map basis label."""
    I, J, w = label
    wa, wb = [0] * n, [0] * n
    for i in I:
        wa[i - 1] += 1
    for j in J:
        wb[j - 1] += 1
    for x in w:
        r, c = var_pos(x, n)
        wa[r - 1] += 1
        wb[c - 1] += 1
    return tuple(wa), tuple(wb)


def minor_domain_basis(n: int, d: int, p: int) -> list:
    nv = n * n
    subs = list(combinations(range(1, n + 1), n - d))
    wedges = list(combinations(range(nv), p))
    return [(I, J, w) for I in subs for J in subs for w in wedges]


def minor_codomain_basis(n: int, d: int, p: int) -> list:
    nv = n * n
    subs = list(combinations(range(1, n + 1), n - d - 1))
    wedges = list(combinations(range(nv), p + 1))
    return [(I, J, w) for I in subs for J in subs for w in wedges]


def minor_koszul_matrix(n: int, d: int, p: int) -> FlatteningMatrix:
    """Matrix of the minor-indexed Koszul map for the n x n determinant.

    Raises if an entry joins labels of different weights: the orbit blocks
    of `minor_orbit_blocks` rest on that grading."""
    flattening._check_minor_args(n, d, p)
    cols = minor_domain_basis(n, d, p)
    rows = minor_codomain_basis(n, d, p)
    row_index = {label: i for i, label in enumerate(rows)}
    entries = []
    for ci, label in enumerate(cols):
        weight = bidegree_of_label(label, n)
        for rlabel, coeff in flattening.minor_column_image(n, label):
            if bidegree_of_label(rlabel, n) != weight:
                raise RuntimeError(f"minor map sends {label} to {rlabel}, of another weight")
            entries.append((row_index[rlabel], ci, coeff))
    return FlatteningMatrix(rows, cols, entries, "minor")


# ---------------------------------------------------------------------------
# full Koszul map

def full_domain_basis(P: Polynomial, d: int, p: int) -> list:
    """Columns of the full Koszul map: (p-wedge, dual monomial of degree d)."""
    wedges, duals = flattening._full_domain_factors(P, d, p, DEFAULT_MEMORY_CAP_BYTES)
    return [(w, a) for w in wedges for a in duals]


def full_koszul_matrix(P: Polynomial, d: int, p: int) -> FlatteningMatrix:
    """Matrix of the Koszul flattening of an arbitrary polynomial.

    Columns are (wedge of p variables, dual monomial of degree d); rows are
    (wedge of p+1 variables, monomial of degree e-d-1); see
    `full_column_image`.
    """
    cols = full_domain_basis(P, d, p)
    nv = P.n * P.n
    row_monos = monomials_of_degree(nv, P.degree - d - 1)
    rows = [(w, m) for w in combinations(range(nv), p + 1) for m in row_monos]
    row_index = {label: i for i, label in enumerate(rows)}
    derivs: dict = {}
    entries = [(row_index[rlabel], ci, v)
               for ci, label in enumerate(cols)
               for rlabel, v in full_column_image(P, label, derivs)]
    return FlatteningMatrix(rows, cols, entries, "full")


# ---------------------------------------------------------------------------
# modules

def decompose_wedge_product(n: int, d: int, p: int) -> tuple:
    """Full decomposition of the domain of the minor-indexed Koszul map, as
    sorted (a, b, multiplicity) triples."""
    if not 0 < d < n:
        raise ValueError(f"need 0 < d < n, got d={d}, n={n}")
    if p < 0:
        raise ValueError(f"need p >= 0, got {p}")
    return tuple(sorted((a, b, m) for (a, b), m in _decompose_wedge_tensor(n - d, p, n).items()))


def theoretical_matches_f(n: int, d: int) -> bool:
    """The candidate image dimension equals the paper's f(n, d) * C(n, d)^2."""
    return f_formula(n, d) * comb(n, d) ** 2 == theoretical_image_dim(n, d, 2)


# ---------------------------------------------------------------------------
# tableaux and the Pieri map

def ssyt_by_content(shape: Partition, content) -> list[Tableau]:
    """The library's enumerator `_fill_columns` for a shape given by its
    rows: the semistandard tableaux with content[v - 1] entries equal to v."""
    return _fill_columns(conjugate(make_partition(shape)), content)


def tableau_shape(t: Tableau) -> Partition:
    return make_partition(len(row) for row in t)


def is_semistandard(t: Tableau) -> bool:
    for r, row in enumerate(t):
        for c in range(len(row)):
            if c + 1 < len(row) and row[c] > row[c + 1]:
                return False
            if r + 1 < len(t) and c < len(t[r + 1]) and t[r + 1][c] <= row[c]:
                return False
    return True


def straighten(filling: Tableau) -> dict[Tableau, Fraction]:
    """Express an arbitrary filling in the semistandard basis.

    Rules: a column with a repeated entry is zero; sorting a column
    contributes the sign of the sorting permutation; a row violation is
    resolved by the Garnir shuffle relation on the two columns involved.
    """
    canon = _canonical(rows_to_columns(filling))
    if canon is None:
        return {}
    sign, cols = canon
    return {
        tab: Fraction(sign * coeff)
        for tab, coeff in _straighten_sorted(cols).items()
    }


def ssyt_enumerate(shape: Partition, N: int) -> list[Tableau]:
    """All semistandard tableaux of the shape with entries in 1..N,
    ordered lexicographically by row-reading word."""
    shape = make_partition(shape)
    cells = [(r, c) for r, part in enumerate(shape) for c in range(part)]
    out: list[Tableau] = []
    rows = [[0] * part for part in shape]

    def fill(idx: int):
        if idx == len(cells):
            out.append(tuple(tuple(row) for row in rows))
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, N + 1):
            rows[r][c] = v
            fill(idx + 1)
        rows[r][c] = 0

    fill(0)
    return out


def kostka_number(shape: Partition, content) -> int:
    """Number of semistandard tableaux of the shape with given content
    (content[i] copies of i+1), by brute force."""
    shape = make_partition(shape)
    N = len(content)
    return sum(
        1
        for t in ssyt_enumerate(shape, N)
        if all(
            sum(row.count(i + 1) for row in t) == content[i] for i in range(N)
        )
    )


def pieri_flattening_matrix(phi: Polynomial, shape: Partition, target_rows,
                            N: int) -> FlatteningMatrix:
    """Young flattening of phi in the semistandard tableau basis.

    Columns are semistandard tableaux of `shape`; rows are tableaux of the
    shape with one box appended to each listed target row; the column of T
    is `pieri_column_image`.
    """
    shape = make_partition(shape)
    target = _pieri_target(phi, shape, target_rows)
    arrangements = pieri_arrangements(phi)
    col_tabs = ssyt_enumerate(shape, N)
    row_tabs = ssyt_enumerate(target, N)
    row_index = {t: i for i, t in enumerate(row_tabs)}
    entries = [(row_index[tab], ci, v)
               for ci, T in enumerate(col_tabs)
               for tab, v in pieri_column_image(arrangements, T, target_rows)]
    entries.sort(key=lambda e: (e[1], e[0]))
    return FlatteningMatrix(row_tabs, col_tabs, entries, "pieri")


def pieri_column_image_by_straightening(phi: Polynomial, T: Tableau, target_rows) -> list:
    """`pieri_column_image` of phi as defined: every arrangement of each
    monomial's variables is written into a copy of T's rows and the whole
    filling is straightened, with the monomial's coefficient times the
    product of the factorials of its exponents."""
    rows_sorted = sorted(target_rows)
    extra = max(rows_sorted, default=0) - len(T)
    acc: dict = {}
    for exps, coeff in sorted(phi.terms.items()):
        for e in exps:
            coeff *= factorial(e)
        labels = [k + 1 for k, e in enumerate(exps) for _ in range(e)]
        for arrangement in sorted(set(permutations(labels))):
            fill_rows = [list(row) for row in T] + [[] for _ in range(extra)]
            for r, label in zip(rows_sorted, arrangement):
                fill_rows[r - 1].append(label)
            for tab, c in straighten(tuple(tuple(r) for r in fill_rows)).items():
                total = acc.get(tab, 0) + coeff * c
                if total:
                    acc[tab] = total
                else:
                    acc.pop(tab, None)
    return list(acc.items())


# ---------------------------------------------------------------------------
# dense eliminations

def dense_rank_bareiss(mat) -> int:
    """Rank of a dense matrix by fraction-free Bareiss elimination.

    Accepts rows of ints or Fractions; each row is scaled to clear
    denominators first (rank invariant).
    """
    m = []
    for row in mat:
        row = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in row)) if row else 1
        m.append([int(x * mult) for x in row])
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    active_cols = list(range(ncols))
    prev = 1
    rank = 0
    r = 0
    while r < nrows and active_cols:
        # first nonzero scanning active columns left to right, rows top down
        found = None
        for ci, c in enumerate(active_cols):
            for i in range(r, nrows):
                if m[i][c]:
                    found = (i, ci)
                    break
            if found:
                break
        if not found:
            break
        i, ci = found
        m[r], m[i] = m[i], m[r]
        active_cols[0], active_cols[ci] = active_cols[ci], active_cols[0]
        pc = active_cols[0]
        piv = m[r][pc]
        for i in range(r + 1, nrows):
            mic = m[i][pc]
            mrow = m[r]
            irow = m[i]
            for c in active_cols[1:]:
                irow[c] = (irow[c] * piv - mic * mrow[c]) // prev
            irow[pc] = 0
        prev = piv
        active_cols = active_cols[1:]
        rank += 1
        r += 1
    return rank


def dense_rank_mod_p(a, p: int) -> int:
    """Rank of an integer matrix mod p by vectorized dense elimination.

    p must fit in 31 bits so products stay inside int64.
    """
    import numpy as np

    if p.bit_length() > 31:
        raise ValueError("prime too large for int64 products")
    a = np.ascontiguousarray(np.asarray(a, dtype=np.int64) % p)
    nrows, ncols = a.shape
    rank = 0
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv_row = row + int(nz[0])
        if piv_row != row:
            a[[row, piv_row]] = a[[piv_row, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row, col:] = a[row, col:] * inv % p
        below = a[row + 1:, col]
        mask = below != 0
        if mask.any():
            a[row + 1:, col:][mask] = (
                a[row + 1:, col:][mask] - below[mask, None] * a[row, col:][None, :]
            ) % p
        rank += 1
        row += 1
    return rank
