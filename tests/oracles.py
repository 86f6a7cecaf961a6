"""Reference implementations the tests check the library against.

Whole-matrix builders, the all-columns weight grouping, brute-force
tableau enumeration, dense eliminations, the polynomials the tests build
as inputs and their JSON form, polynomial sums, scaling, differentiation
and contraction, and the highest weight vectors of the source paper's
lemmas with the check that their images are nonzero.  No certificate path uses them: the
library builds one weight block per kept weight and ranks it by sparse
elimination.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial, lcm

from flatrank import flattening
from flatrank.bounds import f_formula
from flatrank.flattening import FlatteningMatrix, MinorLabel, wedge_insert
from flatrank.partitions import (
    Partition,
    _decompose_wedge_tensor,
    candidate_image,
    conjugate,
    make_partition,
    theoretical_image_dim,
)
from flatrank.polynomials import Polynomial, sort_sign, var_index
from schur_flattening import (
    Tableau,
    _canonical,
    _fill_columns,
    _pieri_target,
    _straighten_sorted,
    pieri_arrangements,
    pieri_column_image,
    rows_to_columns,
)

Exponents = tuple[int, ...]


class LabelledMatrix(FlatteningMatrix):
    """A whole matrix that keeps its row labels, for the tests to read; the
    library's blocks keep only a row count."""

    def __init__(self, rows: list, cols: list, entries: list, kind: str):
        super().__init__(len(rows), cols, entries, kind)
        self.rows = rows


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
    terms: dict = {}
    for ea, ca in P.terms.items():
        for eb, cb in Q.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc = terms.get(e, 0) + ca * cb
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


def integral_multiple(P: Polynomial) -> Polynomial:
    """P times the lcm of its coefficients' denominators, with int
    coefficients, as `cli.load_polynomial` reads a `file:` polynomial; a
    nonzero multiple changes no rank."""
    m = lcm(*(c.denominator for c in P.terms.values()))
    return Polynomial(P.n, P.degree, {e: c.numerator * (m // c.denominator)
                                      for e, c in P.terms.items()})


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
    """The e-th power of a linear form, expanded with multinomial
    coefficients; int coefficients give an int polynomial."""
    if e < 1:
        raise ValueError("exponent must be at least 1")
    coeffs = list(coeffs)
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
    """Apply the linear change of variables x_k -> sum_l M[k][l] x_l; an
    int P and an int M give an int polynomial."""
    nv = P.n * P.n
    images = []
    for k in range(nv):
        terms = {
            tuple(1 if t == l else 0 for t in range(nv)): M[k][l]
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


def polynomial_json(P: Polynomial) -> str:
    """P in the JSON form `Polynomial.from_json` reads: a `file:` input."""
    records = [{"exps": list(e), "num": str(c.numerator), "den": str(c.denominator)}
               for e, c in sorted(P.terms.items())]
    return json.dumps({"n": P.n, "degree": P.degree, "terms": records})


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


def raise_weight(vec: dict, n: int, k: int, axis: int) -> dict:
    """E_{k,k+1} on rows (axis 0) or on columns (axis 1), 1 <= k < n,
    applied to a sparse vector over the minor-map domain labels (I, J, w)
    as a derivation: in I (or J), k+1 becomes k when k is absent, with no
    sign as k and k+1 are adjacent; each wedge variable x_{k+1,j} (or
    x_{i,k+1}) becomes x_{k,j} (or x_{i,k}), re-sorted with its sign, and a
    repeated variable gives 0.  A highest-weight vector is sent to 0 by
    every such operator."""
    out: dict = {}

    def put(label, coeff):
        out[label] = out.get(label, 0) + coeff

    for (I, J, w), coeff in vec.items():
        S = (I, J)[axis]
        if k + 1 in S and k not in S:
            S = tuple(k if s == k + 1 else s for s in S)
            put((S, J, w) if axis == 0 else (I, S, w), coeff)
        for pos, x in enumerate(w):
            rc = list(var_pos(x, n))
            if rc[axis] == k + 1:
                rc[axis] = k
                if canon := sort_sign(w[:pos] + (var_index(*rc, n),) + w[pos + 1:]):
                    put((I, J, canon[1]), canon[0] * coeff)
    return {label: c for label, c in out.items() if c}


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


def minor_columns_by_scan(n: int, p: int, wa, wb) -> list:
    """The reference for `flattening._minor_columns`: the columns (I, J, w)
    of the minor map at weight (wa, wb), found by scanning every p-subset w
    of the cells (i, j) with wa[i] and wb[j] nonzero, in wedge order, and
    keeping those whose remainders I = wa - rows(w), J = wb - cols(w) are
    0/1 vectors."""
    cells = [i * n + j for i in range(n) if wa[i] for j in range(n) if wb[j]]
    out = []
    for w in combinations(cells, p):
        rest_a, rest_b = list(wa), list(wb)
        for x in w:
            rest_a[x // n] -= 1
            rest_b[x % n] -= 1
        if {*rest_a, *rest_b} <= {0, 1}:
            out.append((tuple(i + 1 for i, v in enumerate(rest_a) if v),
                        tuple(j + 1 for j, v in enumerate(rest_b) if v), w))
    return out


def minor_koszul_matrix(n: int, d: int, p: int) -> LabelledMatrix:
    """Matrix of the minor-indexed Koszul map for the n x n determinant.

    Raises if an entry joins labels of different weights: the orbit blocks
    of `minor_orbit_blocks` rest on that grading."""
    candidate_image(n, d, p)  # refuses a bad (d, p)
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
    return LabelledMatrix(rows, cols, entries, "minor")


# ---------------------------------------------------------------------------
# highest weight vectors of the source paper's lemmas

P1_LEMMAS = ("p1_21", "p1_1s")
P2_LEMMAS = ("p2_a", "p2_b", "p2_c", "p2_d", "p2_e", "p2_f")
ALL_LEMMAS = P1_LEMMAS + P2_LEMMAS


def lemma_shapes(lemma_id: str, n: int, d: int):
    """(A-shape, B-shape) of the irreducible module the vector generates."""
    m = n - d
    shapes = {
        "p1_21": ((2,) + (1,) * (m - 1), (2,) + (1,) * (m - 1)),
        "p1_1s": ((2,) + (1,) * (m - 1), (1,) * (m + 1)),
        "p2_a": ((3,) + (1,) * (m - 1), (1,) * (m + 2)),
        "p2_b": ((3,) + (1,) * (m - 1), (2,) + (1,) * m),
        "p2_c": ((3,) + (1,) * (m - 1), (2, 2) + (1,) * (m - 2)),
        "p2_d": ((2,) + (1,) * m, (2,) + (1,) * m),
        "p2_e": ((2, 2) + (1,) * (m - 2), (2,) + (1,) * m),
        "p2_f": ((2,) + (1,) * m, (2, 2) + (1,) * (m - 2)),
    }
    if lemma_id not in shapes:
        raise ValueError(f"unknown lemma id {lemma_id!r}")
    return shapes[lemma_id]


def hwv_vector(lemma_id: str, n: int, d: int) -> dict[MinorLabel, int]:
    """The displayed highest-weight-vector projection, in the domain basis
    of the minor-indexed map.  The shape-fit check also guarantees the
    m + 1 or m + 2 rows and columns a lemma's vector spans."""
    m = n - d
    if m < 2 or d < 1:
        raise ValueError(f"need n-d >= 2 and d >= 1, got n={n}, d={d}")
    sa, sb = lemma_shapes(lemma_id, n, d)
    if len(sa) > n or len(sb) > n:
        raise ValueError(
            f"shape pair {sa} x {sb} does not fit in dimension {n}"
        )
    full = tuple(range(1, m + 1))
    vec: dict[MinorLabel, int] = {}

    def add(I, J, wvars, coeff):
        canon = sort_sign(list(wvars))
        if canon is None:
            return
        sign, w = canon
        key = (tuple(I), tuple(J), w)
        vec[key] = vec.get(key, 0) + sign * coeff
        if vec[key] == 0:
            del vec[key]

    X = lambda i, j: var_index(i, j, n)

    if lemma_id == "p1_21":
        add(full, full, [X(1, 1)], 1)
    elif lemma_id == "p1_1s":
        for j in range(1, m + 2):
            J = tuple(x for x in range(1, m + 2) if x != j)
            add(full, J, [X(1, j)], -1 if j % 2 else 1)
    elif lemma_id == "p2_a":
        for i in range(1, m + 3):
            for j in range(i + 1, m + 3):
                J = tuple(x for x in range(1, m + 3) if x not in (i, j))
                add(full, J, [X(1, i), X(1, j)], -1 if (i + j) % 2 else 1)
    elif lemma_id == "p2_b":
        for i in range(2, m + 2):
            J = tuple(x for x in range(1, m + 2) if x != i)
            add(full, J, [X(1, 1), X(1, i)], -1 if i % 2 else 1)
    elif lemma_id == "p2_c":
        add(full, full, [X(1, 1), X(1, 2)], 1)
    elif lemma_id == "p2_d":
        ext = tuple(range(1, m + 2))
        for i in range(1, m + 2):
            I = tuple(x for x in ext if x != i)
            for j in range(2, m + 2):
                J = tuple(x for x in ext if x != j)
                sign = -1 if (i + j) % 2 else 1
                add(I, J, [X(1, 1), X(i, j)], sign)
                add(I, J, [X(i, 1), X(1, j)], sign)
    elif lemma_id in ("p2_e", "p2_f"):
        for i in range(1, m + 2):
            J = tuple(x for x in range(1, m + 2) if x != i)
            sign = -1 if i % 2 else 1
            if lemma_id == "p2_e":
                add(full, J, [X(1, 1), X(2, i)], sign)
                add(full, J, [X(1, i), X(2, 1)], sign)
            else:  # mirror: swap the roles of rows and columns
                add(J, full, [X(1, 1), X(i, 2)], sign)
                add(J, full, [X(i, 1), X(1, 2)], sign)
    return vec


def apply_minor_map(n: int, vec: dict[MinorLabel, int]) -> dict[MinorLabel, int]:
    """Apply the minor-indexed map to a sparse domain vector without
    materializing the matrix (shares the per-column image generator)."""
    out: dict[MinorLabel, int] = {}
    for label, coeff in vec.items():
        for rlabel, sign in flattening.minor_column_image(n, label):
            acc = out.get(rlabel, 0) + coeff * sign
            if acc:
                out[rlabel] = acc
            else:
                out.pop(rlabel, None)
    return out


def verify_hwv_nonzero(lemma_id: str, n: int, d: int):
    """Check that the image of the lemma's highest weight vector is nonzero.

    Returns (nonzero, witness) where witness is the smallest codomain basis
    label carrying a nonzero coefficient (None if the image vanishes).
    """
    vec = hwv_vector(lemma_id, n, d)
    image = apply_minor_map(n, vec)
    if not image:
        return False, None
    return True, min(image)


# ---------------------------------------------------------------------------
# full Koszul map

def monomials_of_degree(nv: int, d: int) -> list[Exponents]:
    """Every exponent vector of degree d in nv variables, in decreasing
    order."""
    out = []
    for combo in combinations_with_replacement(range(nv), d):
        exps = [0] * nv
        for k in combo:
            exps[k] += 1
        out.append(tuple(exps))
    return out


def full_domain_basis(P: Polynomial, d: int, p: int) -> list:
    """Columns of the full Koszul map: (p-wedge, dual monomial of degree d),
    w-major, every dual monomial kept, enumerated here rather than by the
    library it checks."""
    nv = P.n * P.n
    if not 1 <= d <= P.degree - 1:
        raise ValueError(f"need 1 <= d <= degree-1, got d={d}, degree={P.degree}")
    if not 0 <= p <= nv - 1:
        raise ValueError(f"need 0 <= p <= {nv - 1}, got p={p}")
    return [(w, a) for w in combinations(range(nv), p) for a in monomials_of_degree(nv, d)]


def _partial_terms(terms: dict, k: int) -> dict:
    """The bare partial derivative by variable k of a term dict, its terms
    in the same order."""
    out = {}
    for exps, coeff in terms.items():
        if e := exps[k]:
            out[exps[:k] + (e - 1,) + exps[k + 1:]] = coeff * e
    return out


def full_column_image_by_partials(P: Polynomial, label, derivs: dict) -> list:
    """Image of the column (w, a) of the full Koszul map: the sum over
    variables x of (x wedge w) tensor d(d^a P)/dx, d^a the bare derivative,
    taken as a chain of partial derivatives of every term of P.  `derivs`
    caches, per dual monomial, the (x, terms) pairs of the nonzero
    derivatives of d^a P.  Row labels are (wedge, exponent vector)."""
    w, a = label
    if a not in derivs:
        Q = P.terms
        for k, e in enumerate(a):
            for _ in range(e):
                Q = _partial_terms(Q, k)
        derivs[a] = [(x, D) for x in range(len(a)) if (D := _partial_terms(Q, x))]
    out = []
    for x, terms in derivs[a]:
        if ins := wedge_insert(w, x):
            sign, neww = ins
            out.extend(((neww, mono), sign * coeff) for mono, coeff in terms.items())
    return out


def full_koszul_matrix(P: Polynomial, d: int, p: int) -> LabelledMatrix:
    """Matrix of the Koszul flattening of an arbitrary polynomial, taken
    with int coefficients (`integral_multiple`), with a column for every
    dual monomial.

    Columns are (wedge of p variables, dual monomial of degree d); rows are
    (wedge of p+1 variables, monomial of degree e-d-1); see
    `full_column_image_by_partials`.
    """
    P = integral_multiple(P)
    cols = full_domain_basis(P, d, p)
    nv = P.n * P.n
    row_monos = monomials_of_degree(nv, P.degree - d - 1)
    rows = [(w, m) for w in combinations(range(nv), p + 1) for m in row_monos]
    row_index = {label: i for i, label in enumerate(rows)}
    derivs: dict = {}
    entries = [(row_index[rlabel], ci, v)
               for ci, label in enumerate(cols)
               for rlabel, v in full_column_image_by_partials(P, label, derivs)]
    return LabelledMatrix(rows, cols, entries, "full")


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
                            N: int) -> LabelledMatrix:
    """Young flattening of phi in the semistandard tableau basis, phi taken
    with int coefficients (`integral_multiple`).

    Columns are semistandard tableaux of `shape`; rows are tableaux of the
    shape with one box appended to each listed target row; the column of T
    is `pieri_column_image`.
    """
    phi = integral_multiple(phi)
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
    return LabelledMatrix(row_tabs, col_tabs, entries, "pieri")


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
