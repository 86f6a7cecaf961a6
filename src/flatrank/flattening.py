"""Sparse matrices of the Koszul flattening maps, one torus-weight block
at a time.

Two constructions are provided: the full map for an arbitrary polynomial
(wedge factor tensored with a catalecticant), and the minor-indexed maps
for the determinant, whose domain basis is (row set, column set, wedge of
variables).  Wedge basis elements are strictly increasing tuples of flat
variable indices; insertion signs count how many present variables precede
the inserted one.

Each map is given per column (`minor_column_image`, `full_column_image`).
Each construction enumerates only the columns of the weights it keeps,
grouped by weight, and `weight_blocks` builds one block per kept weight,
its rows in the order its columns first reach them: one block per
symmetry orbit for a symmetric polynomial.  No whole matrix is built.
The minor map is certified from fewer blocks still: those at the highest
weights of its candidate image modules (`highest_weight_blocks`), whose
ranks give the modules' multiplicities (`image_modules`).  The minor map
needs no polynomial, so only the code of the other maps imports
`polynomials`.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import chain, combinations, combinations_with_replacement
from math import comb, factorial
from operator import ge, sub

from .exact_linalg import DEFAULT_MEMORY_CAP_BYTES, sha256

Wedge = tuple[int, ...]
MinorLabel = tuple[tuple[int, ...], tuple[int, ...], Wedge]
# build memory charged per p-wedge: the full map lists every wedge, and the
# minor map, which lists each weight's cells only, peaks below the charge
# (p=2: max RSS 280 MiB against 487 MiB at n=40, 564 MiB against 1012 MiB at n=48)
_BYTES_PER_WEDGE = 400
# per dual monomial of the full map, beyond its tuple's 8 bytes per variable
# (traced peaks of the dual list and its weight classes: 232, 384 and 680
# bytes per dual at (n, d) = (3, 4), (5, 3) and (8, 3))
_BYTES_PER_DUAL = 200


def wedge_insert(w: Wedge, x: int) -> tuple[int, Wedge] | None:
    """Insert variable x into the increasing wedge w.

    Returns (sign, new wedge) or None if x is already present."""
    pos = bisect_left(w, x)
    if pos < len(w) and w[pos] == x:
        return None
    return (-1 if pos % 2 else 1), w[:pos] + (x,) + w[pos:]


class FlatteningMatrix:
    """A sparse matrix with labelled rows and columns; `entries` holds
    (row index, col index, coefficient) triples, and `weight` is the torus
    weight of a weight block's columns."""

    def __init__(self, rows: list, cols: list, entries: list, kind: str,
                 weight: tuple | None = None):
        self.rows, self.cols, self.entries = rows, cols, entries
        self.kind, self.weight = kind, weight
        self._hash: str | None = None

    def basis_hash(self) -> str:
        """Hash of the kind, the row and column labels and the entries,
        streamed into sha256 one item at a time."""
        if self._hash is None:
            h = sha256()
            h.update(f"{self.kind!r};{len(self.rows)}x{len(self.cols)};".encode())
            for label in chain(self.rows, self.cols):
                h.update(f"{label!r};".encode())
            for r, c, v in self.entries:
                h.update(f"{r},{c},{v.numerator}/{v.denominator};".encode())
            self._hash = h.hexdigest()[:16]
        return self._hash


def minor_column_image(n: int, label: MinorLabel) -> list[tuple[MinorLabel, int]]:
    """Image of one domain basis element of the minor-indexed map.

    The sign for (i, j) in I x J is (-1) to the sum of the positions of i
    in I and j in J (Laplace-expansion signs), times the wedge insertion
    sign.
    """
    I, J, w = label
    out = []
    for a, i in enumerate(I):
        rest_I = I[:a] + I[a + 1:]
        for b, j in enumerate(J):
            if ins := wedge_insert(w, (i - 1) * n + j - 1):
                wsign, neww = ins
                out.append(((rest_I, J[:b] + J[b + 1:], neww), -wsign if (a + b) % 2 else wsign))
    return out


def _check_wedge_count(name: str, n: int, p: int, memory_cap_bytes: int) -> None:
    """Reject a request whose list of p-wedges of the n*n variables alone
    would not fit in the memory cap, before anything is enumerated."""
    wedges = comb(n * n, p)
    if wedges * _BYTES_PER_WEDGE > memory_cap_bytes:
        raise ValueError(
            f"the {name} map at n={n}, p={p} enumerates {wedges} wedges, about "
            f"{wedges * _BYTES_PER_WEDGE >> 20} MiB, over the memory cap of "
            f"{memory_cap_bytes >> 20} MiB"
        )


def _check_minor_args(n: int, d: int, p: int,
                      memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES) -> None:
    """Reject a bad request to the minor map, or an oversized one
    (`_check_wedge_count`), before anything is enumerated."""
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got d={d}, n={n}")
    _check_wedge_count("minor", n, p, memory_cap_bytes)


def _arrangements(weight: tuple[int, ...]) -> int:
    """Number of distinct rearrangements of a weight vector."""
    out = factorial(len(weight))
    for k in set(weight):
        out //= factorial(weight.count(k))
    return out


def _decreasing(values) -> bool:
    w = tuple(values)
    return all(map(ge, w, w[1:]))


def _orbit_size(weight) -> int:
    """Size of the S_n x S_n x transpose orbit of a weight pair (wa, wb) if
    the pair is its orbit's representative -- both weights decreasing and
    wa <= wb -- and 0 otherwise."""
    wa, wb = weight
    if wb < wa or not (_decreasing(wa) and _decreasing(wb)):
        return 0
    return _arrangements(wa) * _arrangements(wb) * (1 if wa == wb else 2)


def weight_blocks(groups, column_image, kind: str):
    """Yield (orbit_size, block) for a flattening map given per column.

    `groups` holds (orbit_size, weight, columns) triples: the columns of
    one (A-weight, B-weight) under the torus of GL_n x GL_n, or every
    column with weight None; a group without columns is skipped.  A block
    carries `kind` and its weight, and its rows are the labels its columns
    reach through `column_image(label)`, a list of (row label, coefficient)
    pairs, in the order first met: `basis_hash` depends on it, rank does not.

    Soundness.  The Koszul and Pieri maps of a polynomial P are
    GL(V)-equivariant in (P, domain, codomain).  When every monomial of P
    has the same weight, a column of weight mu maps into codomain weight
    mu + wt(P), so the map is the direct sum of its weight blocks and the
    sum of their ranks is its rank.  A permutation g of the variables --
    rows, columns, or transposition -- with gP = +-P satisfies
    F o g = +-g o F and sends weight space mu onto g mu.  On monomial and
    wedge bases g acts by a signed permutation, and on a semistandard
    tableau basis by an integer matrix whose inverse (the action of g^-1)
    is also integral, so the blocks at mu and g mu have equal rank mod
    every prime and over Q.  The weight pairs in the orbit of a
    representative (wa, wb) are (sigma wa, tau wb) and, when wa != wb,
    (tau wb, sigma wa): perms(wa) * perms(wb) of them, doubled when
    wa != wb (`_orbit_size`).  So sum(orbit_size * rank(block)) over one
    block per orbit representative is the rank of the whole matrix.
    """
    for size, weight, group in groups:
        if not group:
            continue
        row_index: dict = {}
        entries = [(row_index.setdefault(rlabel, len(row_index)), ci, v)
                   for ci, label in enumerate(group) for rlabel, v in column_image(label)]
        yield size, FlatteningMatrix(list(row_index), group, entries, kind, weight)


def polynomial_blocks(P, column_groups, column_image, kind: str):
    """`weight_blocks` for a map built from P.

    `column_groups(size_of)` enumerates the map's columns: for each weight
    with size_of(weight) > 0, the triple (size_of(weight), weight, columns),
    columns in basis order and weights in the order of their first column;
    for size_of=None, the one triple (1, None, every column in basis
    order).  The choice is read off P: one block when P is not bigraded
    (its monomials have several weights), every weight with size 1 when it
    is, and only orbit representatives (`_orbit_size`) when P is also
    symmetric (fixed up to sign by row and column permutations and
    transposition)."""
    from .polynomials import is_bigraded, is_symmetric

    if not is_bigraded(P):
        size_of = None
    elif is_symmetric(P):
        size_of = _orbit_size
    else:
        size_of = lambda weight: 1
    return weight_blocks(column_groups(size_of), column_image, kind)


def _minor_blocks(n: int, p: int, weights):
    """`weight_blocks` of the minor-indexed map at the given (size, (wa,
    wb)) pairs, in that order.

    A column's p-wedge w takes cells (i, j) with wa[i] and wb[j] nonzero,
    in increasing order, so in wedge order; its remainders I = wa - rows(w)
    and J = wb - cols(w) must be 0/1 vectors."""

    def columns(wa, wb):
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

    return weight_blocks(((size, (wa, wb), columns(wa, wb)) for size, (wa, wb) in weights),
                         lambda label: minor_column_image(n, label), "minor_block")


def minor_orbit_blocks(n: int, d: int, p: int):
    """Yield (orbit_size, block) for one weight block per symmetry orbit of
    the minor-indexed Koszul map; the whole matrix is never built.

    The map preserves the (A-weight, B-weight) torus grading: a label
    (I, J, w) has row weight I + rows(w) and column weight J + cols(w), and
    so does each label of its image.  So the map is the direct sum of its
    weight blocks.  A pair (sigma, tau) of row and column permutations of X
    sends det to +-det, and transposition fixes det; both send minors to
    signed minors and wedges to signed wedges, so blocks in one orbit have
    equal rank (the argument of `weight_blocks`).  Every weight pair is in
    the orbit of exactly one pair of dominant (decreasing) weights with
    wa <= wb, and only their columns are enumerated (`_minor_blocks`).

    `highest_weight_blocks` is the route `bound` certifies through; this
    one ranks every orbit and is its independent second route.
    """
    _check_minor_args(n, d, p)
    # the dominant weights: partitions of n - d + p with parts at most p + 1 and
    # at most n of them, zero-padded, largest first part first
    weights = [w for w in combinations_with_replacement(range(p + 1, -1, -1), n)
               if sum(w) == n - d + p]
    return _minor_blocks(n, p, [(_orbit_size((wa, wb)), (wa, wb))
                                for wa in weights for wb in weights if wa <= wb])


def _padded(shape, n: int) -> tuple[int, ...]:
    return tuple(shape) + (0,) * (n - len(shape))


def highest_weight_blocks(n: int, d: int, p: int,
                          memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES):
    """Yield (size, block) for the weight blocks of the minor-indexed map at
    the highest weights of the candidate image modules
    (`partitions.candidate_image`), zero-padded to n parts.

    Transposition sends the block at (wa, wb) onto the one at (wb, wa)
    with equal rank (`weight_blocks`), so one block is built per transpose
    pair, at the pair with wa <= wb; its size is the number of candidate
    weights it stands for, 2 for a pair of distinct weights and 1 otherwise.
    `image_modules` turns the blocks' ranks into the rank of the map.
    """
    from .partitions import candidate_image

    _check_minor_args(n, d, p, memory_cap_bytes)
    sizes: dict = {}
    for a, b, _ in candidate_image(n, d, p):
        wa, wb = _padded(a, n), _padded(b, n)
        sizes[min((wa, wb), (wb, wa))] = 1 if wa == wb else 2
    return _minor_blocks(n, p, [(size, weight) for weight, size in sizes.items()])


def check_module_prime(n: int, d: int, p: int, prime: int | None) -> None:
    """Reject a prime at most the degree n - d + p of the minor map's
    GL_n modules: `image_modules` is sound mod a larger prime only."""
    if prime is not None and prime <= n - d + p:
        raise ValueError(
            f"the prime {prime} is at most the degree {n - d + p} of the minor map's "
            f"modules; the highest-weight certificate needs a larger prime"
        )


def image_modules(n: int, d: int, p: int, ranks_by_weight: dict,
                  prime: int | None) -> tuple[int, list[tuple]]:
    """The rank of the minor-indexed map, mod `prime` or over Q for
    prime=None, from the ranks of its highest-weight blocks.

    `ranks_by_weight` maps the weight of each block of
    `highest_weight_blocks` to its rank.  Returns (rank, modules): modules lists (a, b, m,
    schur_max) for each candidate module S_a(A) x S_b(B), with m its
    multiplicity in the image and schur_max its candidate multiplicity, and
    rank = sum(m * dim S_a * dim S_b).

    The block at the weight (la, lb) has rank
        r(l) = sum over candidates v of m_v * K(va, la) * K(vb, lb),
    K the Kostka numbers (weight multiplicities), which vanish unless v
    dominates l on both sides and equal 1 at v = l.  Pair-lex order extends
    that dominance, so the m_l are solved in decreasing pair-lex order; a
    negative m_l, or one above its Schur maximum, is a RuntimeError.

    Soundness.  The map is GL_n x GL_n-equivariant and defined over Z.
    Over Q its image is a submodule of the codomain and a quotient of the
    domain, so by Schur's lemma it is a sum of the candidate modules, each
    at most schur_max times, and its weight spaces have the dimensions
    above.  Mod a prime above the degree m + p (m = n - d) of each GL_n
    factor, polynomial representations of that degree are semisimple and
    the Weyl modules are simple with the same characters (Green,
    *Polynomial Representations of GL_n*), so the same holds for the
    image mod p, whose rank is then the modular rank of the map.  The rank
    mod p is at most the rank over Q, so the bound is never overstated.
    A smaller prime is refused (`check_module_prime`).
    """
    from .partitions import candidate_image, kostka, schur_dim

    check_module_prime(n, d, p, prime)
    K = cache(kostka)  # few distinct shapes, each pair met many times
    solved = []
    candidates = sorted(candidate_image(n, d, p),
                        key=lambda e: (_padded(e[0], n), _padded(e[1], n)), reverse=True)
    for a, b, schur_max in candidates:
        wa, wb = _padded(a, n), _padded(b, n)
        m = ranks_by_weight[min((wa, wb), (wb, wa))] - sum(
            mv * K(va, a) * K(vb, b) for va, vb, mv, _ in solved)
        if not 0 <= m <= schur_max:
            raise RuntimeError(
                f"solved multiplicity {m} of {a} x {b} is outside 0..{schur_max}")
        solved.append((a, b, m, schur_max))
    rank = sum(m * schur_dim(a, n) * schur_dim(b, n) for a, b, m, _ in solved)
    return rank, solved


def monomials_of_degree(nv: int, d: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(nv), d):
        exps = [0] * nv
        for k in combo:
            exps[k] += 1
        out.append(tuple(exps))
    return out


def check_full_size(n: int, d: int, p: int, memory_cap_bytes: int) -> None:
    """Reject a bad p, or a full-map request whose p-wedges or dual monomials
    of degree d would not fit in the memory cap; it needs no polynomial."""
    nv = n * n
    if not 0 <= p <= nv - 1:
        raise ValueError(f"need 0 <= p <= {nv - 1}, got p={p}")
    _check_wedge_count("full", n, p, memory_cap_bytes)
    duals = comb(nv + d - 1, d) if d > 0 else 0
    if (need := duals * (8 * nv + _BYTES_PER_DUAL)) > memory_cap_bytes:
        raise ValueError(
            f"the full map at n={n}, d={d} enumerates {duals} dual monomials, about "
            f"{need >> 20} MiB, over the memory cap of {memory_cap_bytes >> 20} MiB"
        )


def _full_domain_factors(P, d: int, p: int,
                         memory_cap_bytes: int) -> tuple[list, list]:
    """The two factors of the full Koszul map's columns (w, a): the
    p-wedges w and the dual monomials a of degree d, each in basis order;
    the columns are every w with every a, w-major."""
    if not 1 <= d <= P.degree - 1:
        raise ValueError(f"need 1 <= d <= degree-1, got d={d}, degree={P.degree}")
    check_full_size(P.n, d, p, memory_cap_bytes)
    return list(combinations(range(P.n * P.n), p)), monomials_of_degree(P.n * P.n, d)


def _partial(terms: dict, k: int) -> dict:
    """The bare partial derivative by variable k of a polynomial's term
    dict, its terms in the same order."""
    out = {}
    for exps, coeff in terms.items():
        if e := exps[k]:
            out[exps[:k] + (e - 1,) + exps[k + 1:]] = coeff * e
    return out


def full_column_image(P, label, derivs: dict) -> list:
    """Image of the column (w, a) of the full Koszul map: the sum over
    variables x of (x wedge w) tensor d(d^a P)/dx, with the dual monomial a
    acting as the bare (non-divided) derivative d^a.  `derivs` caches, per
    dual monomial, the (x, terms) pairs of the nonzero derivatives of d^a P
    by the variables x.

    Distinct x give distinct wedges, so no two terms share a row label."""
    w, a = label
    if a not in derivs:
        Q = P.terms
        for k, e in enumerate(a):
            for _ in range(e):
                Q = _partial(Q, k)
        derivs[a] = [(x, D) for x in range(len(a)) if (D := _partial(Q, x))]
    out = []
    for x, terms in derivs[a]:
        ins = wedge_insert(w, x)
        if ins is None:
            continue
        sign, neww = ins
        out.extend(((neww, mono), sign * coeff) for mono, coeff in terms.items())
    return out


def _full_column_groups(P, d: int, p: int, size_of,
                        memory_cap_bytes: int) -> list:
    """The columns (w, a) of the full Koszul map grouped by their weight
    wt(w) - wt(a), as `polynomial_blocks` asks.

    Wedges and dual monomials are first grouped into classes of equal
    weight, and a weight is computed once per pair of classes: a kept
    weight takes every column of each class pair that gives it.  For a
    symmetric P a kept weight decreases on each axis, so a wedge class is
    paired only with the dual classes whose A-part and B-part both leave
    it decreasing, found per axis."""
    from .polynomials import exponent_variables, torus_weight

    wedges, duals = _full_domain_factors(P, d, p, memory_cap_bytes)
    if size_of is None:
        return [(1, None, [(w, a) for w in wedges for a in duals])]
    n = P.n
    dual_classes: dict = {}
    for a in duals:
        dual_classes.setdefault(torus_weight(exponent_variables(a), n), []).append(a)
    classes = list(dual_classes.items())
    if size_of is _orbit_size:
        by_da: dict = {}  # A-part -> indices of the dual classes with it
        for i, ((da, _), _) in enumerate(classes):
            by_da.setdefault(da, []).append(i)

        def pairable(wa, wb):
            return sorted(i for da, ids in by_da.items() if _decreasing(map(sub, wa, da))
                          for i in ids if _decreasing(map(sub, wb, classes[i][0][1])))
    else:
        pairable = lambda wa, wb: range(len(classes))
    kept: dict = {}  # wedge weight -> [(kept weight, its dual class)]
    groups: dict = {}
    for w in wedges:
        wa, wb = torus_weight(w, n)
        if (wa, wb) not in kept:
            kept[wa, wb] = [
                (weight, D) for (da, db), D in map(classes.__getitem__, pairable(wa, wb))
                if size_of(weight := (tuple(map(sub, wa, da)), tuple(map(sub, wb, db))))
            ]
        for weight, D in kept[wa, wb]:
            groups.setdefault(weight, []).extend((w, a) for a in D)
    return [(size_of(weight), weight, cols) for weight, cols in groups.items()]


def full_koszul_blocks(P, d: int, p: int,
                       memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES):
    """Yield (orbit_size, block) for the full Koszul map of P (see
    `weight_blocks` and `polynomial_blocks`); the whole matrix is never
    built, and only the columns of kept weights are enumerated.  A column
    (w, a) has weight wt(w) - wt(a)."""
    derivs: dict = {}
    return polynomial_blocks(
        P, lambda size_of: _full_column_groups(P, d, p, size_of, memory_cap_bytes),
        lambda label: full_column_image(P, label, derivs), "full_block")

