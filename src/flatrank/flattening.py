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
keeping a count of its rows but no row labels: one block per
symmetry orbit for a symmetric polynomial.  No whole matrix is built.
The minor map is certified from fewer blocks still, at the highest weights
of its candidate image modules, raising rows stacked under the map's
(`highest_weight_blocks`): each rank gives one module's multiplicity
(`image_modules`).  The minor map needs no polynomial, so only the code of
the other maps imports `polynomials`.
"""

from bisect import bisect_left
from itertools import combinations, permutations
from math import comb, factorial
from operator import ge, sub

from .exact_linalg import _BYTES_PER_ENTRY, DEFAULT_MEMORY_CAP_BYTES, sha256

Wedge = tuple[int, ...]
MinorLabel = tuple[tuple[int, ...], tuple[int, ...], Wedge]
# build memory charged per p-wedge of the full map, which lists every wedge
_BYTES_PER_WEDGE = 400
# the full map's charge (`check_full_map`), beyond 8 bytes per variable index:
# per term of P, per distinct dual, and per (dual, term) entry or derivative
# term.  With every dual's derivatives cached, it is 1.1-2.4 times the bytes
# traced for P and the full map's own structures at det and perm n=5..8 for
# every d, `power` and a dense quartic; tightest at d = n - 2 and n=3 `power`
_BYTES_PER_TERM = 300
_BYTES_PER_DUAL = 500
_BYTES_PER_ITEM = 110
# per column of the full map where it keeps every column, for the whole run
# (max RSS past start-up per column at (d, p) = (1, 2): 424, 433, 457 bytes at
# n = 8, 10, 12 for `power`; 835, 875, 862 for the one block of sum (k+1) x_k^12)
_BYTES_PER_COLUMN = 900


def wedge_insert(w: Wedge, x: int) -> tuple[int, Wedge] | None:
    """Insert variable x into the increasing wedge w.

    Returns (sign, new wedge) or None if x is already present."""
    pos = bisect_left(w, x)
    if pos < len(w) and w[pos] == x:
        return None
    return (-1 if pos % 2 else 1), w[:pos] + (x,) + w[pos:]


class FlatteningMatrix:
    """A sparse matrix with `nrows` rows and labelled columns; `entries`
    holds (row index, col index, coefficient) triples, and `weight` is the
    torus weight of a weight block's columns.  Rows keep no labels."""

    def __init__(self, nrows: int, cols: list, entries: list, kind: str,
                 weight: tuple | None = None):
        self.nrows, self.cols, self.entries = nrows, cols, entries
        self.kind, self.weight = kind, weight
        self._hash: str | None = None

    def basis_hash(self) -> str:
        """Hash of the kind, the shape, the column labels and the entries,
        streamed into sha256 one item at a time; the row labels follow from
        the column labels and the map."""
        if self._hash is None:
            h = sha256()
            h.update(f"{self.kind!r};{self.nrows}x{len(self.cols)};".encode())
            for label in self.cols:
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


def minor_raisings(n: int, label: MinorLabel) -> list[tuple[tuple, int]]:
    """Images of a minor-map domain label under the derivations E_{k,k+1} on
    rows (axis 0) and columns (axis 1), tagged (axis, k, label): k+1 becomes
    k in I (J) if k is absent, and a wedge variable moves from row (column)
    k+1 to k, with its wedge sign."""
    I, J, w = label
    out = []
    for axis, S in enumerate((I, J)):
        for s in S:
            if s > 1 and s - 1 not in S:
                raised = tuple(s - 1 if t == s else t for t in S)
                out.append(((axis, s - 1, (raised, J, w) if axis == 0 else (I, raised, w)), 1))
        for pos, x in enumerate(w):
            k = (x // n, x % n)[axis]  # x sits in row (column) k + 1
            if k and (ins := wedge_insert(w[:pos] + w[pos + 1:], x - (n, 1)[axis])):
                out.append(((axis, k, (I, J, ins[1])), -ins[0] if pos % 2 else ins[0]))
    return out


def _listed(items: list[str]) -> str:
    return f"{', '.join(items[:-1])} and {items[-1]}" if len(items) > 1 else items[0]


def _check_bytes(what: str, counts: list[tuple[int, str]], need: int, cap: int) -> None:
    """Reject a request that needs `need` bytes over the memory cap `cap`;
    `what` names the request and `counts` its (count, name) pairs.  Counts
    past the cap, cap + 1 (`_count`), are shown alone, as more than the cap,
    and then `need`, a lower bound, is not shown."""
    if need > cap:
        past = [name for count, name in counts if count == cap + 1]
        shown = (f"more than {cap} {_listed(past)}" if past else
                 f"{_listed([f'{c} {name}' for c, name in counts])}, about {need >> 20} MiB")
        raise ValueError(f"{what} {shown}, over the memory cap of {cap >> 20} MiB")


def _count(steps, cap: int) -> int:
    """The last of the increasing integers c = c * m // k over the (m, k)
    of `steps`, from c = 1, or cap + 1 once c passes `cap`.  No number much
    past the cap is built, so a guard decides at once, and prints its
    count in one short line, at any size."""
    count = 1
    for m, k in steps:
        if count > cap:
            break
        count = count * m // k
    return min(count, cap + 1)


def _binomial(a: int, b: int, cap: int) -> int:
    """C(a, b) by `_count`: the C(a, i) increase for i up to
    min(b, a - b) <= a / 2."""
    if not 0 <= b <= a:
        return 0
    return _count(((a - i, i + 1) for i in range(min(b, a - b))), cap)


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
    carries `kind` and its weight.  Its rows are the labels its columns
    reach through `column_image(label)`, a list of (row label, coefficient)
    pairs, indexed in the order first met; the block keeps only their count.

    Soundness.  The Koszul maps of a polynomial P are GL(V)-equivariant
    in (P, domain, codomain).  When every monomial of P has the same
    weight, a column of weight mu maps into codomain weight mu + wt(P), so
    the map is the direct sum of its weight blocks and the sum of their
    ranks is its rank.  A permutation g of the variables -- rows, columns,
    or transposition -- with gP = +-P satisfies F o g = +-g o F and sends
    weight space mu onto g mu.  On monomial and wedge bases g acts by a
    signed permutation, so the blocks at mu and g mu have equal rank mod
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
        yield size, FlatteningMatrix(len(row_index), group, entries, kind, weight)


def _minor_blocks(n: int, d: int, p: int, pairs, size_of, column_image,
                  memory_cap_bytes: int):
    """`weight_blocks` of the minor-indexed map, rows by `column_image`, at
    the pairs (wa, wb) of dominant weights that each call `pairs()` lists
    afresh in increasing pair-lex order (largest first), each of size
    `size_of(pair)`.  This is the map's one request check, whoever calls a
    route.  Before `pairs()` is called it refuses one column's
    (n - d)^2 - p rows or more over the cap, then a (d, p) outside
    `partitions.candidate_image`; then it charges the pairs in order until
    the charge passes the cap, with no pair past it made and no column
    listed: domain weight spaces as columns, at most codomain weight spaces
    (`partitions.weight_space_dim`) plus 4p a column as rows, and
    (n - d)^2 + 4p entries a column (`minor_raisings` gives at most p wedge
    and p I-terms a side, as an s - 1 outside I needs a wedge cell).  Only
    then does a block list its columns (`_minor_columns`)."""
    from .partitions import _decompose_wedge_tensor, candidate_image, weight_space_dim

    m, label = n - d, 8 * (2 * (n - d) + p) + _BYTES_PER_ITEM  # about 2(n - d) + p indices
    rows = min(m * m - p, memory_cap_bytes + 1)  # I x J less the cells of w
    _check_bytes(f"one column of the minor map at n={n}, d={d}, p={p} reaches", [(rows, "rows")],
                 rows * (label + _BYTES_PER_ENTRY), memory_cap_bytes)
    candidate_image(n, d, p)  # refuses a bad (d, p)
    cols = rows = 0
    domain, codomain = _decompose_wedge_tensor(m, p, n), _decompose_wedge_tensor(m - 1, p + 1, n)
    for weight in pairs():
        cols += (c := weight_space_dim(domain, *weight))
        rows += weight_space_dim(codomain, *weight) + 4 * p * c
        entries = cols * (m * m + 4 * p)
        _check_bytes(f"the minor map at n={n}, d={d}, p={p} builds at least",
                     [(cols, "columns"), (rows, "rows"), (entries, "entries")],
                     (cols + rows) * label + entries * _BYTES_PER_ENTRY, memory_cap_bytes)

    return weight_blocks(((size_of(w), w, _minor_columns(n, p, *w)) for w in pairs()),
                         column_image, "minor_block")


def _minor_columns(n: int, p: int, wa, wb) -> list[MinorLabel]:
    """The columns (I, J, w) of the minor map at weight (wa, wb), in wedge
    order.  As wa = 1_I + rows(w), w's row multiset R holds wa[k] - 1 copies
    of each k and one more of each k in a (p - excess)-subset of wa's
    support, I being the rest (a route's weights exceed 1 by at most p in
    all); C and J likewise over wb.  w's cells pair R with an ordering of C,
    p distinct cells, and each such pairing is a column; w fixes R, C, I and
    J, so the set lists each column once."""
    def splits(weight):  # (R, I) pairs
        base = [k for k, v in enumerate(weight) for _ in range(v - 1)]
        support = [k for k, v in enumerate(weight) if v]
        return [((*base, *extra), tuple(k + 1 for k in support if k not in extra))
                for extra in combinations(support, p - len(base))]
    labels = {(I, J, tuple(sorted({i * n + j for i, j in zip(R, order)})))
              for R, I in splits(wa) for C, J in splits(wb) for order in permutations(C)}
    return sorted((label for label in labels if len(label[2]) == p), key=lambda label: label[2])


def minor_orbit_blocks(n: int, d: int, p: int,
                       memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES):
    """Yield (orbit_size, block) for one weight block per symmetry orbit of
    the minor-indexed Koszul map; the whole matrix is never built.

    A label (I, J, w) and its image have row weight I + rows(w) and column
    weight J + cols(w), so the map is the direct sum of its weight blocks.
    Row and column permutations of X send det to +-det, and transposition
    fixes it; both send minors and wedges to signed ones, so blocks in one
    orbit have equal rank (`weight_blocks`).  Every weight pair lies in the
    orbit of one pair of dominant weights with wa <= wb, and only their
    columns are listed.  This route ranks F alone, as the independent
    second route to `highest_weight_blocks`.
    """
    from .partitions import partitions_of

    def pairs():  # a column's weight 1_I + rows(w) exceeds 1 by at most p in all
        weights = sorted(_padded([part + 1 for part in mu] + [1] * k, n)
                         for s in range(p + 1) for mu in partitions_of(s)
                         if 0 <= (k := n - d + p - s - len(mu)) <= n - len(mu))
        return ((wa, wb) for wa in weights for wb in weights if wa <= wb)
    return _minor_blocks(n, d, p, pairs, _orbit_size, lambda label: minor_column_image(n, label),
                         memory_cap_bytes)


def _padded(shape, n: int) -> tuple[int, ...]:
    return tuple(shape) + (0,) * (n - len(shape))


def highest_weight_blocks(n: int, d: int, p: int,
                          memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES):
    """Yield (size, block) for the weight blocks of the minor-indexed map at
    the highest weights of the candidate image modules
    (`partitions.candidate_image`), zero-padded to n parts, with each
    column's raisings (`minor_raisings`) below its image.  Transposition
    maps the block at (wa, wb) onto the one at (wb, wa), swapping the axes,
    so one is built per pair, at wa <= wb, of size 2 (or 1 if wa = wb).
    """
    from .partitions import candidate_image

    pairs = lambda: ((_padded(a, n), _padded(b, n))
                     for a, b, _ in candidate_image(n, d, p) if a <= b)
    return _minor_blocks(n, d, p, pairs, lambda w: 1 if w[0] == w[1] else 2,
                         lambda label: minor_column_image(n, label) + minor_raisings(n, label),
                         memory_cap_bytes)


def image_modules(n: int, d: int, p: int, blocks, ranks) -> tuple[int, list[dict]]:
    """The rank of the minor-indexed map, mod a prime or over Q, from the
    (size, block) pairs of `highest_weight_blocks` and their ranks in block
    order (`exact_linalg.RankCertificate.block_ranks`): (rank, modules),
    with a record {"a", "b", "m", "schur_max"} per candidate
    S_a(A) x S_b(B) in decreasing pair-lex order, m = dom - nullity (at
    least 0) its multiplicity in the image, the nullity (columns less rank)
    that of the block at its weight, dom the domain's multiplicity, and
    rank = sum(m * dim S_a * dim S_b).  m > schur_max is a RuntimeError.

    Soundness.  F is GL_n x GL_n-equivariant and defined over Z.  Over Q
    the vectors of weight (a, b) that every raising operator E kills are
    the highest-weight vectors, dom of them, and F maps them onto the
    image's, m <= schur_max of them: m = dim ker E - dim ker [E; F].  Mod
    any prime the rank can only drop, so the nullity can only grow and m
    only shrink: the bound is never overstated.  A small prime may drop E's
    own rank, hence the clamp at 0.  An m above schur_max would show a
    wrong E row, where dom > schur_max.
    """
    from .partitions import _decompose_wedge_tensor, candidate_image, schur_dim

    nullity = {B.weight: len(B.cols) - r for (_, B), r in zip(blocks, ranks)}
    domain, modules, rank = _decompose_wedge_tensor(n - d, p, n), [], 0
    for a, b, top in reversed(candidate_image(n, d, p)):  # decreasing pair-lex order
        wa, wb = _padded(a, n), _padded(b, n)
        m = max(0, domain[a, b] - nullity[min((wa, wb), (wb, wa))])
        if m > top:
            raise RuntimeError(f"multiplicity {m} of {a} x {b} exceeds its Schur maximum {top}")
        modules.append({"a": list(a), "b": list(b), "m": m, "schur_max": top})
        rank += m * schur_dim(a, n) * schur_dim(b, n)
    return rank, modules


def check_named_terms(spec: str, n: int, d: int, p: int, cap: int) -> None:
    """`check_full_map` for det or perm (n! terms in n variables) or `power`
    (one term in one variable), of degree n, before the polynomial is built."""
    if spec in ("det", "perm", "power"):
        terms = 1 if spec == "power" else _count(((k, 1) for k in range(2, n + 1)), cap)
        check_full_map(n, terms, n, 1 if spec == "power" else n, d, p, cap)


def check_full_map(n: int, terms: int, degree: int, support: int, d: int, p: int,
                   cap: int) -> None:
    """Reject a bad d or p, or a full map whose p-wedges, or whose `terms`
    terms (cap + 1 past the cap, `_count`), dividing duals and cached
    derivatives, would not fit in the memory cap `cap`.  A term m in at most
    `support` variables lists its degree-d sub-multisets as duals a
    (`_dividing_duals`): at most min(C(degree, d), C(support + d - 1, d)).
    So the distinct duals number at most the (a, m) entries, or all
    C(n*n + d - 1, d); each (a, m) gives d/dx d^a P at most
    min(degree - d, n*n) terms (`full_column_image`).  The entries and
    derivative terms are exact unless the terms or duals are past the cap."""
    nv = n * n
    if not 1 <= d <= degree - 1:
        raise ValueError(f"need 1 <= d <= degree-1, got d={d}, degree={degree}")
    if not 0 <= p <= nv - 1:
        raise ValueError(f"need 0 <= p <= {nv - 1}, got p={p}")
    wedges = _binomial(nv, p, cap)
    _check_bytes(f"the full map at n={n}, p={p} enumerates", [(wedges, "wedges")],
                 wedges * _BYTES_PER_WEDGE, cap)
    entries = terms * min(_binomial(degree, d, cap), _binomial(support + d - 1, d, cap))
    duals = min(entries, _binomial(nv + d - 1, d, cap))
    derivatives = entries * min(degree - d, nv)
    _check_bytes(f"the full map at n={n}, d={d} may keep",
                 [(terms, "terms"), (duals, "dual monomials"),
                  (entries, "(dual, term) entries"), (derivatives, "derivative terms")],
                 terms * (8 * (nv + degree) + _BYTES_PER_TERM) + duals * _BYTES_PER_DUAL
                 + (entries + derivatives) * (8 * degree + _BYTES_PER_ITEM), cap)


def _dividing_duals(P, d: int) -> dict:
    """The dual monomials a of degree d dividing a monomial of P, each with
    the terms (m, c) of P it divides, one tuple per term; a and m are sorted
    tuples of their variables with repetition, m as in `Polynomial.monomials`
    and a in increasing order.  Each m lists its sub-multisets of degree d,
    so x^e lists one a, not C(e, d).

    Soundness.  d^a m = m!/(m - a)! x^(m - a) for a <= m, and 0 otherwise;
    distinct m give distinct m - a, so d^a P = 0 exactly when a divides no
    monomial of P.  The columns (w, a) dropped are zero over Z and mod
    every prime, so a kept block loses only zero columns; a variable
    permutation fixing P up to sign permutes the dividing duals, so the
    orbit argument of `weight_blocks` still holds."""
    divisors: dict = {}  # a -> terms
    for m, c in P.monomials.items():
        parts, term = {()}, (m, c)
        for least, k in enumerate(m, d + 1 - len(m)):  # past k, a shorter part misses d
            parts = {b for a in parts for b in (a, a + (k,)) if least <= len(b) <= d}
        for a in parts:
            divisors.setdefault(a, []).append(term)
    return {a: divisors[a] for a in sorted(divisors)}


def full_column_image(label, duals: dict, derivs: dict) -> list:
    """Image of the column (w, a) of the full Koszul map: the sum over
    variables x of (x wedge w) tensor d(d^a P)/dx, with the dual monomial a
    acting as the bare (non-divided) derivative d^a.  Of the terms (m, c)
    that a divides (`duals`), each m >= a + x gives d/dx d^a P the term
    m - a - x, as its variables with repetition, with coefficient
    c * m!/(m - a - x)!.  `derivs` caches, per dual, its (x, monomials,
    coefficients) triples, the last two parallel tuples.

    Distinct x give distinct wedges, so no two terms share a row label."""
    w, a = label
    if a not in derivs:
        by_x: dict = {}
        for m, c in duals.get(a, ()):
            rest = list(m)
            for k in a:  # the j-th copy of k taken from m_k copies counts m_k - j
                c *= rest.count(k)
                rest.remove(k)
            for x in set(rest):
                i = rest.index(x)
                by_x.setdefault(x, {})[tuple(rest[:i] + rest[i + 1:])] = c * rest.count(x)
        derivs[a] = [(x, tuple(D), tuple(D.values())) for x, D in sorted(by_x.items())]
    out = []
    for x, monos, coeffs in derivs[a]:
        if ins := wedge_insert(w, x):
            sign, neww = ins
            out.extend(((neww, mono), sign * coeff) for mono, coeff in zip(monos, coeffs))
    return out


def _full_column_groups(P, p: int, duals, memory_cap_bytes: int) -> list:
    """The columns (w, a) of the full Koszul map as `weight_blocks` takes
    them: grouped by their weight wt(w) - wt(a), columns in basis order
    and weights in the order of their first column.  The columns are every
    p-wedge w with every dual monomial a of `duals`, w-major.

    The grouping is read off P: one group (1, None, every column) when P
    is not bigraded (its monomials have several weights), every weight
    with size 1 when it is, and only orbit representatives with their
    orbit sizes (`_orbit_size`) when P is also symmetric (fixed up to sign
    by row and column permutations and transposition).  Where every column
    is kept, the columns are charged before any is listed.

    Wedges and dual monomials are first grouped into classes of equal
    weight, and a weight is computed once per pair of classes: a kept
    weight takes every column of each class pair that gives it.  For a
    symmetric P a kept weight decreases on each axis, so a wedge class is
    paired only with the dual classes whose A-part and B-part both leave
    it decreasing, found per axis."""
    from .polynomials import is_bigraded, is_symmetric, torus_weight

    n, bigraded = P.n, is_bigraded(P)
    if not (symmetric := bigraded and is_symmetric(P)):  # every column is kept
        columns = comb(n * n, p) * len(duals)
        _check_bytes(f"the full map at n={n}, p={p} keeps all", [(columns, "columns")],
                     columns * _BYTES_PER_COLUMN, memory_cap_bytes)
    wedges = list(combinations(range(n * n), p)) if p else [()]  # one wedge, no pool of n² ints
    if not bigraded:
        return [(1, None, [(w, a) for w in wedges for a in duals])]
    dual_classes: dict = {}
    for a in duals:
        dual_classes.setdefault(torus_weight(a, n), []).append(a)
    classes = list(dual_classes.items())
    if symmetric:
        size_of = _orbit_size
        by_da: dict = {}  # A-part -> indices of the dual classes with it
        for i, ((da, _), _) in enumerate(classes):
            by_da.setdefault(da, []).append(i)

        def pairable(wa, wb):
            return sorted(i for da, ids in by_da.items() if _decreasing(map(sub, wa, da))
                          for i in ids if _decreasing(map(sub, wb, classes[i][0][1])))
    else:
        size_of = lambda weight: 1
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
    `weight_blocks`); the whole matrix is never built, and only the
    columns of kept weights with dividing duals are enumerated
    (`_full_column_groups`, `_dividing_duals`).  A column (w, a) has
    weight wt(w) - wt(a)."""
    check_full_map(P.n, len(P), P.degree, P.support, d, p, memory_cap_bytes)
    duals, derivs = _dividing_duals(P, d), {}
    return weight_blocks(_full_column_groups(P, p, duals, memory_cap_bytes),
                         lambda label: full_column_image(label, duals, derivs), "full_block")
