"""Young flattenings in the semistandard tableau basis.

Tableaux are tuples of row tuples; semistandard means rows weakly increase
and columns strictly increase.  Arbitrary fillings are legal as input to
the straightening engine, which rewrites them in the semistandard basis
via column antisymmetry and Garnir shuffle relations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from .partitions import Partition, make_partition
from .polynomials import Polynomial, exponent_variables, sort_sign, torus_weight
from .flattening import FlatteningMatrix, polynomial_blocks

Tableau = tuple[tuple[int, ...], ...]
Columns = tuple[tuple[int, ...], ...]

# The n=3 Pieri flattening: tableaux of shape PI3 over C^9, one box added
# to each of rows PIERI_ROWS; PIERI_T = 70 is its rank at a cubed variable.
PI3 = (2, 2, 2, 2, 1, 1, 1, 1)
PIERI_ROWS = (1, 5, 9)
PIERI_T = 70


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


def rows_to_columns(t: Tableau) -> Columns:
    if not t:
        return ()
    return tuple(
        tuple(t[r][c] for r in range(len(t)) if c < len(t[r]))
        for c in range(len(t[0]))
    )


def columns_to_rows(cols: Columns) -> Tableau:
    if not cols:
        return ()
    return tuple(
        tuple(cols[c][r] for c in range(len(cols)) if r < len(cols[c]))
        for r in range(len(cols[0]))
    )


def _canonical(cols: Columns) -> tuple[int, Columns] | None:
    sign = 1
    out = []
    for col in cols:
        res = sort_sign(col)
        if res is None:
            return None
        s, sorted_col = res
        sign *= s
        out.append(sorted_col)
    return sign, tuple(out)


def _first_violation(cols: Columns) -> tuple[int, int] | None:
    """First cell (r, c) in column-major scan with T(r,c) > T(r,c+1)."""
    for c in range(len(cols) - 1):
        right = cols[c + 1]
        left = cols[c]
        for r in range(len(right)):
            if left[r] > right[r]:
                return r, c
    return None


_straighten_cache: dict[Columns, dict[Tableau, int]] = {}


def _word(cols: Columns) -> tuple[int, ...]:
    return tuple(v for col in cols for v in col)


def _straighten_sorted(cols: Columns) -> dict[Tableau, int]:
    """Straighten a filling whose columns are already sorted and repeat-free."""
    cached = _straighten_cache.get(cols)
    if cached is not None:
        return cached
    viol = _first_violation(cols)
    if viol is None:
        result = {columns_to_rows(cols): 1}
        _straighten_cache[cols] = result
        return result
    r, c = viol
    A = cols[c][r:]
    B = cols[c + 1][: r + 1]
    # column c is sorted and exceeds column c+1 at row r, so every element
    # of A is larger than every element of B; all |A|+|B| values are distinct
    pool = A + B
    if len(set(pool)) != len(pool):
        raise RuntimeError(f"straightening {cols}: Garnir pool {pool} repeats an entry")
    old_word = _word(cols)
    acc: dict[Tableau, int] = {}
    for subset in combinations(range(len(pool)), len(A)):
        if subset == tuple(range(len(A))):
            continue  # the identity shuffle is the term being rewritten
        S = [pool[i] for i in subset]
        comp_idx = [i for i in range(len(pool)) if i not in subset]
        comp = [pool[i] for i in comp_idx]
        # shuffle sign: the sign of the permutation taking pool order to
        # (S part, B part) as subsequences
        shuffle_sign = sort_sign(list(subset) + comp_idx)[0]
        new_cols = list(cols)
        new_cols[c] = cols[c][:r] + tuple(S)
        new_cols[c + 1] = tuple(comp) + cols[c + 1][r + 1:]
        canon = _canonical(tuple(new_cols))
        if canon is None:
            continue
        sign, canon_cols = canon
        if _word(canon_cols) >= old_word:
            raise RuntimeError(f"straightening {cols}: order does not decrease")
        for tab, coeff in _straighten_sorted(canon_cols).items():
            total = acc.get(tab, 0) - shuffle_sign * sign * coeff
            if total:
                acc[tab] = total
            else:
                acc.pop(tab, None)
    _straighten_cache[cols] = acc
    return acc


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


def add_boxes_shape(shape: Partition, target_rows) -> Partition:
    """Shape obtained by appending one box at the end of each listed row
    (1-based row indices of the target shape)."""
    shape = make_partition(shape)
    rows = list(target_rows)
    if len(set(rows)) != len(rows):
        raise ValueError("target rows must be distinct")
    new = list(shape) + [0] * (max(rows) - len(shape) if rows else 0)
    for r in rows:
        if not 1 <= r <= len(new):
            raise ValueError(f"row {r} out of range")
        new[r - 1] += 1
    target = make_partition(new)  # raises if not weakly decreasing
    added_cols = [target[r - 1] for r in rows]
    if len(set(added_cols)) != len(added_cols):
        raise ValueError("two added boxes fall in the same column")
    return target


def _pieri_target(phi: Polynomial, shape: Partition, target_rows) -> Partition:
    target = add_boxes_shape(shape, target_rows)
    if phi.degree != len(target_rows):
        raise ValueError(
            f"degree {phi.degree} does not match {len(target_rows)} added boxes"
        )
    return target


def pieri_column_image(phi: Polynomial, T: Tableau, target_rows) -> list:
    """Image of the tableau T under the Young flattening of phi.

    The sum, over the monomials of phi and over all distinct arrangements
    of each monomial's variables (with multiplicity) into the boxes added
    at the ends of the sorted target rows, of the straightening of the
    labeled filling; variable k is tableau entry k+1.  Returns (tableau,
    coefficient) pairs with nonzero coefficients.
    """
    rows_sorted = sorted(target_rows)
    extra = max(rows_sorted, default=0) - len(T)
    acc: dict[Tableau, Fraction] = {}
    for exps, coeff in sorted(phi.terms.items()):
        labels = [k + 1 for k in exponent_variables(exps)]
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


def pieri_flattening_matrix(phi: Polynomial, shape: Partition, target_rows,
                            N: int) -> FlatteningMatrix:
    """Young flattening of phi in the semistandard tableau basis.

    Columns are semistandard tableaux of `shape`; rows are tableaux of the
    shape with one box appended to each listed target row; the column of T
    is `pieri_column_image`.
    """
    shape = make_partition(shape)
    target = _pieri_target(phi, shape, target_rows)
    col_tabs = ssyt_enumerate(shape, N)
    row_tabs = ssyt_enumerate(target, N)
    row_index = {t: i for i, t in enumerate(row_tabs)}
    entries = [(row_index[tab], ci, v)
               for ci, T in enumerate(col_tabs)
               for tab, v in pieri_column_image(phi, T, target_rows)]
    entries.sort(key=lambda e: (e[1], e[0]))
    return FlatteningMatrix(row_tabs, col_tabs, entries, "pieri")


def pieri_blocks(phi: Polynomial, shape: Partition, target_rows):
    """Yield (orbit_size, block) for the Young flattening of phi; the whole
    matrix is never built.

    Entry k+1 stands for variable k, so the entries run over 1..n*n.  A
    tableau's weight is the torus weight of its entries' variables:
    straightening preserves content, so the map shifts it by the weight of
    phi when phi is graded.
    Blocks, orbits and soundness are those of `flattening.weight_blocks`.
    """
    shape = make_partition(shape)
    _pieri_target(phi, shape, target_rows)
    n = phi.n
    return polynomial_blocks(
        phi, ssyt_enumerate(shape, n * n),
        lambda T: torus_weight((v - 1 for row in T for v in row), n),
        lambda T: pieri_column_image(phi, T, target_rows), "pieri_block",
    )


def kostka_number(shape: Partition, content) -> int:
    """Number of semistandard tableaux of the shape with given content
    (content[i] copies of i+1); brute-force oracle."""
    shape = make_partition(shape)
    N = len(content)
    return sum(
        1
        for t in ssyt_enumerate(shape, N)
        if all(
            sum(row.count(i + 1) for row in t) == content[i] for i in range(N)
        )
    )
