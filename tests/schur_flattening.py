"""The Pieri oracle: Young flattenings in the semistandard tableau basis,
one torus-weight block at a time.

`flatrank bound --method pieri` ranks the full Koszul map at (d=1, p=4),
whose rank equals this map's for every cubic (the proof is in the
docstring of `flatrank.cli.flattening_blocks`); the tests check the two
against each other.

Tableaux are tuples of row tuples; semistandard means rows weakly increase
and columns strictly increase.  A block's columns are the tableaux of one
kept weight, enumerated content by content (`_fill_columns`).  Arbitrary
fillings are legal as input to the straightening engine, which rewrites
them in the semistandard basis via column antisymmetry and Garnir shuffle
relations; a column image straightens T's sorted columns with one entry
inserted into each.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import factorial, prod
from operator import le

from flatrank.cli import PI3
from flatrank.flattening import _orbit_size, wedge_insert, weight_blocks
from flatrank.partitions import Partition, conjugate, make_partition
from flatrank.polynomials import (
    Polynomial,
    is_bigraded,
    is_symmetric,
    sort_sign,
)

Tableau = tuple[tuple[int, ...], ...]
Columns = tuple[tuple[int, ...], ...]

# The n=3 Pieri flattening: tableaux of shape PI3 (defined in `flatrank.cli`,
# whose `verify` checks its dimensions) over C^9, one box added to each of
# rows PIERI_ROWS; PIERI_T = 70 is its rank at a cubed variable.
PIERI_ROWS = (1, 5, 9)
PIERI_T = 70


def _compositions(total: int, bounds) -> list[tuple[int, ...]]:
    """The tuples x with 0 <= x[i] <= bounds[i] and sum(x) = total, in
    lexicographic order; each prefix is kept only if the rest can fit."""
    layer = [((), total)]
    room = sum(bounds)
    for bound in bounds:
        room -= bound
        layer = [(prefix + (x,), left - x) for prefix, left in layer
                 for x in range(max(0, left - room), min(bound, left) + 1)]
    return [prefix for prefix, _ in layer]


def _fill_columns(heights: Partition, content) -> list[Tableau]:
    """The semistandard tableaux with column heights `heights` and
    content[v - 1] entries equal to v.

    Built one column at a time, left to right.  An entry appears at most
    once in a column, so a value with as many copies left as columns left
    must be in the next column; the rest of that column is chosen among
    the other values left, and kept when every row weakly increases."""
    out: list[Tableau] = []

    def fill(j: int, left: list, cols: tuple) -> None:
        if j == len(heights):
            out.append(columns_to_rows(cols))
            return
        rest = len(heights) - j
        forced = [v for v, c in enumerate(left, 1) if c == rest]
        free = [v for v, c in enumerate(left, 1) if 0 < c < rest]
        if len(forced) > heights[j] or max(left) > rest:
            return
        for extra in combinations(free, heights[j] - len(forced)):
            col = tuple(sorted(forced + list(extra)))
            if cols and not all(map(le, cols[-1], col)):
                continue
            new = list(left)
            for v in col:
                new[v - 1] -= 1
            fill(j + 1, new, cols + (col,))

    if sum(content) == sum(heights):
        fill(0, list(content), ())
    return out


def _tableau_groups(shape: Partition, n: int, size_of) -> list:
    """The semistandard tableaux of the shape over 1..n*n as
    `flattening.weight_blocks` takes them: for each weight with
    size_of(weight) > 0, the triple (size_of(weight), weight, tableaux),
    and for size_of=None the one triple (1, None, every tableau).  A
    group's tableaux are in the lexicographic order of their row-reading
    words.

    Entry k+1 stands for variable k, so a tableau's content is an n x n
    matrix whose row and column sums are its weight (wa, wb), and an entry
    appears at most once per column.  Only the contents of kept weights
    are filled (`_fill_columns`)."""
    if size_of is None:
        every = _tableau_groups(shape, n, lambda weight: 1)
        return [(1, None, sorted(T for _, _, group in every for T in group))]
    heights = conjugate(shape)
    cap = len(heights)
    margins = _compositions(sum(shape), [n * cap] * n)
    groups = []
    for wa in margins:
        kept = {wb: size for wb in margins if (size := size_of((wa, wb)))}
        if not kept:
            continue
        by_wb: dict = {}
        for rows in product(*(_compositions(a, [cap] * n) for a in wa)):
            wb = tuple(map(sum, zip(*rows)))
            if wb in kept:
                by_wb.setdefault(wb, []).extend(_fill_columns(heights, sum(rows, ())))
        groups += [(kept[wb], (wa, wb), sorted(tabs)) for wb, tabs in by_wb.items() if tabs]
    return sorted(groups, key=lambda group: group[2][0])


def rows_to_columns(t: Tableau) -> Columns:
    """The columns of a tableau, top to bottom.  Its rows are the columns
    of its transpose, so the same function turns columns back into rows."""
    if not t:
        return ()
    cols: list[list[int]] = [[] for _ in t[0]]
    for row in t:
        for col, v in zip(cols, row):
            col.append(v)
    return tuple(map(tuple, cols))


columns_to_rows = rows_to_columns


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


def pieri_arrangements(phi: Polynomial) -> list[tuple]:
    """The (arrangement, coefficient) pairs `pieri_column_image` fills in:
    each distinct arrangement of each monomial's variables as tableau
    entries (variable k is entry k+1), in exponent and lexicographic order.

    The map needs the polarization of phi, c_alpha * alpha! / e! at each
    arrangement of x^alpha of degree e (alpha! the product of the exponents'
    factorials), here times e!: the bare-derivative convention of the full
    Koszul map.  It makes the map GL-equivariant in phi, so every power of
    a linear form has the rank of a power of one variable."""
    out = []
    for exps, coeff in sorted(phi.terms.items()):
        labels = [k + 1 for k, e in enumerate(exps) for _ in range(e)]
        weight = coeff * prod(map(factorial, exps))
        out += [(arrangement, weight) for arrangement in sorted(set(permutations(labels)))]
    return out


def pieri_column_image(arrangements, T: Tableau, target_rows) -> list:
    """Image of the tableau T under a Young flattening, given by its
    `pieri_arrangements`.

    The sum, over the arrangements, of the coefficient times the
    straightening of the filling that writes the arrangement into the boxes
    added at the ends of the sorted target rows.  Returns (tableau,
    coefficient) pairs with nonzero coefficients.

    The box added to row r lands at the bottom of column len(T[r - 1]), so
    each arrangement inserts one entry into each of those columns of T:
    with the sign of moving it up past the larger entries, and zero on a
    repeat (`wedge_insert`).  The sorted columns then straighten directly.
    The added boxes lie in distinct columns (`add_boxes_shape`), so each
    entry is inserted into each of them once, whatever the arrangement.
    """
    cols = list(rows_to_columns(T))
    slots = [len(T[r - 1]) if r <= len(T) else 0 for r in sorted(target_rows)]
    cols += [()] * (max(slots, default=-1) + 1 - len(cols))
    inserted: list[dict] = [{} for _ in slots]
    acc: dict = {}
    for arrangement, coeff in arrangements:
        filled, sign = list(cols), coeff
        for c, label, known in zip(slots, arrangement, inserted):
            if label not in known:
                ins = wedge_insert(cols[c], label)
                # wedge_insert's sign is that of passing the smaller entries
                known[label] = ins and (ins[0] if len(cols[c]) % 2 == 0 else -ins[0], ins[1])
            if not known[label]:
                break
            sign *= known[label][0]
            filled[c] = known[label][1]
        else:
            for tab, v in _straighten_sorted(tuple(filled)).items():
                total = acc.get(tab, 0) + sign * v
                if total:
                    acc[tab] = total
                else:
                    acc.pop(tab, None)
    return list(acc.items())


def pieri_blocks(phi: Polynomial, shape: Partition, target_rows):
    """Yield (orbit_size, block) for the Young flattening of phi; the whole
    matrix is never built.

    Entry k+1 stands for variable k, so the entries run over 1..n*n.  A
    tableau's weight is the torus weight of its entries' variables:
    straightening preserves content, so the map shifts it by the weight of
    phi when phi is graded.  Only the tableaux of kept weights are
    enumerated (`_tableau_groups`), picked as the full map picks its
    columns (`flattening._full_column_groups`): every tableau when phi is
    not bigraded, every weight with size 1 when it is, and orbit
    representatives when phi is also symmetric.  Blocks, orbits and
    soundness are those of `flattening.weight_blocks`: a variable
    permutation acts on the semistandard tableau basis by an integer
    matrix whose inverse, the action of the inverse permutation, is also
    integral, so blocks in one orbit have equal rank mod every prime and
    over Q.
    """
    shape = make_partition(shape)
    _pieri_target(phi, shape, target_rows)
    arrangements = pieri_arrangements(phi)
    if not is_bigraded(phi):
        size_of = None
    elif is_symmetric(phi):
        size_of = _orbit_size
    else:
        size_of = lambda weight: 1
    return weight_blocks(
        _tableau_groups(shape, phi.n, size_of),
        lambda T: pieri_column_image(arrangements, T, target_rows), "pieri_block",
    )
