"""Highest weight vectors of the source paper's lemmas, in the domain basis
of the minor-indexed Koszul map, and the check that their images are
nonzero.  Only the `verify` suites use this module."""

from __future__ import annotations

from .flattening import MinorLabel, minor_column_image
from .polynomials import sort_sign, var_index

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
        for rlabel, sign in minor_column_image(n, label):
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
