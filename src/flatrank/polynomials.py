"""Exact homogeneous polynomials in the n*n matrix variables.

Variables are ordered row-major: index k = (row-1)*n + (col-1) for the
variable in matrix position (row, col), rows and columns 1-based.  All
coefficients are exact rationals: ints where they are integers, as for
every polynomial built here, and Fractions otherwise.
"""

from __future__ import annotations

from itertools import chain, compress, count, permutations


def var_index(row: int, col: int, n: int) -> int:
    """Flat 0-based index of variable (row, col), both 1-based."""
    if not (1 <= row <= n and 1 <= col <= n):
        raise ValueError(f"variable ({row},{col}) out of range for n={n}")
    return (row - 1) * n + (col - 1)


Weight = tuple[tuple[int, ...], tuple[int, ...]]


def torus_weight(variables, n: int) -> Weight:
    """(row weight, column weight) of a product of variables, given as flat
    indices with repetition: its weight under the diagonal torus of
    GL_n x GL_n acting on rows and columns."""
    wa, wb = [0] * n, [0] * n
    for k in variables:
        wa[k // n] += 1
        wb[k % n] += 1
    return tuple(wa), tuple(wb)


class Polynomial:
    """A homogeneous polynomial of `degree` in the n*n matrix variables:
    `terms` maps each exponent vector to its nonzero coefficient, an int or
    a Fraction."""

    def __init__(self, n: int, degree: int, terms: dict | None = None):
        self.n, self.degree = n, degree
        self.terms = {} if terms is None else terms
        nv = n * n
        for exps, coeff in self.terms.items():
            if len(exps) != nv or sum(exps) != degree:
                raise ValueError(f"bad exponent vector {exps} for degree {degree}")
            if coeff == 0:
                raise ValueError("zero coefficients must not be stored")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.n, self.degree, self.terms) == (other.n, other.degree, other.terms)

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}, degree={self.degree}, terms={self.terms!r})"

    @staticmethod
    def from_json(text: str) -> "Polynomial":
        """The polynomial in JSON form, {"n", "degree", "terms": [{"exps", "num",
        "den"}]}, int coefficients where integral; ValueError for any other text."""
        import json
        from fractions import Fraction

        def integer(rec, key):  # int() would read 1.5 as 1 and true as 1
            if type(v := rec[key]) not in (int, str):
                raise TypeError(f"{key} {json.dumps(v)} is not an integer")
            return int(v)

        try:
            data = json.loads(text)
            n, degree = data["n"], data["degree"]
            recs = [(tuple(rec["exps"]), Fraction(integer(rec, "num"), integer(rec, "den")))
                    for rec in data["terms"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a polynomial in JSON form: {exc!r}") from None
        # before the duplicate test, which cannot hash a nested exponent list
        if not all(type(x) is int and x >= 0 for x in (n, degree, *chain(*(e for e, _ in recs)))):
            raise ValueError("not a polynomial in JSON form: n, degree and "
                             "exponents must be nonnegative integers")
        terms = {}
        for exps, c in recs:
            if exps in terms:
                raise ValueError(f"not a polynomial in JSON form: exponent vector "
                                 f"{list(exps)} appears twice")
            terms[exps] = c.numerator if c.denominator == 1 else c
        return Polynomial(n, degree, terms)


def is_bigraded(P: Polynomial) -> bool:
    """Whether every monomial of P has the same torus weight."""
    return len({torus_weight((k for k, e in enumerate(exps) for _ in range(e)), P.n)
                for exps in P.terms}) <= 1


def is_symmetric(P: Polynomial) -> bool:
    """Whether P is fixed up to sign by every row permutation, every column
    permutation and transposition of the matrix of variables.

    Checked on generators: the swap of the first two rows and the cycle of
    all rows, the same two for columns, and transposition.  A product of
    generators fixes P up to the product of their signs.  A generator
    moves only the variables that occur, so beyond one read of its
    exponent vector a term costs memory in its degree, not in n^2:
    `check_full_map` charges a term 8 bytes a variable.
    """
    n = P.n
    if n == 1:  # every generator is the identity
        return True
    swap, cycle = [1, 0, *range(2, n)], [(i + 1) % n for i in range(n)]
    gens = (lambda i, j: j * n + i,  # transposition
            lambda i, j: swap[i] * n + j, lambda i, j: cycle[i] * n + j,
            lambda i, j: i * n + swap[j], lambda i, j: i * n + cycle[j])
    # each term as its sorted variables, with repetition
    terms = {tuple(k for k in compress(count(), exps) for _ in range(exps[k])): c
             for exps, c in P.terms.items()}
    support = set(chain.from_iterable(terms))
    negated = {m: -c for m, c in terms.items()}
    for g in gens:
        move = {k: g(*divmod(k, n)) for k in support}
        image = {tuple(sorted(map(move.__getitem__, m))): c for m, c in terms.items()}
        if image != terms and image != negated:
            return False
    return True


def _leibniz(n: int, coefficient) -> Polynomial:
    """The sum over permutations w of 1..n of coefficient(w) times the
    diagonal product x_{1,w(1)} ... x_{n,w(n)}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    terms = {}
    for perm in permutations(range(1, n + 1)):
        exps = [0] * (n * n)
        for i, j in enumerate(perm, start=1):
            exps[var_index(i, j, n)] += 1
        terms[tuple(exps)] = coefficient(perm)
    return Polynomial(n, n, terms)


def determinant_poly(n: int) -> Polynomial:
    """Leibniz expansion of the n x n determinant."""
    return _leibniz(n, lambda perm: sort_sign(perm)[0])


def permanent_poly(n: int) -> Polynomial:
    """All n! diagonal products with coefficient +1."""
    return _leibniz(n, lambda perm: 1)


def sort_sign(seq) -> tuple[int, tuple[int, ...]] | None:
    """Sort a sequence: (sign of the sorting permutation, sorted tuple), or
    None if an entry repeats (a wedge or a column of a tableau with a
    repeated entry is zero)."""
    vals = tuple(seq)
    inversions = 0
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            if x == y:
                return None
            inversions += x > y
    return (-1 if inversions % 2 else 1), tuple(sorted(vals))


def variable_power(v: tuple[int, int], e: int, n: int) -> Polynomial:
    """The e-th power of a single variable (row, col)."""
    if e < 1:
        raise ValueError("exponent must be at least 1")
    exps = [0] * (n * n)
    exps[var_index(v[0], v[1], n)] = e
    return Polynomial(n, e, {tuple(exps): 1})
