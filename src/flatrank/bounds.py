"""Closed-form lower bounds and conversion of flattening ranks to
border-rank bound certificates."""

from math import ceil, comb, factorial, pi


class BoundCertificate:
    def __init__(self, polynomial: str, method: str, n: int, d: int | None,
                 p: int | None, rank_F: int, t: int, provenance: list | None = None):
        self.polynomial = polynomial
        self.method = method  # koszul_full | koszul_minor | pieri
        self.n, self.d, self.p = n, d, p
        self.rank_F, self.t = rank_F, t
        self.provenance = [] if provenance is None else provenance
        b = self.bound
        if not (b * t >= rank_F > (b - 1) * t or rank_F == 0):
            raise ValueError(f"bound {b} is not ceil({rank_F} / {t})")

    @property
    def bound(self) -> int:
        return flattening_bound(self.rank_F, self.t)

    def to_json(self) -> str:
        import json

        rec = {
            "poly": self.polynomial,
            "n": self.n,
            "method": self.method,
            "d": self.d,
            "p": self.p,
            "rank": self.rank_F,
            "t": self.t,
            "bound": self.bound,
            "provenance": [c.to_json_dict() for c in self.provenance],
        }
        return json.dumps(rec)


def flattening_bound(rank_F: int, t: int) -> int:
    """Lower bound on border rank: ceiling of rank_F / t."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if rank_F < 0:
        raise ValueError("rank must be nonnegative")
    return -(-rank_F // t)


def preliminary_theorem_value(n: int):
    """The closed-form bound from the wedge-1 minor map, an exact Fraction
    (valid for n >= 3)."""
    from fractions import Fraction

    if n < 3:
        raise ValueError("defined for n >= 3")
    if n % 2 == 0:
        return (1 + Fraction(4, (n - 1) * (n + 2) ** 2)) * comb(n, n // 2) ** 2
    return (1 + Fraction(8, (n - 1) * (n + 3) ** 2)) * comb(n, (n - 1) // 2) ** 2


def main_theorem_value(n: int):
    """The closed-form bound from the wedge-2 minor map, an exact Fraction
    (valid for n >= 5)."""
    from fractions import Fraction

    if n < 5:
        raise ValueError("defined for n >= 5")
    if n % 2 == 0:
        frac = Fraction(
            8 * (-8 + 6 * n**2 + n**3),
            (n - 1) * (n + 2) * (n + 4) ** 2 * (n**2 - 2),
        )
        return (1 + frac) * comb(n, n // 2) ** 2
    frac = Fraction(
        16 * (9 + 8 * n + n**2),
        (n + 3) * (n + 5) ** 2 * (n**2 - 2),
    )
    return (1 + frac) * comb(n, (n - 1) // 2) ** 2


def f_formula(n: int, d: int):
    """The five-term rational factor with image dimension f(n,d) * C(n,d)^2."""
    from fractions import Fraction

    if not 1 <= d <= n - 2:
        raise ValueError(f"need 1 <= d <= n-2, got d={d}, n={n}")
    m = n - d
    return (
        Fraction((n + 2) * (n + 1) * m * d * (d - 1), (m + 2) ** 2 * (m + 1))
        + Fraction((n + 2) * (n + 1) ** 2 * m * d, (m + 2) ** 2)
        + Fraction((n + 2) * (n + 1) ** 2 * m * n * (m - 1), 2 * (m + 2) * (m + 1))
        + Fraction((n + 1) ** 2 * n * (m - 1) * d, (m + 1) * (m + 2))
        + Fraction((n + 1) ** 2 * d**2, (m + 2) ** 2)
    )


def optimal_d(n: int) -> int:
    """Argmax over d of the wedge-2 image dimension f(n,d) * C(n,d)^2."""
    if n < 5:
        raise ValueError("defined for n >= 5")
    return max(range(1, n - 1), key=lambda d: f_formula(n, d) * comb(n, d) ** 2)


def reference_bounds(n: int, which_poly: str = "det") -> dict:
    """Named reference values proved for the polynomial, for side-by-side
    comparison tables: the determinant's from n = 2, the permanent's at
    n = 3, and none for any other polynomial or n.

    The asymptotic estimate is a float annotation only, left out where it
    passes the float range (from n = 512); all other values are exact.
    """
    if which_poly == "perm" and n == 3:
        return {"n": n, "poly": which_poly, "perm3_border_lower": 14, "perm3_border_upper": 16}
    if which_poly != "det" or n < 2:
        return {}
    out: dict = {"n": n, "poly": which_poly}
    half = n // 2
    out["classical_border_lower"] = comb(n, half) ** 2
    if n >= 3:
        out["preliminary_bound"] = ceil(preliminary_theorem_value(n))
    if n >= 5:
        out["main_bound"] = ceil(main_theorem_value(n))
    out["symmetric_rank_lower"] = comb(n, half) ** 2 + n * n - (half + 1) ** 2
    # an int: n! holds n // 3 factors 3, and 2^(n-1) the n // 3 factors 2
    out["symmetric_rank_upper"] = 5 ** (n // 3) * 2 ** (n - 1) * factorial(n) // 6 ** (n // 3)
    if n < 512:  # 2^(2n+1) passes the float range from n = 512
        out["asymptotic_estimate"] = 2 ** (2 * n + 1) / (pi * n) + 2 ** (2 * n + 1) / (
            pi * n**4
        )
    return out


def image_dim_identity(n: int) -> bool:
    """Check that the main formula times the comparison rank equals the
    wedge-2 image dimension at the optimal d, exactly."""
    d = n // 2
    lhs = main_theorem_value(n) * comb(n * n - 1, 2)
    rhs = f_formula(n, d) * comb(n, d) ** 2
    return lhs == rhs

