"""End-to-end acceptance checks.

Each numbered criterion prints one PASS/FAIL line (run with -s to see them
all; a FAIL line always surfaces in the captured output of the failing
test).  Criterion 9 is recorded in two parts: the frozen regression
baseline, and the gap report whose stated rank ceiling disagrees with the
computed matrix; the latter is expected to fail and is kept red rather
than weakened.  See the repository notes for the analysis.
"""

import random
from fractions import Fraction
from math import ceil, comb

import pytest

from flatrank import bounds, partitions
from flatrank.exact_linalg import rank_mod_p, rank_rational
from flatrank.polynomials import (
    determinant_poly,
    permanent_poly,
    variable_power,
)
from schur_flattening import PI3, PIERI_ROWS, PIERI_T
import oracles
from oracles import random_low_rank


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def minor_4_2_2_rank():
    return rank_mod_p([(1, oracles.minor_koszul_matrix(4, 2, 2))]).rank


def test_criterion_1_schur_dimensions():
    ok = (
        partitions.schur_dim(PI3, 9) == 1050
        and partitions.schur_dim((3,) + PI3, 9) == 1050
        and partitions.schur_dim(PI3, 8) == 70
    )
    report(1, ok, "schur dims 1050 / 1050 / 70")


def test_criterion_2_pieri_ranks():
    results = {}
    for poly, name in [
        (variable_power((3, 3), 3, 3), "cube"),
        (determinant_poly(3), "det3"),
        (permanent_poly(3), "perm3"),
    ]:
        M = oracles.pieri_flattening_matrix(poly, PI3, PIERI_ROWS, 9)
        cert = rank_rational([(1, M)])
        assert cert.prime is None
        results[name] = cert.rank
    ok = (
        results == {"cube": 70, "det3": 950, "perm3": 934}
        and bounds.flattening_bound(950, PIERI_T) == 14
        and bounds.flattening_bound(934, PIERI_T) == 14
    )
    report(2, ok, f"pieri ranks {results}, bounds 14 / 14")


def test_criterion_3_n4_preliminary():
    M = oracles.minor_koszul_matrix(4, 2, 1)
    r = rank_mod_p([(1, M)]).rank
    assert rank_rational([(1, M)]).rank == r
    ok = r == 560 and bounds.flattening_bound(r, 15) == 38
    report(3, ok, f"minor(4,2,1) rank {r}, bound {bounds.flattening_bound(r, 15)}")


def test_criterion_4_n3_koszul_young():
    F = oracles.full_koszul_matrix(determinant_poly(3), 1, 2)
    r = rank_mod_p([(1, F)]).rank
    b = bounds.flattening_bound(r, 28)
    ok = b == 12 and comb(8, 2) == 28
    report(4, ok, f"full det3 wedge-2 rank {r}, t 28, bound {b}")


def test_criterion_5_n5_main():
    M = oracles.minor_koszul_matrix(5, 2, 2)
    r = rank_mod_p([(1, M)]).rank
    v = bounds.main_theorem_value(5)
    ok = (
        r == 29376
        and r == partitions.theoretical_image_dim(5, 2, 2)
        and Fraction(29376, 276) == v
        and bounds.flattening_bound(r, 276) == 107
        and ceil(v) == 107
    )
    report(5, ok, f"minor(5,2,2) rank {r}, bound 107")


def test_criterion_6_formula_identities():
    ok = all(bounds.image_dim_identity(n) for n in range(5, 13))
    ok &= all(bounds.optimal_d(n) == n // 2 for n in range(5, 13))
    ok &= all(
        ceil(bounds.main_theorem_value(n)) > comb(n, n // 2) ** 2
        for n in range(5, 21)
    )
    report(6, ok, "image-dimension identity, optimal d, improvement n=5..20")


def test_criterion_7_highest_weight_vectors():
    failures = [
        (lid, n)
        for n in range(5, 9)
        for lid in oracles.ALL_LEMMAS
        if not oracles.verify_hwv_nonzero(lid, n, n // 2)[0]
    ]
    report(7, not failures, f"8 lemmas x n=5..8, failures: {failures}")


def test_criterion_8_property_suites():
    ok = True
    # low-rank inputs never beat their own rank, 50 seeds
    for seed in range(50):
        n = 2 + seed % 2
        p = 1 + (seed // 2) % 2
        r = seed % 3 + 1
        P = random_low_rank(r, 3, n, seed)
        F = oracles.full_koszul_matrix(P, 1, p)
        t = comb(n * n - 1, p)
        ok &= bounds.flattening_bound(rank_mod_p([(1, F)]).rank, t) <= r
    # straightening idempotence and dimension bookkeeping
    for tab in oracles.ssyt_enumerate((2, 2, 1), 4):
        ok &= oracles.straighten(tab) == {tab: Fraction(1)}
    ok &= oracles.kostka_number((2, 1), (1, 1, 1)) == 2
    ok &= len(oracles.ssyt_enumerate(PI3, 8)) == 70
    # modular vs rational agreement battery
    rng = random.Random(99)
    for _ in range(100):
        dense = [
            [rng.randint(-4, 4) if rng.random() < 0.3 else 0 for _ in range(12)]
            for _ in range(12)
        ]
        entries = [
            (r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v
        ]
        from flatrank.exact_linalg import sparse_rank

        ok &= sparse_rank(entries, p=1073741789) == oracles.dense_rank_bareiss(dense)
    # determinism: two builds give identical matrices
    a = oracles.minor_koszul_matrix(3, 1, 2)
    b = oracles.minor_koszul_matrix(3, 1, 2)
    ok &= a.entries == b.entries
    report(8, bool(ok), "low-rank / straightening / modular-rational / determinism")


def test_criterion_9_regression_baseline(minor_4_2_2_rank):
    r = minor_4_2_2_rank
    ok = (
        r == 4065
        and r == partitions.theoretical_image_dim(4, 2, 2)
        and bounds.flattening_bound(r, 105) == 39 >= 38
    )
    report(9, ok, f"minor(4,2,2) rank {r} frozen; bound 39 >= 38")


def test_criterion_9_gap_report(minor_4_2_2_rank):
    # KNOWN RED: the stated rank ceiling of 3990 contradicts the computed
    # matrix -- the rank equals the full nine-module dimension count 4065
    # (frozen in the baseline above, confirmed rationally and at two
    # primes).  Kept failing rather than weakened; see README.
    r = minor_4_2_2_rank
    report(9, r <= 3990 and bounds.flattening_bound(r, 105) >= 38,
           f"gap report: rank {r} <= 3990")
