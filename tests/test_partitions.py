from fractions import Fraction
from itertools import combinations
from math import comb, log10

import pytest
from hypothesis import given, strategies as st

from flatrank.partitions import (
    _decompose_wedge_tensor,
    candidate_image,
    conjugate,
    kostka,
    make_partition,
    partitions_of,
    pieri_column,
    schur_dim,
    theoretical_image_dim,
    total_dimension,
    total_log10,
)
from oracles import decompose_wedge_product, kostka_number

partitions = st.lists(st.integers(1, 9), max_size=8).map(
    lambda xs: make_partition(sorted(xs, reverse=True))
)


def brute_force_add_boxes(pi, k, same_column_forbidden):
    """Oracle: add k boxes one at a time to every addable cell, tracking the
    cells used, then filter by the row/column constraint."""
    results = set()

    def grow(shape, cells, remaining):
        if remaining == 0:
            cols = [c for _, c in cells]
            rows = [r for r, _ in cells]
            if same_column_forbidden and len(set(cols)) == len(cols):
                results.add(shape)
            if not same_column_forbidden and len(set(rows)) == len(rows):
                results.add(shape)
            return
        for r in range(len(shape) + 1):
            new = list(shape) + [0] * (r + 1 - len(shape))
            new[r] += 1
            try:
                cand = make_partition(new)
            except ValueError:
                continue
            grow(cand, cells + [(r, new[r] - 1)], remaining - 1)

    grow(make_partition(pi), [], k)
    return results


def count_ssyt(shape, N):
    """Independent semistandard tableau count by cell-by-cell backtracking."""
    shape = make_partition(shape)
    cells = [(r, c) for r, p in enumerate(shape) for c in range(p)]
    grid = {}

    def fill(i):
        if i == len(cells):
            return 1
        r, c = cells[i]
        lo = 1
        if c > 0:
            lo = max(lo, grid[(r, c - 1)])
        if r > 0:
            lo = max(lo, grid[(r - 1, c)] + 1)
        total = 0
        for v in range(lo, N + 1):
            grid[(r, c)] = v
            total += fill(i + 1)
        return total

    return fill(0)


class TestConjugate:
    def test_examples(self):
        assert conjugate((4, 3, 1)) == (3, 2, 2, 1)
        assert conjugate(()) == ()
        assert conjugate((2, 2, 2, 2, 1, 1, 1, 1)) == (8, 4)

    @given(partitions)
    def test_involution(self, pi):
        assert conjugate(conjugate(pi)) == pi


class TestSchurDim:
    def test_paper_values(self):
        pi3 = (2, 2, 2, 2, 1, 1, 1, 1)
        assert schur_dim(pi3, 9) == 1050
        assert schur_dim((3,) + pi3, 9) == 1050
        assert schur_dim(pi3, 8) == 70

    def test_small(self):
        assert schur_dim((1, 1, 1), 3) == 1
        assert schur_dim((2, 1), 3) == 8
        assert schur_dim((1, 1, 1, 1), 3) == 0

    def test_non_integer_dimension_raises(self):
        # N = 3/2 is not a dimension; the hook content product is 15/8
        with pytest.raises(RuntimeError, match="hook content"):
            schur_dim((2,), Fraction(3, 2))

    @pytest.mark.parametrize(
        "shape,N",
        [((2, 1), 3), ((3, 2), 4), ((2, 2, 1), 5), ((4,), 9),
         ((2, 2, 2, 2, 1, 1, 1, 1), 9), ((3, 3, 2, 1), 6),
         ((1, 1, 1, 1), 3), ((2, 2, 1), 2), ((3, 3, 2, 1), 3)],
    )
    def test_matches_ssyt_count(self, shape, N):
        assert schur_dim(shape, N) == count_ssyt(shape, N)


class TestPieri:
    def test_column_examples(self):
        assert pieri_column((), 3, 9) == [(1, 1, 1)]
        assert pieri_column((1,), 2, 2) == [(2, 1)]
        assert set(pieri_column((2, 1), 2, 4)) == {
            (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)
        }

    @pytest.mark.parametrize("size", range(7))
    def test_matches_brute_force_on_every_small_case(self, size):
        for pi in partitions_of(size):
            for k in range(5):
                for N in range(9):
                    got = pieri_column(pi, k, N)
                    want = {m for m in brute_force_add_boxes(pi, k, False) if len(m) <= N}
                    assert len(got) == len(set(got)) and set(got) == want

    @given(partitions, st.integers(1, 4), st.integers(1, 9))
    def test_column_matches_brute_force(self, pi, k, N):
        got = pieri_column(pi, k, N)
        want = {m for m in brute_force_add_boxes(pi, k, False) if len(m) <= N}
        assert len(got) == len(set(got)) and set(got) == want

    @given(partitions, st.integers(1, 4), st.integers(1, 9))
    def test_column_via_conjugation(self, pi, k, N):
        got = set(pieri_column(pi, k, N))
        via_conj = {
            conjugate(m)
            for m in brute_force_add_boxes(conjugate(pi), k, True)
            if len(conjugate(m)) <= N
        }
        assert got == via_conj


class TestKostka:
    @pytest.mark.parametrize("size", range(9))
    def test_matches_brute_force_on_every_shape(self, size):
        for shape in partitions_of(size):
            for content in partitions_of(size):
                assert kostka(shape, content) == kostka_number(shape, content)

    def test_content_order_and_zeros(self):
        assert kostka((2, 1), (1, 1, 1)) == 2
        assert kostka((3, 1), (0, 1, 2, 0, 1)) == kostka((3, 1), (2, 1, 1)) == 2
        assert kostka((2, 2), (1, 3)) == 0
        assert kostka((2,), (1, 1, 1)) == 0


def triples(modules: dict) -> list:
    """A {(a, b): multiplicity} decomposition as (a, b, multiplicity) triples."""
    return [(a, b, m) for (a, b), m in modules.items()]


class TestCauchyWedge:
    """`_decompose_wedge_tensor` with no wedge factor is the Cauchy
    decomposition of wedge^p(A x B)."""

    def test_examples(self):
        ml = _decompose_wedge_tensor(0, 2, 3)
        assert ml == {((2,), (1, 1)): 1, ((1, 1), (2,)): 1}
        assert total_dimension(triples(ml), 3) == comb(9, 2)
        assert _decompose_wedge_tensor(0, 0, 4) == {((), ()): 1}
        ml1 = _decompose_wedge_tensor(0, 1, 4)
        assert ml1 == {((1,), (1,)): 1}
        assert total_dimension(triples(ml1), 4) == 16

    @pytest.mark.parametrize("p", range(5))
    @pytest.mark.parametrize("N", range(2, 7))
    def test_total_dimension(self, p, N):
        assert total_dimension(triples(_decompose_wedge_tensor(0, p, N)), N) == comb(N * N, p)


class TestDecompose:
    def test_no_wedge_factor(self):
        assert decompose_wedge_product(5, 2, 0) == (
            ((1, 1, 1), (1, 1, 1), 1),
        )

    def test_dimension_bookkeeping(self):
        assert total_dimension(decompose_wedge_product(5, 2, 2), 5) == 100 * 300
        for n in range(2, 7):
            for d in range(1, n):
                for p in (1, 2):
                    ml = decompose_wedge_product(n, d, p)
                    assert total_dimension(ml, n) == comb(n, d) ** 2 * comb(n * n, p)

    def test_four_term_sum(self):
        got = set(decompose_wedge_product(4, 2, 1))
        assert got == {
            ((2, 1), (1, 1, 1), 1),
            ((1, 1, 1), (2, 1), 1),
            ((2, 1), (2, 1), 1),
            ((1, 1, 1), (1, 1, 1), 1),
        }

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            decompose_wedge_product(4, 0, 1)
        with pytest.raises(ValueError):
            decompose_wedge_product(4, 4, 1)


class TestCandidateImage:
    def test_three_module_list(self):
        got = set(candidate_image(6, 3, 1))
        assert got == {
            ((2, 1, 1), (1, 1, 1, 1), 1),
            ((1, 1, 1, 1), (2, 1, 1), 1),
            ((2, 1, 1), (2, 1, 1), 1),
        }

    def test_nine_module_list(self):
        # n-d = 3; box counts force the shapes below (the last three carry
        # n-d+2 boxes per side, like the first six)
        m = 3
        one = lambda k: (1,) * k
        expected = {
            ((3,) + one(m - 1), one(m + 2)),
            (one(m + 2), (3,) + one(m - 1)),
            ((3,) + one(m - 1), (2,) + one(m)),
            ((2,) + one(m), (3,) + one(m - 1)),
            ((3,) + one(m - 1), (2, 2) + one(m - 2)),
            ((2, 2) + one(m - 2), (3,) + one(m - 1)),
            ((2,) + one(m), (2,) + one(m)),
            ((2,) + one(m), (2, 2) + one(m - 2)),
            ((2, 2) + one(m - 2), (2,) + one(m)),
        }
        got = candidate_image(6, 3, 2)
        assert {(a, b) for a, b, _ in got} == expected
        assert all(mult == 1 for _, _, mult in got)

    def test_length_filter_at_n3(self):
        got = candidate_image(3, 1, 2)
        assert all(len(a) <= 3 and len(b) <= 3 for a, b, _ in got)
        # (1^4) and (2,1,1,1) shapes are dropped at n=3
        assert len(got) < 9

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            candidate_image(6, 3, 3)


class TestTheoreticalImageDim:
    def test_values(self):
        assert theoretical_image_dim(4, 2, 1) == 560
        assert theoretical_image_dim(5, 2, 2) == 29376

    def test_bounded_by_domain(self):
        for n in range(3, 7):
            d = max(1, n // 2)
            for p in (1, 2):
                assert theoretical_image_dim(n, d, p) <= comb(n, d) ** 2 * comb(
                    n * n, p
                )


class TestTotalLog10:
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_the_exact_total(self, p):
        """Summed from one lgamma difference per run of consecutive factors,
        the log10 of every candidate total up to n=40 is within 1e-9 of the
        log10 of the exact int."""
        for n in range(2, 41):
            for d in range(1, n):
                if modules := candidate_image(n, d, p):
                    exact = log10(total_dimension(modules, n))
                    assert abs(total_log10(modules, n) - exact) < 1e-9


class TestPartitionsOf:
    def test_partitions_of(self):
        assert sorted(partitions_of(4)) == [
            (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)
        ]
