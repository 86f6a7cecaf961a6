import random
from fractions import Fraction
from itertools import product

import pytest
import sympy

from flatrank.bounds import flattening_bound
from flatrank.exact_linalg import rank_mod_p
from flatrank.flattening import full_koszul_blocks
from flatrank.partitions import partitions_of, schur_dim
from flatrank.polynomials import (
    Polynomial,
    determinant_poly,
    permanent_poly,
    variable_power,
)
import flatrank.schur_flattening as schur_flattening
from flatrank.schur_flattening import (
    PI3,
    PIERI_ROWS,
    PIERI_T,
    add_boxes_shape,
    columns_to_rows,
    pieri_arrangements,
    pieri_blocks,
    pieri_column_image,
    rows_to_columns,
)
from oracles import (
    add,
    is_semistandard,
    kostka_number,
    linear_form_power,
    pieri_column_image_by_straightening,
    pieri_flattening_matrix,
    random_low_rank,
    scale,
    ssyt_by_content,
    ssyt_enumerate,
    straighten,
    substitute_row_column,
    tableau_shape,
)


def bideterminant(filling, syms):
    """Product over columns of det(x[entry_i, j]); the classical polynomial
    realization in which the straightening relations hold identically."""
    expr = sympy.Integer(1)
    for col in rows_to_columns(filling):
        k = len(col)
        M = sympy.Matrix(k, k, lambda i, j: syms[(col[i], j + 1)])
        expr *= M.det()
    return sympy.expand(expr)


class TestTableauBasics:
    def test_shape_and_transpose(self):
        t = ((1, 2, 2), (2, 3))
        assert tableau_shape(t) == (3, 2)
        assert rows_to_columns(t) == ((1, 2), (2, 3), (2,))
        assert columns_to_rows(rows_to_columns(t)) == t

    def test_is_semistandard(self):
        assert is_semistandard(((1, 1), (2,)))
        assert not is_semistandard(((2, 1),))
        assert not is_semistandard(((1, 1), (1,)))
        assert is_semistandard(())


class TestEnumeration:
    @pytest.mark.parametrize(
        "shape,N",
        [((2, 1), 3), ((3,), 4), ((1, 1, 1), 4), ((2, 2), 3),
         (PI3, 8), ((2, 2, 1), 4)],
    )
    def test_count_matches_dimension(self, shape, N):
        tabs = ssyt_enumerate(shape, N)
        assert len(tabs) == schur_dim(shape, N)
        assert all(is_semistandard(t) for t in tabs)
        assert len(set(tabs)) == len(tabs)

    def test_paper_dimensions(self):
        assert len(ssyt_enumerate(PI3, 9)) == 1050
        assert len(ssyt_enumerate((3,) + PI3, 9)) == 1050
        assert len(ssyt_enumerate(PI3, 8)) == 70

    def test_lexicographic_by_reading_word(self):
        tabs = ssyt_enumerate((2, 1), 3)
        words = [tuple(v for row in t for v in row) for t in tabs]
        assert words == sorted(words)


class TestSsytByContent:
    @pytest.mark.parametrize("shape,N", [(PI3, 9), ((2, 1), 3), ((3, 2, 2), 4)])
    def test_every_content_gives_the_whole_enumeration(self, shape, N):
        """Over every content -- also those with more copies of a value than
        the shape has columns -- the tableaux by content are the tableaux
        of the shape, each once and with its content."""
        found = []
        for content in product(range(shape[0] + 2), repeat=N):
            if sum(content) != sum(shape):
                continue
            tabs = ssyt_by_content(shape, content)
            for T in tabs:
                assert is_semistandard(T) and tableau_shape(T) == shape
                assert all(sum(row.count(v) for row in T) == c
                           for v, c in enumerate(content, 1))
            found += tabs
        assert sorted(found) == ssyt_enumerate(shape, N)

    def test_kostka_numbers(self):
        for content in [(1, 1, 1), (3,), (2, 1, 0), (0, 1, 2)]:
            assert len(ssyt_by_content((2, 1), content)) == kostka_number((2, 1), content)
        assert ssyt_by_content((), ()) == [()]
        assert ssyt_by_content((2,), (1,)) == []


class TestStraightening:
    def test_semistandard_fixed_point(self):
        for t in ssyt_enumerate((2, 2, 1), 4):
            assert straighten(t) == {t: Fraction(1)}

    def test_repeated_column_entry_is_zero(self):
        assert straighten(((1, 2), (1,))) == {}

    def test_column_sort_sign(self):
        assert straighten(((2,), (1,))) == {((1,), (2,)): Fraction(-1)}
        assert straighten(((3,), (1,), (2,))) == {((1,), (2,), (3,)): Fraction(1)}

    def test_single_row_exchange(self):
        assert straighten(((2, 1),)) == {((1, 2),): Fraction(1)}

    def test_output_is_semistandard(self):
        rng = random.Random(11)
        for _ in range(200):
            shape = rng.choice([(2,), (2, 1), (2, 2), (3, 1), (2, 2, 1)])
            filling = tuple(
                tuple(rng.randint(1, 4) for _ in range(k)) for k in shape
            )
            for tab, coeff in straighten(filling).items():
                assert is_semistandard(tab)
                assert tableau_shape(tab) == shape
                assert coeff != 0

    def test_content_preserved(self):
        rng = random.Random(12)
        for _ in range(100):
            shape = rng.choice([(2, 1), (2, 2), (3, 2)])
            filling = tuple(
                tuple(rng.randint(1, 5) for _ in range(k)) for k in shape
            )
            content = sorted(v for row in filling for v in row)
            for tab in straighten(filling):
                assert sorted(v for row in tab for v in row) == content

    @pytest.mark.parametrize("cols,message", [
        (((1, 2), (2, 1)), "repeats an entry"),
        (((1, 2), (3, 1)), "order does not decrease"),
    ])
    def test_unsorted_input_raises(self, monkeypatch, cols, message):
        """_straighten_sorted requires sorted columns; its checks catch a
        caller that breaks this, also under python -O."""
        monkeypatch.setattr(schur_flattening, "_straighten_cache", {})
        with pytest.raises(RuntimeError, match=message):
            schur_flattening._straighten_sorted(cols)

    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(50):
            filling = tuple(
                tuple(rng.randint(1, 4) for _ in range(k)) for k in (2, 2)
            )
            out = straighten(filling)
            for tab, coeff in out.items():
                assert straighten(tab) == {tab: Fraction(1)}

    @pytest.mark.parametrize("shape", [(2,), (2, 1), (2, 2), (2, 2, 1)])
    def test_matches_bideterminant_identity(self, shape):
        """Straightening must be an identity among bideterminants: the
        polynomial of the input filling equals the signed sum of the
        polynomials of the output tableaux."""
        N = 4
        syms = {
            (i, j): sympy.Symbol(f"x_{i}_{j}")
            for i in range(1, N + 1)
            for j in range(1, len(shape) + 1)
        }
        rng = random.Random(shape[0] * 10 + len(shape))
        for _ in range(12):
            filling = tuple(
                tuple(rng.randint(1, N) for _ in range(k)) for k in shape
            )
            lhs = bideterminant(filling, syms)
            rhs = sympy.Integer(0)
            for tab, coeff in straighten(filling).items():
                rhs += sympy.Rational(coeff.numerator, coeff.denominator) * \
                    bideterminant(tab, syms)
            assert sympy.expand(lhs - rhs) == 0


class TestKostka:
    def test_known_values(self):
        assert kostka_number((2, 1), (1, 1, 1)) == 2
        assert kostka_number((2, 2), (1, 1, 1, 1)) == 2
        assert kostka_number((3,), (1, 1, 1)) == 1
        assert kostka_number((1, 1, 1), (1, 1, 1)) == 1
        assert kostka_number((2, 1), (3,)) == 0

    def test_sum_over_contents_is_dimension(self):
        shape, N = (2, 1), 3
        total = 0
        for content in product(range(4), repeat=N):
            if sum(content) == sum(shape):
                total += kostka_number(shape, content)
        assert total == schur_dim(shape, N)


class TestAddBoxes:
    def test_examples(self):
        assert add_boxes_shape(PI3, PIERI_ROWS) == (3,) + PI3
        assert add_boxes_shape((2, 1), (1,)) == (3, 1)
        assert add_boxes_shape((1,), (2,)) == (1, 1)

    def test_errors(self):
        with pytest.raises(ValueError):
            add_boxes_shape((2, 1), (1, 1))
        with pytest.raises(ValueError):
            add_boxes_shape((1, 1), (3, 2))  # two new boxes in column one
        with pytest.raises(ValueError):
            add_boxes_shape((2,), (5,))


class TestPieriMatrix:
    def test_symmetrization_map_for_a_single_box(self):
        # shape (1) with one box added in row 1 is V x V -> S^2 V: the
        # column of variable v has entries at the sorted pairs (v, w)
        phi = determinant_poly(1)  # the single variable x_11, n = 1
        # use a 3-letter alphabet by lifting phi to n encoded via N
        M = pieri_flattening_matrix(phi, (1,), (1,), 3)
        assert [t for t in M.cols] == [((1,),), ((2,),), ((3,),)]
        got = {(M.rows[r], M.cols[c]): v for r, c, v in M.entries}
        assert got == {
            (((1, 1),), ((1,),)): Fraction(1),
            (((1, 2),), ((2,),)): Fraction(1),
            (((1, 3),), ((3,),)): Fraction(1),
        }

    def test_paper_matrix_is_square_1050(self):
        M = pieri_flattening_matrix(determinant_poly(3), PI3, PIERI_ROWS, 9)
        assert (len(M.rows), len(M.cols)) == (1050, 1050)

    @pytest.mark.parametrize(
        "poly,rank",
        [(variable_power((3, 3), 3, 3), 70), (determinant_poly(3), 950)],
    )
    def test_paper_ranks(self, poly, rank):
        M = pieri_flattening_matrix(poly, PI3, PIERI_ROWS, 9)
        assert rank_mod_p([(1, M)]).rank == rank

    def test_scale_invariance_of_rank(self):
        phi = determinant_poly(3)
        a = pieri_flattening_matrix(phi, PI3, PIERI_ROWS, 9)
        b = pieri_flattening_matrix(scale(phi, Fraction(3, 7)), PI3, PIERI_ROWS, 9)
        assert rank_mod_p([(1, a)]).rank == rank_mod_p([(1, b)]).rank

    def test_cubed_variable_column_structure(self):
        # for the cube of the last variable every image tableau contains
        # three copies of the label 9
        M = pieri_flattening_matrix(variable_power((3, 3), 3, 3), PI3, PIERI_ROWS, 9)
        for r, c, v in M.entries:
            tab = M.rows[r]
            assert sum(row.count(9) for row in tab) >= 3

    def test_content_bookkeeping(self):
        M = pieri_flattening_matrix(determinant_poly(2), (2, 1), (1, 2), 4)
        monomial_labels = {
            tuple(sorted(k + 1 for k, e in enumerate(exps) for _ in range(e)))
            for exps in determinant_poly(2).terms
        }
        for r, c, v in M.entries:
            col_content = sorted(x for row in M.cols[c] for x in row)
            row_content = sorted(x for row in M.rows[r] for x in row)
            added = tuple(sorted(set_diff(row_content, col_content)))
            assert added in monomial_labels

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            pieri_flattening_matrix(determinant_poly(2), PI3, PIERI_ROWS, 9)

    def test_blocks_reject_bad_args(self):
        with pytest.raises(ValueError, match="added boxes"):
            pieri_blocks(determinant_poly(2), PI3, PIERI_ROWS)


class TestPieriColumnImage:
    @pytest.mark.parametrize("phi,shape,rows,N", [
        pytest.param(determinant_poly(3), PI3, PIERI_ROWS, 9, id="det3"),
        pytest.param(permanent_poly(3), PI3, PIERI_ROWS, 9, id="perm3"),
        pytest.param(scale(random_low_rank(2, 3, 3, 5), Fraction(2, 7)), PI3, PIERI_ROWS, 9,
                     id="non-graded-fractions"),
        pytest.param(determinant_poly(2), (2, 1), (1, 2), 4, id="new-column"),
        pytest.param(determinant_poly(2), (2, 1), (1, 3), 4, id="new-row"),
    ])
    def test_matches_straightening_the_whole_filling(self, phi, shape, rows, N):
        """One insertion per added box gives the image, and the order of its
        terms, of straightening each whole filling."""
        tabs = ssyt_enumerate(shape, N)
        for T in random.Random(3).sample(tabs, min(40, len(tabs))):
            assert pieri_column_image(pieri_arrangements(phi), T, rows) == \
                pieri_column_image_by_straightening(phi, T, rows)


def sparse_cubic(rng, terms: int) -> Polynomial:
    """A cubic in the 9 variables of a 3x3 matrix with `terms` random
    monomials, each with a random nonzero coefficient: few terms keep the
    one block of a non-graded cubic quick to build."""
    out: dict = {}
    while len(out) < terms:
        exps = [0] * 9
        for k in rng.choices(range(9), k=3):
            exps[k] += 1
        out[tuple(exps)] = rng.choice((-1, 1)) * rng.randint(1, 5)
    return Polynomial(3, 3, out)


def sparse_cube(rng) -> Polynomial:
    """The cube of a linear form with random nonzero coefficients on three
    random variables."""
    coeffs = [0] * 9
    for k in rng.sample(range(9), 3):
        coeffs[k] = rng.choice((-1, 1)) * rng.randint(1, 5)
    return linear_form_power(coeffs, 3, 3)


def pieri_rank(phi) -> int:
    return rank_mod_p(pieri_blocks(phi, PI3, PIERI_ROWS)).rank


class TestPieriOnCubes:
    """The Pieri map is GL_9-equivariant in its cubic, so the cube of any
    linear form has the rank PIERI_T of a cubed variable, and a sum of r
    cubes a bound of at most r."""

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_cube_of_a_linear_form_has_rank_t(self, seed):
        cube = (linear_form_power([1, 2] + [0] * 7, 3, 3) if seed is None
                else sparse_cube(random.Random(seed)))
        assert pieri_rank(cube) == PIERI_T

    @pytest.mark.parametrize("r,seed", [(2, 3), (2, 4), (3, 5)])
    def test_r_cubes_bound_at_most_r(self, r, seed):
        rng = random.Random(seed)
        cubes = sparse_cube(rng)
        for _ in range(r - 1):
            cubes = add(cubes, sparse_cube(rng))
        assert flattening_bound(pieri_rank(cubes), PIERI_T) <= r

    def test_rank_is_unchanged_under_row_column_action(self):
        """perm3 with X -> A X B, A = I + E_12 and B = I + E_21, has 14
        terms and is not bigraded, so it is one block."""
        A = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        B = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
        P = substitute_row_column(permanent_poly(3), A, B)
        assert pieri_rank(P) == pieri_rank(permanent_poly(3)) == 934

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_full_map_at_d1_p4(self, seed):
        """`koszul-full --d 1 --p 4` gives det3 and perm3 their Pieri ranks
        (`verify --suite paper`), and so it does on random cubics: two cubes
        and `seed` random monomials.  (On random monomials alone a wrong
        weight per monomial only rescales the coefficients, which does not
        change a generic rank.)"""
        rng = random.Random(seed)
        phi = add(add(sparse_cube(rng), sparse_cube(rng)), sparse_cubic(rng, seed))
        assert pieri_rank(phi) == rank_mod_p(full_koszul_blocks(phi, 1, 4)).rank


def set_diff(big, small):
    out = list(big)
    for x in small:
        out.remove(x)
    return out
