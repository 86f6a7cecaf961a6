import json
import random
from fractions import Fraction
from math import ceil, comb, factorial

import pytest

from flatrank import bounds
from flatrank.bounds import (
    BoundCertificate,
    f_formula,
    flattening_bound,
    image_dim_identity,
    main_theorem_value,
    optimal_d,
    preliminary_theorem_value,
    reference_bounds,
)
from flatrank.partitions import theoretical_image_dim
from oracles import theoretical_matches_f


class TestFlatteningBound:
    def test_examples(self):
        assert flattening_bound(560, 15) == 38
        assert flattening_bound(29376, 276) == 107
        assert flattening_bound(950, 70) == 14
        assert flattening_bound(934, 70) == 14
        assert flattening_bound(0, 5) == 0

    def test_ceiling_contract(self):
        rng = random.Random(0)
        for _ in range(1000):
            r = rng.randint(0, 1000)
            t = rng.randint(1, 1000)
            b = flattening_bound(r, t)
            assert b * t >= r
            assert r == 0 or (b - 1) * t < r

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            flattening_bound(5, 0)
        with pytest.raises(ValueError):
            flattening_bound(-1, 5)


class TestFormulas:
    def test_preliminary_values(self):
        assert preliminary_theorem_value(4) == Fraction(560, 15)
        assert ceil(preliminary_theorem_value(4)) == 38
        # odd case at n = 5
        assert preliminary_theorem_value(5) == (1 + Fraction(8, 4 * 64)) * 100
        with pytest.raises(ValueError):
            preliminary_theorem_value(2)

    def test_preliminary_value_is_the_wedge_1_image_dimension(self):
        """The wedge-1 theorem's value times t = n^2 - 1 is the module
        dimension count of the minor map at (n, n // 2, 1), the rank that
        `verify` certifies at n = 5..8."""
        for n in range(3, 17):
            assert preliminary_theorem_value(n) * (n * n - 1) == \
                theoretical_image_dim(n, n // 2, 1), n

    def test_main_values(self):
        v5 = main_theorem_value(5)
        assert v5 == Fraction(29376, 276)
        assert v5 == Fraction(2448, 23)
        assert ceil(v5) == 107
        with pytest.raises(ValueError):
            main_theorem_value(4)

    def test_main_beats_preliminary(self):
        for n in range(5, 21):
            assert main_theorem_value(n) > preliminary_theorem_value(n)

    def test_bounds_beat_classical(self):
        for n in range(5, 21):
            classical = comb(n, n // 2) ** 2
            assert ceil(preliminary_theorem_value(n)) > classical
            assert ceil(main_theorem_value(n)) > classical

    def test_f_formula_matches_module_dimensions(self):
        cases = [(n, d) for n in range(4, 9) for d in range(2, n - 1)]
        for n, d in cases + [(100, 50), (200, 100)]:
            assert theoretical_matches_f(n, d)

    def test_image_dim_identity(self):
        for n in range(5, 13):
            assert image_dim_identity(n)

    def test_optimal_d_is_half(self):
        for n in range(5, 201):
            assert optimal_d(n) == n // 2

    def test_f_formula_domain(self):
        with pytest.raises(ValueError):
            f_formula(4, 3)
        with pytest.raises(ValueError):
            f_formula(4, 0)


class TestReferenceBounds:
    def test_det4(self):
        ref = reference_bounds(4)
        assert ref["classical_border_lower"] == 36
        assert ref["preliminary_bound"] == 38
        assert "main_bound" not in ref
        assert ref["symmetric_rank_lower"] == 36 + 16 - 9

    def test_det5(self):
        ref = reference_bounds(5)
        assert ref["main_bound"] == 107
        assert ref["classical_border_lower"] == 100

    def test_perm3(self):
        ref = reference_bounds(3, "perm")
        assert ref["perm3_border_lower"] == 14
        assert ref["perm3_border_upper"] == 16

    @pytest.mark.parametrize("n", [4, 5, 152, 600])
    def test_symmetric_rank_upper_is_exact_at_any_n(self, n):
        """5^k 2^(n-1) n! / 6^k, k = n // 3, is an integer, kept exact: as
        a float it overflows from n = 152."""
        want = Fraction(5 ** (n // 3) * 2 ** (n - 1) * factorial(n), 6 ** (n // 3))
        got = reference_bounds(n)["symmetric_rank_upper"]
        assert type(got) is int and got == want

    def test_large_n_has_every_exact_value(self):
        """The float estimate overflows from n = 512 and is left out there;
        the exact values stay, so the `bound` table prints at any n."""
        assert set(reference_bounds(152)) == set(reference_bounds(511)) == {
            "n", "poly", "classical_border_lower", "preliminary_bound", "main_bound",
            "symmetric_rank_lower", "symmetric_rank_upper", "asymptotic_estimate"}
        ref = reference_bounds(600)
        assert "asymptotic_estimate" not in ref
        assert ref["main_bound"] == ceil(main_theorem_value(600))
        assert ref["classical_border_lower"] == comb(600, 300) ** 2

    def test_asymptotics_track_the_bound(self):
        # the float estimate should approximate the exact main value
        for n in (8, 12, 16, 20):
            est = reference_bounds(n)["asymptotic_estimate"]
            exact = float(main_theorem_value(n))
            assert abs(est - exact) / exact < 0.25


class TestBoundCertificate:
    def make(self):
        return BoundCertificate(
            polynomial="det", method="koszul_minor", n=4, d=2, p=1,
            rank_F=560, t=15,
        )

    def test_bound_property(self):
        assert self.make().bound == 38

    def test_json(self):
        rec = json.loads(self.make().to_json())
        assert rec == {
            "poly": "det", "n": 4, "method": "koszul_minor", "d": 2, "p": 1,
            "rank": 560, "t": 15, "bound": 38, "provenance": [],
        }

    def test_inconsistent_bound_raises(self, monkeypatch):
        monkeypatch.setattr(bounds, "flattening_bound", lambda rank, t: 1)
        with pytest.raises(ValueError, match="ceil"):
            self.make()

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError):
            BoundCertificate(
                polynomial="det", method="koszul_minor", n=4, d=2, p=1,
                rank_F=-1, t=15,
            )
