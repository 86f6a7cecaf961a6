import hashlib
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatrank.exact_linalg import (
    _BYTES_PER_ENTRY,
    DEFAULT_PRIME,
    MemoryCapExceeded,
    is_prime,
    rank_mod_p,
    rank_rational,
    sparse_rank,
)
import flatrank
from flatrank.flattening import FlatteningMatrix, highest_weight_blocks
from oracles import dense_rank_bareiss, dense_rank_mod_p


def make_matrix(dense, kind="test"):
    nrows, ncols = len(dense), len(dense[0]) if dense else 0
    entries = [
        (r, c, v)
        for r, row in enumerate(dense)
        for c, v in enumerate(row)
        if v
    ]
    return FlatteningMatrix(nrows, list(range(ncols)), entries, kind)


def random_dense(rng, nrows, ncols, density=0.3, lo=-5, hi=5):
    return [
        [rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


class TestPrimeField:
    def test_default_is_prime(self):
        assert rank_mod_p([]).prime == DEFAULT_PRIME

    def test_rejects_composite(self):
        for prime in (1073741790, 2, 2**89 - 1):
            with pytest.raises(ValueError):
                rank_mod_p([], prime)

    def test_is_prime(self):
        assert is_prime(2) and is_prime(1073741789) and is_prime(999999937)
        assert not is_prime(1) and not is_prime(561) and not is_prime(10**9)

    @pytest.mark.parametrize("m,prime", [
        # 41 * 43 passes trial division; mod 1763, [[41, 1], [41, 1]] would have rank 2
        (1763, False),
        (3215031751, False),  # 151 * 751 * 28351, strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, False),  # strong pseudoprime to every prime base up to 23
        (2**61 - 1, True),
        (2**62 - 57, True),
    ])
    def test_miller_rabin_past_trial_division(self, m, prime):
        assert is_prime(m) is prime


class TestSparseRank:
    def test_zero_matrix(self):
        assert sparse_rank([], p=101) == 0

    def test_identity_pattern(self):
        entries = [(i, i, 1) for i in range(7)]
        assert sparse_rank(entries, p=101) == 7
        assert sparse_rank(entries, p=None) == 7

    def test_non_int_entries_are_refused(self):
        """A rational entry reduced mod p would give a wrong rank silently,
        so only ints are ranked, on either route, whatever their value."""
        for v in (Fraction(1, 5), Fraction(2), 2.0):
            for p in (5, None):
                with pytest.raises(TypeError, match=re.escape(f"entry (0,1) is {v!r}, not an int")):
                    sparse_rank([(0, 0, 1), (0, 1, v)], p=p)

    def test_duplicate_entries_are_refused(self):
        for p in (5, None):
            with pytest.raises(ValueError, match=re.escape("duplicate entry at (1,2)")):
                sparse_rank([(0, 0, 1), (1, 2, 3), (1, 2, 4)], p=p)

    def test_matches_dense_oracle(self):
        rng = random.Random(0)
        for _ in range(60):
            nr, nc = rng.randint(1, 12), rng.randint(1, 12)
            dense = random_dense(rng, nr, nc, density=0.5)
            entries = [
                (r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v
            ]
            want = dense_rank_mod_p(np.array(dense), 1009)
            assert sparse_rank(entries, p=1009) == want

    def test_permutation_invariance(self):
        rng = random.Random(5)
        for _ in range(30):
            nr, nc = rng.randint(2, 15), rng.randint(2, 15)
            dense = random_dense(rng, nr, nc)
            entries = [
                (r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v
            ]
            base = sparse_rank(entries, p=1009)
            pr = list(range(nr))
            pc = list(range(nc))
            rng.shuffle(pr)
            rng.shuffle(pc)
            perm_entries = [(pr[r], pc[c], v) for r, c, v in entries]
            assert sparse_rank(perm_entries, p=1009) == base
            assert sparse_rank(perm_entries, p=None) == dense_rank_bareiss(dense)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rational_matches_bareiss(self, data):
        """Fraction-free elimination over Q equals the dense Bareiss oracle
        on int matrices: small entries or entries up to 10^12, sparse or
        dense, some rows sharing a common factor and some rows integer
        combinations of others, glued block-diagonally or not."""
        bound = data.draw(st.sampled_from([6, 10**12]))
        value = st.integers(-bound, bound)
        entry = data.draw(st.sampled_from([value, st.one_of(st.just(0), st.just(0), value)]))

        def block():
            nr, nc = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
            rows = data.draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                                      min_size=nr, max_size=nr))
            factor = data.draw(st.integers(2, 10**6))
            rows = [[factor * v for v in row] if data.draw(st.booleans()) else row
                    for row in rows]
            for _ in range(data.draw(st.integers(0, 2))):
                i, j = (data.draw(st.integers(0, nr - 1)) for _ in range(2))
                a, b = data.draw(value), data.draw(value)
                rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
            return rows

        blocks = [block() for _ in range(data.draw(st.integers(1, 3)))]
        ncols = sum(len(b[0]) for b in blocks)
        dense, left = [], 0
        for b in blocks:
            dense += [[0] * left + row + [0] * (ncols - left - len(row)) for row in b]
            left += len(b[0])
        entries = [
            (r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v
        ]
        assert sparse_rank(entries, p=None) == dense_rank_bareiss(dense)

    @pytest.mark.parametrize("density", [0.15, 1.0])
    def test_rational_rank_of_low_rank_products(self, density):
        """A product of an n x k and a k x m int matrix, with entries up to
        10^6 and so products up to k * 10^12, has rank at most k: the
        fraction-free route equals the Bareiss oracle on it."""
        rng = random.Random(11)
        for n, k, m in [(12, 5, 9), (20, 13, 20), (25, 24, 30)]:
            A = random_dense(rng, n, k, density, -10**6, 10**6)
            B = random_dense(rng, k, m, density, -10**6, 10**6)
            dense = [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]
            entries = [(r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v]
            assert sparse_rank(entries, p=None) == dense_rank_bareiss(dense) <= k

    def test_memory_cap(self):
        rng = random.Random(1)
        dense = random_dense(rng, 20, 20, density=0.9)
        entries = [
            (r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v
        ]
        with pytest.raises(MemoryCapExceeded):
            sparse_rank(entries, p=1009, memory_cap_bytes=1000)

    def test_memory_cap_boundary_mid_elimination(self):
        """A 12x12 circulant band (row i holds columns i, i+1, i+3 mod 12)
        starts at 36 entries and peaks at 44 during elimination, the
        entries of eliminated pivot rows included: a cap of 44 entries
        lets it finish, a cap of 43 stops it mid-way.  The fraction-free
        route over Q has the same fill."""
        entries = [(i, (i + k) % 12, 1 + i + k) for i in range(12) for k in (0, 1, 3)]
        cap = 44 * _BYTES_PER_ENTRY
        for p in (1009, None):
            assert sparse_rank(entries, p=p, memory_cap_bytes=cap) == 12
            with pytest.raises(MemoryCapExceeded, match="fill reached 44 entries, over cap 43"):
                sparse_rank(entries, p=p, memory_cap_bytes=cap - 1)

    def test_entry_price_covers_the_traced_bytes(self):
        """The largest highest-weight block of det12 p=2 has no fill: a cap
        of its initial entries lets it finish.  The bytes tracemalloc finds
        at the elimination's peak are within `_BYTES_PER_ENTRY` per entry."""
        B = max((B for _, B in highest_weight_blocks(12, 6, 2)), key=lambda B: len(B.entries))
        cap = len(B.entries) * _BYTES_PER_ENTRY
        sparse_rank(B.entries, p=DEFAULT_PRIME, memory_cap_bytes=cap)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sparse_rank(B.entries, p=DEFAULT_PRIME)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert 0 < peak <= cap


class TestDenseBareiss:
    def test_simple(self):
        assert dense_rank_bareiss([[1, 2], [2, 4]]) == 1
        assert dense_rank_bareiss([[1, 2], [3, 4]]) == 2
        assert dense_rank_bareiss([[0, 0], [0, 0]]) == 0
        assert dense_rank_bareiss([]) == 0

    def test_fractions(self):
        assert dense_rank_bareiss([[Fraction(1, 2), 1], [1, 2]]) == 1

    def test_against_numpy_modular(self):
        rng = random.Random(7)
        for _ in range(40):
            nr, nc = rng.randint(1, 10), rng.randint(1, 10)
            dense = random_dense(rng, nr, nc, density=0.6)
            # entries are tiny, so rank mod a 30-bit prime equals rational rank
            assert dense_rank_bareiss(dense) == dense_rank_mod_p(
                np.array(dense), 1073741789
            )


class TestRandomBattery:
    def test_modular_vs_rational_500(self):
        """Modular never exceeds rational; disagreements are rare."""
        rng = random.Random(2024)
        disagreements = 0
        for _ in range(500):
            nr, nc = rng.randint(1, 40), rng.randint(1, 40)
            dense = random_dense(rng, nr, nc, density=0.2)
            M = make_matrix(dense)
            rational = dense_rank_bareiss(dense)
            for prime in (1073741789, 999999937):
                modular = sparse_rank(M.entries, p=prime)
                assert modular <= rational
                if modular != rational:
                    disagreements += 1
        assert disagreements <= 5

    def test_deliberate_modular_deficiency(self):
        # a matrix whose rank drops mod 7 but not rationally
        M = make_matrix([[7, 0], [0, 1]])
        assert sparse_rank(M.entries, p=7) == 1
        assert rank_rational([(1, M)]).rank == 2


class TestCertificates:
    def test_determinism(self):
        M = make_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        a = rank_mod_p([(1, M)])
        b = rank_mod_p([(1, M)])
        assert (a.rank, a.prime, a.matrix_hash) == (b.rank, b.prime, b.matrix_hash)

    def test_modular_is_flagged_lower_bound_only(self):
        M = make_matrix([[1, 2], [3, 4]])
        assert rank_mod_p([(1, M)]).to_json_dict()["rational_lower_bound_only"]
        assert not rank_rational([(1, M)]).to_json_dict()["rational_lower_bound_only"]

    def test_orbit_weighting(self):
        """The certified rank is the sum of orbit_size * rank(block)."""
        a = make_matrix([[1, 2], [2, 4]])
        b = make_matrix([[1, 0], [0, 1]], kind="other")
        for certify in (rank_mod_p, rank_rational):
            cert = certify([(3, a), (1, b)])
            assert (cert.rank, cert.orbits, cert.blocks) == (5, 2, 4)
            assert cert.block_ranks == [1, 2]
            assert cert.matrix_hash != certify([(1, a), (3, b)]).matrix_hash

    def test_json_dict(self):
        M = make_matrix([[1]])
        d = rank_mod_p([(1, M)]).to_json_dict()
        assert set(d) == {
            "rank", "method", "primes_used", "matrix_hash", "elapsed_ms",
            "rational_lower_bound_only", "orbits", "blocks",
        }
        cert = rank_mod_p([(1, M)])
        cert.modules = [{"a": [1], "b": [1], "m": 1, "schur_max": 1}]
        assert cert.to_json_dict()["modules"] == cert.modules

    @pytest.mark.parametrize("certify", [rank_mod_p, rank_rational])
    def test_elapsed_times_the_elimination_only(self, monkeypatch, certify):
        """Both certificates time the same window, so a slow hash shows in
        neither."""
        M = make_matrix([[1, 2], [3, 4]])
        monkeypatch.setattr(M, "basis_hash", lambda: time.sleep(0.2) or "slow")
        cert = certify([(1, M)])
        assert cert.matrix_hash == hashlib.sha256(b"1:slow;").hexdigest()[:16]
        assert cert.elapsed < 0.1

    def test_basis_hash_covers_kind_shape_columns_and_entries(self):
        """Equal (kind, nrows, cols, entries) hash alike, an int entry like
        an equal Fraction; the row count, the kind, a column label or one
        entry changes the hash."""
        cols, entries = [(0, 1), (2,)], [(0, 0, 1), (2, 1, Fraction(-3, 2))]
        base = FlatteningMatrix(3, cols, entries, "k").basis_hash()
        same = FlatteningMatrix(3, [(0, 1), (2,)], [(0, 0, Fraction(1)), (2, 1, Fraction(-3, 2))],
                                "k", weight=((1,), (1,)))
        assert same.basis_hash() == base
        for other in (FlatteningMatrix(4, cols, entries, "k"),
                      FlatteningMatrix(3, cols, entries, "j"),
                      FlatteningMatrix(3, [(0, 1), (3,)], entries, "k"),
                      FlatteningMatrix(3, cols, [(0, 0, 1), (2, 1, Fraction(3, 2))], "k")):
            assert other.basis_hash() != base

    def test_rational_rank_has_no_size_guard_of_its_own(self):
        """A block far past rows*cols = 10^7 and 10^5 nonzeros, the shape
        the Fraction-era guard refused over Q, ranks on both routes."""
        entries = [(i, i, 1) for i in range(150_000)]
        M = FlatteningMatrix(200_000, list(range(200_000)), entries, "big")
        assert rank_rational([(1, M)]).rank == rank_mod_p([(1, M)]).rank == 150_000


class TestComponents:
    def test_component_ranks_sum(self):
        rng = random.Random(9)
        # two independent random blocks glued block-diagonally
        a = random_dense(rng, 6, 6, density=0.7)
        b = random_dense(rng, 5, 7, density=0.7)
        dense = [row + [0] * 7 for row in a] + [[0] * 6 + row for row in b]
        M = make_matrix(dense)
        assert rank_rational([(1, M)]).rank == dense_rank_bareiss(a) + dense_rank_bareiss(b)


def test_importing_the_cli_does_not_load_numpy():
    """numpy serves only the dense_rank_mod_p test oracle, so a command line
    process does not pay for importing it."""
    src = str(Path(flatrank.__file__).resolve().parents[1])
    code = "import flatrank.cli, sys; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"
