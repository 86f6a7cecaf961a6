import gc
import random
import re
import tracemalloc
from collections import Counter
import tempfile
import time
import weakref
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from flatrank.exact_linalg import (
    DEFAULT_MEMORY_CAP_BYTES,
    DEFAULT_PRIME,
    rank_mod_p,
    rank_rational,
    sparse_rank,
)
import flatrank.flattening as flattening
import flatrank.partitions as partitions
from flatrank.flattening import (
    full_column_image,
    full_koszul_blocks,
    highest_weight_blocks,
    image_modules,
    minor_column_image,
    minor_orbit_blocks,
    minor_raisings,
    wedge_insert,
    weight_blocks,
)
from flatrank.partitions import candidate_image, schur_dim, theoretical_image_dim
from flatrank.polynomials import (
    Polynomial,
    determinant_poly,
    is_bigraded,
    is_symmetric,
    permanent_poly,
    sort_sign,
    var_index,
    variable_power,
)
from schur_flattening import PI3, PIERI_ROWS, PIERI_T, _tableau_groups, pieri_blocks
from flatrank.cli import certificate, flattening_blocks, load_polynomial
from oracles import (
    ALL_LEMMAS,
    P1_LEMMAS,
    P2_LEMMAS,
    apply_minor_map,
    bidegree_of_label as _bidegree_of_label,
    full_column_image_by_partials,
    full_domain_basis,
    full_koszul_matrix,
    group_by_weight,
    hwv_vector,
    lemma_shapes,
    minor_codomain_basis,
    minor_columns_by_scan,
    minor_domain_basis,
    minor_koszul_matrix,
    minor_poly,
    monomials_of_degree,
    partial,
    pieri_column_image_by_straightening,
    pieri_flattening_matrix,
    polynomial_json,
    raise_weight,
    random_low_rank,
    scale,
    ssyt_enumerate,
    substitute_row_column,
    verify_hwv_nonzero,
)


class TestWedge:
    def test_insert_signs(self):
        assert wedge_insert((1, 3), 0) == (1, (0, 1, 3))
        assert wedge_insert((1, 3), 2) == (-1, (1, 2, 3))
        assert wedge_insert((1, 3), 5) == (1, (1, 3, 5))
        assert wedge_insert((1, 3), 3) is None

    def test_canon(self):
        assert sort_sign([3, 1]) == (-1, (1, 3))
        assert sort_sign([1, 3]) == (1, (1, 3))
        assert sort_sign([2, 2]) is None
        assert sort_sign([5, 1, 3]) == (1, (1, 3, 5))


class TestMinorMap:
    def test_basis_sizes(self):
        for n, d, p in [(3, 1, 1), (4, 2, 2), (5, 2, 2)]:
            nv = n * n
            assert len(minor_domain_basis(n, d, p)) == comb(n, d) ** 2 * comb(nv, p)
            assert (
                len(minor_codomain_basis(n, d, p))
                == comb(n, d + 1) ** 2 * comb(nv, p + 1)
            )

    def test_entry_signs_match_minor_derivatives(self):
        """The Laplace signs in the map must agree with actual partial
        derivatives of the corresponding minors."""
        for n in (3, 4):
            for size in range(2, n + 1):
                for I in combinations(range(1, n + 1), size):
                    for J in combinations(range(1, n + 1), size):
                        Delta = minor_poly(n, I, J)
                        for pi, i in enumerate(I, start=1):
                            for pj, j in enumerate(J, start=1):
                                got = partial(Delta, var_index(i, j, n))
                                comp = minor_poly(
                                    n,
                                    tuple(x for x in I if x != i),
                                    tuple(x for x in J if x != j),
                                )
                                sign = 1 if (pi + pj) % 2 == 0 else -1
                                want = scale(comp, sign)
                                assert got.terms == want.terms

    def test_column_image_coefficients_are_units(self):
        for label in minor_domain_basis(3, 1, 2)[:50]:
            for _, coeff in minor_column_image(3, label):
                assert coeff in (1, -1)

    def test_grading_preserved(self):
        M = minor_koszul_matrix(3, 1, 2)
        for r, c, _ in M.entries:
            assert _bidegree_of_label(M.cols[c], 3) == _bidegree_of_label(
                M.rows[r], 3
            )

    @pytest.mark.parametrize(
        "n,d,p,rank",
        [(2, 1, 1, 6), (3, 1, 1, 80), (3, 2, 1, 36), (3, 1, 2, 315),
         (3, 2, 2, 84), (4, 2, 1, 560)],
    )
    def test_rank_equals_module_dimension_count(self, n, d, p, rank):
        M = minor_koszul_matrix(n, d, p)
        assert rank_mod_p([(1, M)]).rank == rank
        assert theoretical_image_dim(n, d, p) == rank

    def test_rejects_bad_args(self):
        for build in (minor_koszul_matrix, lambda *a: list(minor_orbit_blocks(*a))):
            with pytest.raises(ValueError):
                build(3, 1, 3)
            with pytest.raises(ValueError):
                build(3, 3, 1)

    def test_grading_check_raises(self, monkeypatch):
        image = flattening.minor_column_image

        def misgraded(n, label):  # moves the row of the 1 x 1 remainder minor
            return [((tuple(i % n + 1 for i in I), J, w), c)
                    for (I, J, w), c in image(n, label)]

        monkeypatch.setattr(flattening, "minor_column_image", misgraded)
        with pytest.raises(RuntimeError, match="another weight"):
            minor_koszul_matrix(3, 1, 1)


def _orbit_key(weight):
    """The S_n x S_n x transpose orbit of a weight pair, as its dominant
    representative with wa <= wb."""
    wa, wb = (tuple(sorted(w, reverse=True)) for w in weight)
    return min((wa, wb), (wb, wa))


def _label_weight(n, plus=(), minus=()):
    """Torus weight of the variables `plus` minus the monomial `minus`."""
    wa, wb = [0] * n, [0] * n
    for x in plus:
        wa[x // n] += 1
        wb[x % n] += 1
    for x, e in enumerate(minus):
        wa[x // n] -= e
        wb[x % n] -= e
    return tuple(wa), tuple(wb)


def _dividing(P, duals) -> set:
    """The dual monomials among `duals` that divide a monomial of P, found
    by intersecting, over each a's variables k, the sets of terms m with
    m[k] >= a[k]."""
    terms = list(P.terms)
    reaching = cache(lambda k, e: {i for i, m in enumerate(terms) if m[k] >= e})
    return {a for a in set(duals)
            if set.intersection(*(reaching(k, e) for k, e in enumerate(a) if e))}


def _exponents(a, nv: int) -> tuple:
    """The exponent vector of a monomial given as its variables."""
    return tuple(map(a.count, range(nv)))


def _variables(exps) -> tuple:
    """The variables of a monomial, with repetition, in increasing order."""
    return tuple(k for k, e in enumerate(exps) for _ in range(e))


@st.composite
def polys_with_powers(draw):
    """A polynomial in the n*n variables of an n x n matrix, n <= 3, of
    degree 2..8, with up to six terms whose variables are drawn from the
    first few, so that variables repeat and powers up to the degree occur."""
    n, degree = draw(st.integers(1, 3)), draw(st.integers(2, 8))
    few = st.integers(0, draw(st.integers(0, n * n - 1)))
    monomials = draw(st.lists(st.lists(few, min_size=degree, max_size=degree),
                              min_size=1, max_size=6))
    return Polynomial(n, degree, {_exponents(m, n * n): draw(st.sampled_from((-2, -1, 1, 3)))
                                  for m in monomials})


def _with_exponent_labels(blocks, nv: int) -> list:
    """The full map's blocks with each column (w, a) relabelled (w, exponent
    vector of a), the labels of the oracle."""
    blocks = list(blocks)
    for _, B in blocks:
        B.cols = [(w, _exponents(a, nv)) for w, a in B.cols]
    return blocks


def assert_blocks_match_whole(M, weight_of, blocks, symmetric, keeps=lambda label: True):
    """Soundness gate: split the whole matrix by column weight.  Block ranks
    are constant on each orbit; each yielded block holds the columns of one
    weight that `keeps` takes, one per orbit when symmetric, with the
    orbit's size and rank; a column `keeps` drops is zero in the whole
    matrix; the certified orbit-reduced rank = all-blocks = whole-matrix
    rank, which is returned."""
    key = _orbit_key if symmetric else (lambda w: w)
    weight_of_col = [weight_of(label) for label in M.cols]
    split = {w: [] for w in weight_of_col}
    for r, c, v in M.entries:
        assert keeps(M.cols[c])
        split[weight_of_col[c]].append((r, c, v))
    orbit_ranks: dict = {}
    for w, entries in split.items():
        rank = sparse_rank(entries, p=DEFAULT_PRIME)
        orbit_ranks.setdefault(key(w), []).append(rank)
    for ranks in orbit_ranks.values():
        assert len(set(ranks)) == 1

    assert {key(B.weight) for _, B in blocks} == {
        key(w) for label, w in zip(M.cols, weight_of_col) if keeps(label)}
    for size, B in blocks:
        assert set(B.cols) == {
            label for label, w in zip(M.cols, weight_of_col) if w == B.weight and keeps(label)
        }
        ranks = orbit_ranks[key(B.weight)]
        assert size == len(ranks) and rank_mod_p([(1, B)]).rank == ranks[0]
    orbit_reduced = rank_mod_p(blocks).rank
    all_blocks = sum(sum(ranks) for ranks in orbit_ranks.values())
    assert orbit_reduced == all_blocks == rank_mod_p([(1, M)]).rank
    return orbit_reduced


def _full_case(P, d, p):
    M = full_koszul_matrix(P, d, p)
    dividing = _dividing(P, (a for _, a in M.cols))
    return (M, _with_exponent_labels(full_koszul_blocks(P, d, p), P.n * P.n),
            lambda label: _label_weight(P.n, label[0], label[1]),
            lambda label: label[1] in dividing)


def _pieri_case(P):
    return (pieri_flattening_matrix(P, PI3, PIERI_ROWS, 9),
            pieri_blocks(P, PI3, PIERI_ROWS),
            lambda T: _label_weight(3, [v - 1 for row in T for v in row]),
            lambda T: True)


# the whole minor matrices are slow to build; two test classes share them
whole_minor_matrix = cache(minor_koszul_matrix)


class TestOrbitBlocks:
    @pytest.mark.parametrize("n,d,p", [(4, 2, 1), (4, 2, 2), (5, 2, 2)])
    def test_orbit_reduced_equals_all_blocks_equals_whole(self, n, d, p):
        M = whole_minor_matrix(n, d, p)
        assert_blocks_match_whole(M, lambda label: _bidegree_of_label(label, n),
                                  list(minor_orbit_blocks(n, d, p)), symmetric=True)

    @pytest.mark.parametrize("case,symmetric,rank", [
        pytest.param(lambda: _full_case(determinant_poly(3), 1, 2), True, 315,
                     id="full-det3-1-2"),
        pytest.param(lambda: _full_case(determinant_poly(4), 2, 2), True, 4065,
                     id="full-det4-2-2"),
        pytest.param(lambda: _full_case(permanent_poly(4), 2, 2), True, 4053,
                     id="full-perm4-2-2"),
        pytest.param(lambda: _pieri_case(determinant_poly(3)), True, 950, id="pieri-det3"),
        pytest.param(lambda: _pieri_case(permanent_poly(3)), True, 934, id="pieri-perm3"),
        pytest.param(lambda: _pieri_case(variable_power((3, 3), 3, 3)), False, 70,
                     id="pieri-power"),
    ])
    def test_full_and_pieri_blocks_match_whole(self, case, symmetric, rank):
        M, blocks, weight_of, keeps = case()
        blocks = list(blocks)
        assert all(size == 1 for size, _ in blocks) != symmetric
        assert assert_blocks_match_whole(M, weight_of, blocks, symmetric, keeps) == rank

    def test_non_graded_input_is_one_block(self):
        P = random_low_rank(2, 3, 3, 5)
        blocks = list(full_koszul_blocks(P, 1, 2))
        assert len(blocks) == 1 and blocks[0][0] == 1
        assert rank_mod_p(blocks).rank == rank_mod_p([(1, full_koszul_matrix(P, 1, 2))]).rank

    def test_blocks_are_graded(self):
        for _, B in minor_orbit_blocks(4, 2, 2):
            rows = {rlabel for label in B.cols for rlabel, _ in minor_column_image(4, label)}
            assert len(rows) == B.nrows
            assert all(_bidegree_of_label(label, 4) == B.weight for label in [*rows, *B.cols])


class TestMinorRaisings:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_oracle_on_every_label(self, n):
        """On every domain label, at every d and p = 1, 2, the raisings
        grouped by their tag (axis, k) are the oracle's E_{k,k+1} images,
        no row given twice."""
        for d, p in product(range(1, n), (1, 2)):
            for label in minor_domain_basis(n, d, p):
                rows = minor_raisings(n, label)
                got: dict = {}
                for (axis, k, image), v in rows:
                    got.setdefault((axis, k), {})[image] = v
                assert len(rows) == sum(map(len, got.values()))
                want = {(axis, k): image for k in range(1, n) for axis in (0, 1)
                        if (image := raise_weight({label: 1}, n, k, axis))}
                assert got == want, label

    def test_highest_weight_space_is_the_kernel(self):
        """Over Q the vectors of a dominant weight that every raising kills
        number the domain's multiplicity of that weight, at every candidate
        of (4,2,2) and (5,2,1)."""
        for n, d, p in [(4, 2, 2), (5, 2, 1)]:
            domain = partitions._decompose_wedge_tensor(n - d, p, n)
            for _, B in highest_weight_blocks(n, d, p):
                ((_, E),) = weight_blocks([(1, B.weight, B.cols)],
                                          lambda label: minor_raisings(n, label), "E")
                a, b = (tuple(filter(None, w)) for w in B.weight)
                assert len(B.cols) - sparse_rank(E.entries) == domain[a, b]


class TestHighestWeightBlocks:
    @pytest.mark.parametrize("n,d,p", [(3, 1, 1), (4, 2, 1), (4, 2, 2), (5, 2, 2)])
    @pytest.mark.parametrize("prime", [DEFAULT_PRIME, None], ids=["mod-p", "rational"])
    def test_equals_orbit_route_and_whole_matrix(self, n, d, p, prime):
        """The rank read from the highest-weight blocks equals the rank of
        every orbit block and of the whole matrix, mod p and over Q."""
        M = whole_minor_matrix(n, d, p)
        whole = sparse_rank(M.entries, p=prime)
        rank = lambda method: certificate(method, "det", n, d, p,
                                          rational=prime is None).provenance[-1].rank
        assert rank("koszul-minor") == whole
        assert rank("minor-orbits") == whole

    @pytest.mark.parametrize("n,d,p", [(4, 2, 2), (5, 2, 2), (6, 3, 2), (7, 2, 1)])
    def test_one_block_per_transpose_pair_of_candidates(self, n, d, p):
        """Each block sits at a padded candidate highest weight (wa, wb) with
        wa <= wb, and the sizes count every candidate weight once."""
        pad = lambda shape: tuple(shape) + (0,) * (n - len(shape))
        weights = {(pad(a), pad(b)) for a, b, _ in candidate_image(n, d, p)}
        blocks = list(highest_weight_blocks(n, d, p))
        assert {B.weight for _, B in blocks} == {w for w in weights if w[0] <= w[1]}
        assert sum(size for size, _ in blocks) == len(weights)
        for size, B in blocks:
            wa, wb = B.weight
            assert size == (1 if wa == wb else 2) and (wb, wa) in weights
            assert all(_bidegree_of_label(label, n) == B.weight for label in B.cols)

    def test_modules_reach_their_schur_maximum_at_det5(self):
        cert = certificate("koszul-minor", "det", 5, 2, 2).provenance[0]
        assert (cert.rank, cert.orbits, cert.blocks) == (29376, 5, 9)
        assert len(cert.modules) == 9
        assert all(rec["m"] == rec["schur_max"] == 1 for rec in cert.modules)
        assert [(tuple(r["a"]), tuple(r["b"]), r["schur_max"]) for r in cert.modules] == \
            sorted(candidate_image(5, 2, 2), reverse=True)

    def test_inconsistent_block_ranks_raise(self):
        """Each multiplicity is read from its own block.  At (4,2,2) the
        domain holds (2,1,1) x (2,1,1) twice and its Schur maximum is 1: a
        block rank that would give it m = 2 is an error, never a silently
        larger rank, and one that would give a negative m reads as 0."""
        blocks = list(highest_weight_blocks(4, 2, 2))
        ranks = rank_mod_p(blocks).block_ranks
        hook, pad = (2, 1, 1), (2, 1, 1, 0)
        k = [B.weight for _, B in blocks].index((pad, pad))
        cols = len(blocks[k][1].cols)
        with_nullity = lambda nullity: ranks[:k] + [cols - nullity] + ranks[k + 1:]
        assert partitions._decompose_wedge_tensor(2, 2, 4)[hook, hook] == 2
        assert (hook, hook, 1) in candidate_image(4, 2, 2) and cols - ranks[k] == 1
        with pytest.raises(RuntimeError, match=re.escape(
                "multiplicity 2 of (2, 1, 1) x (2, 1, 1) exceeds its Schur maximum 1")):
            image_modules(4, 2, 2, blocks, with_nullity(0))
        rank, modules = image_modules(4, 2, 2, blocks, with_nullity(3))
        assert rank == 4065 - schur_dim(hook, 4) ** 2
        assert [r["m"] for r in modules] == [int([r["a"], r["b"]] != [list(hook)] * 2)
                                             for r in modules]

    @pytest.mark.parametrize("n,d,p", [(4, 2, 1), (4, 2, 2), (5, 2, 2), (6, 3, 2)])
    def test_every_prime_is_sound(self, n, d, p):
        """Primes at most the modules' degree n - d + p certify at most the
        rational rank (and, at these points, exactly it)."""
        rational = certificate("koszul-minor", "det", n, d, p, rational=True).provenance[1].rank
        assert rational == theoretical_image_dim(n, d, p)
        for prime in (3, 5, 7):
            modular = certificate("koszul-minor", "det", n, d, p, prime).rank_F
            assert modular <= rational, prime
            assert modular == rational, prime

    def test_oversized_request_fails_before_enumeration(self, monkeypatch):
        monkeypatch.setattr(flattening, "_minor_columns", None)  # listing would crash
        with pytest.raises(ValueError, match="over the memory cap of 256 MiB"):
            list(highest_weight_blocks(60, 30, 2, memory_cap_bytes=256 << 20))
        with pytest.raises(ValueError, match="over the memory cap of 256 MiB"):
            list(minor_orbit_blocks(60, 30, 2, memory_cap_bytes=256 << 20))
        with pytest.raises(ValueError, match="over the memory cap"):
            list(minor_orbit_blocks(200, 100, 2))
        # det24 fits the default cap: its blocks are charged, and listed only when iterated
        highest_weight_blocks(24, 12, 2)

        # the orbit route lists its weights from partitions of at most p, and only the
        # codomain's decomposition takes p + 1: at n=1262 it refuses its first block at once
        partitions_of = partitions.partitions_of

        def small_partitions(size, *args):
            if size > 3:
                raise AssertionError(f"partitions of {size} were listed")
            return partitions_of(size, *args)

        monkeypatch.setattr(partitions, "partitions_of", small_partitions)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^the minor map at n=1262, d=631, p=2 builds at "
                           "least 80022401568 columns, "):
            minor_orbit_blocks(1262, 631, 2)
        assert time.perf_counter() - start < 1

        def compute(*args):
            raise AssertionError("a weight was computed before one column was checked")

        # called directly, each route refuses one column before any weight is computed
        for name in ("kostka", "candidate_image", "partitions_of"):
            monkeypatch.setattr(partitions, name, compute)
        for route, p in product((highest_weight_blocks, minor_orbit_blocks), (1, 2)):
            with pytest.raises(ValueError, match=re.escape(
                    f"one column of the minor map at n=100000, d=50000, p={p} reaches")):
                route(100000, 50000, p)

    @pytest.mark.parametrize("method", ["koszul-minor", "minor-orbits"])
    @pytest.mark.parametrize("n,d,p,cap,message", [
        (5, 2, 3, DEFAULT_MEMORY_CAP_BYTES, "p must be 1 or 2, got 3"),
        (5, 5, 2, DEFAULT_MEMORY_CAP_BYTES, "need 0 < d < n, got d=5, n=5"),
        # the largest blocks alone pass the 256 MiB asked for; each route charges its own,
        # with 4p raising rows and entries a column
        (60, 30, 2, 256 << 20, {
            "koszul-minor": "the minor map at n=60, d=30, p=2 builds at least 496 columns, "
                            "440448 rows and 450368 entries, about 383 MiB",
            "minor-orbits": "the minor map at n=60, d=30, p=2 builds at least 492032 columns, "
                            "151545856 rows and 446765056 entries, about 215687 MiB"}),
    ], ids=["p", "d", "blocks"])
    def test_minor_request_is_refused_before_any_column_is_listed(
            self, monkeypatch, method, n, d, p, cap, message):
        """Both routes of the minor map answer a bad or oversized request
        before any column is listed: `_minor_blocks` checks (d, p), then
        charges the blocks from the partitions that are their weights."""
        def enumerate_(*args):
            raise AssertionError("a column was listed before the request was checked")

        monkeypatch.setattr(flattening, "_minor_columns", enumerate_)
        if isinstance(message, dict):
            message = message[method]
        with pytest.raises(ValueError, match=re.escape(message)):
            flattening_blocks(method, "det", n, d, p, cap)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_charge_counts_each_block(self, n):
        """On both routes, at every d and p = 1, 2, each block has as many
        columns as `weight_space_dim` counts in the domain; each column has
        at most (n - d)^2 entries of F and at most 4p raising rows; so a
        block has at most as many rows as the codomain's weight space plus
        4p a column, and at most (n - d)^2 + 4p entries a column: the counts
        `_minor_blocks` charges, in the blocks' increasing pair-lex order.
        The orbit route has no raising rows.  Each block's columns are the
        scan's over its weight's cells (`minor_columns_by_scan`), in order,
        and the orbit route has a block at every dominant pair with wa <= wb
        whose domain weight space is nonzero."""
        for d, p in product(range(1, n), (1, 2)):
            m = n - d
            domain = partitions._decompose_wedge_tensor(m, p, n)
            codomain = partitions._decompose_wedge_tensor(m - 1, p + 1, n)
            weights = [w + (0,) * (n - len(w)) for w in partitions.partitions_of(m + p, p + 1)
                       if len(w) <= n]
            for route in (highest_weight_blocks, minor_orbit_blocks):
                blocks = list(route(n, d, p))
                assert [B.weight for _, B in blocks] == sorted(B.weight for _, B in blocks)
                if route is minor_orbit_blocks:
                    assert {B.weight for _, B in blocks} == {
                        (wa, wb) for wa in weights for wb in weights
                        if wa <= wb and partitions.weight_space_dim(domain, wa, wb)}
                for _, B in blocks:
                    assert B.cols == minor_columns_by_scan(n, p, *B.weight)
                    raisings = [len(minor_raisings(n, label)) for label in B.cols]
                    assert max(raisings) <= 4 * p
                    extra = sum(raisings) if route is highest_weight_blocks else 0
                    assert len(B.cols) == partitions.weight_space_dim(domain, *B.weight)
                    assert B.nrows <= partitions.weight_space_dim(codomain, *B.weight) + extra
                    assert len(B.entries) <= len(B.cols) * m * m + extra

    @pytest.mark.parametrize("n,d,p", [(16, 4, 2), (24, 12, 2), (242, 121, 1)])
    def test_columns_are_the_scan_of_their_cells(self, n, d, p):
        """`_minor_columns` lists, in the same order, the columns the scan
        over each weight's cells finds, at every weight of the kernel route,
        without building a block."""
        for a, b, _ in candidate_image(n, d, p):
            wa, wb = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
            assert flattening._minor_columns(n, p, wa, wb) == minor_columns_by_scan(n, p, wa, wb)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_codomain_labels_are_listed_at_wedge_p_plus_1(self, n):
        """`_minor_columns` at wedge size p + 1 lists, once each, the
        codomain labels (I', J', w') of a weight: those a witness row of F
        can be taken from.  Checked at every weight of the codomain, for
        every d whose codomain has a (p + 1)-wedge and p in {1, 2}."""
        for d, p in product(range(1, n), (1, 2)):
            if (n - d) ** 2 < p + 1:
                continue
            codomain = group_by_weight(minor_codomain_basis(n, d, p),
                                       lambda label: _bidegree_of_label(label, n))
            for (wa, wb), labels in codomain.items():
                listed = flattening._minor_columns(n, p + 1, wa, wb)
                assert len(set(listed)) == len(listed)
                assert sorted(listed) == sorted(labels)

    @pytest.mark.parametrize("n,d,p", [(24, 12, 2), (60, 30, 1)])
    def test_charge_covers_the_traced_bytes(self, n, d, p):
        """The bytes tracemalloc finds at the peak of building and ranking
        the highest-weight blocks are less than the charge, which refuses
        them under a cap of that peak, and the charge is at most 2.5 times
        that peak, which it lets through."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rank_mod_p(list(highest_weight_blocks(n, d, p)))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        with pytest.raises(ValueError, match=f"over the memory cap of {peak >> 20} MiB"):
            highest_weight_blocks(n, d, p, memory_cap_bytes=peak)
        highest_weight_blocks(n, d, p, memory_cap_bytes=5 * peak // 2)


def _tableau_weight(T):
    return _label_weight(3, [v - 1 for row in T for v in row])


def _all_columns_grouped(cols, weight_of, symmetric):
    """The reference for the per-weight enumerators: the whole domain basis
    grouped by weight, a weight kept with its orbit size when symmetric
    (`_orbit_size`) and with size 1 otherwise."""
    size_of = flattening._orbit_size if symmetric else (lambda weight: 1)
    return [(size_of(w), w, group)
            for w, group in group_by_weight(cols, weight_of).items() if size_of(w)]


def _assert_rows_first_met(B, image):
    """B's entries are image(label), a list of (row label, coefficient)
    pairs, for each of its columns in turn, each row label at its index in
    the order the labels are first met, and B counts those rows.  Returns
    the row labels in that order."""
    want = [(rlabel, c, v) for c, label in enumerate(B.cols) for rlabel, v in image(label)]
    rows = list(dict.fromkeys(rlabel for rlabel, _, _ in want))
    index = {rlabel: r for r, rlabel in enumerate(rows)}
    assert B.nrows == len(rows)
    assert B.entries == [(index[rlabel], c, v) for rlabel, c, v in want]
    return rows


class TestColumnEnumeration:
    """Soundness gate of the per-weight column enumerators: each block holds
    exactly the columns of its weight, in basis order, and the blocks come
    in the order of their weights' first columns: the blocks of grouping
    the whole domain basis.  A block's rows are indexed in the order its
    columns' images first reach them (`_assert_rows_first_met`).  Columns
    and entries in these orders fix the certificate hashes."""

    @pytest.mark.parametrize("poly,d,p,symmetric,dropped", [
        pytest.param(determinant_poly(3), 1, 1, True, 0, id="det3-1-1"),
        pytest.param(determinant_poly(3), 1, 2, True, 0, id="det3-1-2"),
        pytest.param(determinant_poly(3), 2, 2, True, 62, id="det3-2-2"),
        pytest.param(determinant_poly(4), 2, 2, True, 130, id="det4-2-2"),
        pytest.param(permanent_poly(4), 2, 2, True, 130, id="perm4-2-2"),
        pytest.param(determinant_poly(5), 2, 2, True, 219, id="det5-2-2"),
        pytest.param(variable_power((3, 3), 3, 3), 1, 2, False, 288, id="power3-1-2"),
    ])
    def test_full_columns_per_weight(self, poly, d, p, symmetric, dropped):
        """The full map's blocks hold the whole domain basis with every
        column dropped whose dual monomial divides no monomial of P; each
        dropped column is zero in the oracle, and `dropped` of them would
        have sat in a kept weight."""
        blocks = _with_exponent_labels(full_koszul_blocks(poly, d, p), poly.n * poly.n)
        got = [(size, B.weight, B.cols) for size, B in blocks]
        whole = full_domain_basis(poly, d, p)
        dividing = _dividing(poly, (a for _, a in whole))
        weight_of = lambda label: _label_weight(poly.n, label[0], label[1])
        assert got == _all_columns_grouped(
            [label for label in whole if label[1] in dividing], weight_of, symmetric)
        derivs: dict = {}
        assert not any(full_column_image_by_partials(poly, label, derivs)
                       for label in whole if label[1] not in dividing)
        every = _all_columns_grouped(whole, weight_of, symmetric)
        assert sum(len(cols) for *_, cols in every) - sum(len(B.cols) for _, B in blocks) \
            == dropped
        for _, B in blocks:
            _assert_rows_first_met(
                B, lambda label: full_column_image_by_partials(poly, label, derivs))

    def test_zero_columns_dropped_at_det6(self):
        """At det6 (d=3, p=2) the kept weights hold 4,702 columns when every
        dual monomial is listed, and 2,680 of them have a dual that divides
        no monomial: the dividing duals, in the order of every dual, give
        the same groups, with their columns in the same order, without
        those columns."""
        P = determinant_poly(6)
        every = monomials_of_degree(36, 3)
        dividing = {_variables(a) for a in _dividing(P, every)}
        every = list(map(_variables, every))
        duals = flattening._dividing_duals(P, 3)
        assert list(duals) == [a for a in every if a in dividing]
        before, after = (flattening._full_column_groups(P, 2, D, DEFAULT_MEMORY_CAP_BYTES)
                         for D in (every, duals))
        assert {w: (size, cols) for size, w, cols in after} == {
            w: (size, kept) for size, w, cols in before
            if (kept := [c for c in cols if c[1] in dividing])}
        count = lambda groups: sum(len(cols) for *_, cols in groups)
        assert (count(before), count(after)) == (4702, 4702 - 2680)

    @pytest.mark.parametrize("poly,symmetric", [
        pytest.param(determinant_poly(3), True, id="det3"),
        pytest.param(permanent_poly(3), True, id="perm3"),
        pytest.param(variable_power((3, 3), 3, 3), False, id="power"),
    ])
    def test_pieri_columns_per_weight(self, poly, symmetric):
        blocks = list(pieri_blocks(poly, PI3, PIERI_ROWS))
        got = [(size, B.weight, B.cols) for size, B in blocks]
        assert got == _all_columns_grouped(ssyt_enumerate(PI3, 9), _tableau_weight, symmetric)
        for _, B in blocks:
            _assert_rows_first_met(
                B, lambda T: pieri_column_image_by_straightening(poly, T, PIERI_ROWS))

    @pytest.mark.parametrize("n,d,p", [(3, 1, 2), (4, 2, 1), (4, 2, 2), (5, 2, 2)])
    @pytest.mark.parametrize("route", [highest_weight_blocks, minor_orbit_blocks])
    def test_minor_columns_per_weight(self, route, n, d, p):
        """Each minor block holds the domain basis labels of its weight in
        wedge order, and the rows and entries of the whole matrix at those
        columns, followed on the highest-weight route by each column's
        raisings; each entry of F is the Laplace-signed derivative of its
        minor, and each raising entry is the oracle's."""
        M = whole_minor_matrix(n, d, p)
        by_weight = group_by_weight(minor_domain_basis(n, d, p),
                                    lambda label: _bidegree_of_label(label, n))
        image = {label: [] for label in M.cols}
        for r, c, v in M.entries:
            image[M.cols[c]].append((M.rows[r], v))
        if route is highest_weight_blocks:
            image = {label: F + minor_raisings(n, label) for label, F in image.items()}
        minor = cache(minor_poly)
        for _, B in route(n, d, p):
            assert B.cols == sorted(by_weight[B.weight], key=lambda label: label[2])
            rows = _assert_rows_first_met(B, image.__getitem__)
            for r, c, v in B.entries:
                if isinstance(rows[r][0], int):  # a raising row (axis, k, label)
                    axis, k, label = rows[r]
                    assert raise_weight({B.cols[c]: 1}, n, k, axis)[label] == v
                    continue
                I2, J2, w2 = rows[r]
                I, J, w = B.cols[c]
                (x,) = set(w2) - set(w)
                sign = wedge_insert(w, x)[0]
                assert partial(minor(n, I, J), x).terms == scale(minor(n, I2, J2), v * sign).terms

    def test_blocks_keep_no_row_labels(self):
        """Once a block is built no row label is referenced: labels that can
        be weakly referenced are collected, and the block counts them."""
        class Label:
            pass

        refs = []

        def image(col):
            labels = [Label() for _ in range(3)]
            refs.extend(map(weakref.ref, labels))
            return [(label, col + k + 1) for k, label in enumerate(labels)]

        ((size, B),) = weight_blocks([(1, None, [0, 1])], image, "test")
        gc.collect()
        assert (size, B.nrows, len(B.entries)) == (1, 6, 6)
        assert len(refs) == 6 and all(ref() is None for ref in refs)

    def test_non_graded_file_input_is_one_block_of_every_column(self, tmp_path):
        P = random_low_rank(2, 3, 3, 5)
        path = tmp_path / "cubic.json"
        path.write_text(polynomial_json(P))
        blocks, _ = flattening_blocks("koszul-full", f"file:{path}", 3, 1, 2)
        got = [(size, B.weight, B.cols) for size, B in _with_exponent_labels(blocks, 9)]
        assert got == [(1, None, full_domain_basis(P, 1, 2))]
        # the Pieri columns of such an input, without the slow column images
        assert _tableau_groups(PI3, 3, None) == [(1, None, ssyt_enumerate(PI3, 9))]


class TestFullMap:
    def test_shape(self):
        F = full_koszul_matrix(determinant_poly(3), 1, 2)
        assert (len(F.rows), len(F.cols)) == (756, 324)

    @pytest.mark.parametrize("d,p", [(1, 1), (2, 1), (1, 2)])
    def test_full_rank_matches_minor_rank_for_det3(self, d, p):
        """At n=3 the minor-indexed map is a basis change of the full map
        restricted to the span of the minors, and the span of the d-th
        derivatives of the determinant is exactly that span; the ranks
        therefore agree."""
        F = full_koszul_matrix(determinant_poly(3), d, p)
        M = minor_koszul_matrix(3, d, p)
        assert rank_mod_p([(1, F)]).rank == rank_mod_p([(1, M)]).rank

    def test_full_rank_matches_minor_rank_for_det4(self):
        """The frozen n=4 baseline by a second construction: the full map is
        built by contraction, with no Laplace signs."""
        full = rank_mod_p(full_koszul_blocks(determinant_poly(4), 2, 2)).rank
        minor = rank_mod_p(minor_orbit_blocks(4, 2, 2)).rank
        assert full == minor == theoretical_image_dim(4, 2, 2) == 4065

    def test_power_rank_is_t(self):
        # a single e-th power contributes exactly comb(nn-1, p) to the rank
        for n, p in [(2, 1), (2, 2), (3, 1)]:
            P = variable_power((1, 1), 3, n)
            F = full_koszul_matrix(P, 1, p)
            assert rank_mod_p([(1, F)]).rank == comb(n * n - 1, p)

    @pytest.mark.parametrize("seed", range(25))
    def test_low_rank_inputs_respect_the_bound(self, seed):
        """ceil(rank/t) can never exceed the number of powers used."""
        for n in (2, 3):
            for p in (1, 2):
                r = (seed % 3) + 1
                P = random_low_rank(r, 3, n, seed)
                F = full_koszul_matrix(P, 1, p)
                t = comb(n * n - 1, p)
                assert -(-rank_mod_p([(1, F)]).rank // t) <= r

    @pytest.mark.parametrize("make", [determinant_poly, permanent_poly], ids=["det3", "perm3"])
    def test_equivariance_under_row_column_action(self, make):
        """Substituting X -> A X B with invertible A, B leaves the rank of
        the flattening unchanged.  For det3 that only rescales the input
        (det(AXB) = det A det B det X); perm(AXB) is a cubic with 129 terms
        that is not bigraded."""
        rng = random.Random(0)
        n = 3
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        import numpy as np

        assert round(np.linalg.det(np.array(A, dtype=float))) != 0
        assert round(np.linalg.det(np.array(B, dtype=float))) != 0
        P = substitute_row_column(make(n), A, B)
        base = rank_mod_p([(1, full_koszul_matrix(make(n), 1, 2))]).rank
        assert rank_mod_p([(1, full_koszul_matrix(P, 1, 2))]).rank == base

    def test_rejects_bad_args(self):
        for build in (full_koszul_matrix, full_koszul_blocks):
            with pytest.raises(ValueError):
                build(determinant_poly(3), 3, 1)
            with pytest.raises(ValueError):
                build(determinant_poly(2), 1, 4)

    def test_oversized_request_fails_before_enumeration(self, monkeypatch):
        """C(64, 8) = 4426165368 wedges pass the default cap of 4294967296
        bytes, so they are counted no further and would not fit in any cap;
        C(49, 5) fit the default cap but not 256 MiB, which
        `flattening_blocks` passes on."""
        monkeypatch.setattr(flattening, "combinations", None)  # enumerating would crash
        with pytest.raises(ValueError, match="^the full map at n=8, p=8 enumerates more than "
                           "4294967296 wedges, over the memory cap of 4096 MiB$"):
            full_koszul_blocks(variable_power((8, 8), 8, 8), 2, 8)
        with pytest.raises(ValueError, match="over the memory cap of 256 MiB"):
            flattening_blocks("koszul-full", "power", 7, 2, 5, memory_cap_bytes=256 << 20)

    @pytest.mark.parametrize("spec,n", [("det", 4), ("perm", 4), ("power", 4), ("quartic", 3)])
    def test_duals_and_terms_are_sorted_variable_tuples(self, tmp_path, spec, n):
        """At every d, the dividing duals are sorted tuples of d variables,
        in increasing order, and each term (m, c) of P is listed as one
        tuple object under every dual that divides it, m the sorted
        variables of its exponent vector."""
        if spec == "quartic":
            spec = tmp_path / "quartic.json"
            spec.write_text(polynomial_json(random_low_rank(2, 4, 3, 5)))
            spec = f"file:{spec}"
        P = load_polynomial(spec, n)
        for d in range(1, P.degree):
            duals = flattening._dividing_duals(P, d)
            assert list(duals) == sorted(duals)
            assert all(len(a) == d and list(a) == sorted(a) for a in duals)
            shared: dict = {}
            for a, terms in duals.items():
                for term in terms:
                    m, c = term
                    assert shared.setdefault(m, term) is term
                    assert list(m) == sorted(m) and P.terms[_exponents(m, n * n)] == c
                    assert not Counter(a) - Counter(m)
            assert len(shared) == len(P.terms)

    def test_a_power_lists_one_dual(self):
        """Of the C(69, 6) dual monomials of degree 6 in 64 variables, only
        x_64^6 divides x_64^8: `power` at n=8, d=6 has 63 * 64 columns, and
        its rank is t under a 256 MiB cap."""
        assert list(flattening._dividing_duals(variable_power((8, 8), 8, 8), 6)) == [(63,) * 6]
        blocks, t = flattening_blocks("koszul-full", "power", 8, 6, 1,
                                      memory_cap_bytes=256 << 20)
        assert sum(len(B.cols) for _, B in blocks) == 64
        assert rank_mod_p(blocks).rank == t == 63

    @settings(max_examples=60, deadline=None)
    @given(polys_with_powers())
    def test_every_dividing_dual_is_listed(self, P):
        """At every d, the dividing duals are exactly the monomials of
        degree d (`monomials_of_degree`) that divide a term, in sorted
        order, each with the terms it divides in P's order."""
        for d in range(1, P.degree):
            listing = {}
            for a in monomials_of_degree(P.n * P.n, d):
                if terms := [(_variables(m), c) for m, c in P.terms.items()
                             if all(e >= k for e, k in zip(m, a))]:
                    listing[_variables(a)] = terms
            duals = flattening._dividing_duals(P, d)
            assert list(duals) == sorted(listing) and duals == listing

    @pytest.mark.parametrize("P,d,exact", [
        (determinant_poly(4), 1, True),
        (determinant_poly(4), 2, True),
        (determinant_poly(4), 3, True),
        (permanent_poly(4), 2, True),
        (variable_power((3, 3), 4, 3), 2, False),
        (random_low_rank(2, 4, 3, 5), 1, False),
        (random_low_rank(2, 4, 3, 5), 2, False),
    ], ids=["det4-1", "det4-2", "det4-3", "perm4-2", "power-2", "quartic-1", "quartic-2"])
    def test_derivative_guard_charges_at_least_the_cached_terms(self, P, d, exact):
        """With the derivative cache filled for every dividing dual, the
        terms of P, the distinct duals, their (dual, term) entries and the
        derivative terms number at most what `check_full_map` charges, and
        the entries and derivative terms exactly as many for det and perm,
        whose monomials are squarefree: C(n, d) duals per term, each with
        n - d derivative terms.  A cap of 1 KiB counts exactly and refuses,
        and so does a cap one byte below the charge."""
        duals, derivs = flattening._dividing_duals(P, d), {}
        for a in duals:
            full_column_image(((), a), duals, derivs)
        entries = sum(map(len, duals.values()))
        derivatives = sum(len(monos) for triples in derivs.values() for _, monos, _ in triples)
        support = max(len(e) - e.count(0) for e in P.terms)
        with pytest.raises(ValueError, match="derivative terms") as refused:
            flattening.check_full_map(P.n, len(P.terms), P.degree, support, d, 0, 1 << 10)
        charged = re.search(r"keep (\d+) terms, (\d+) dual monomials, (\d+) \(dual, term\) "
                            r"entries and (\d+) derivative terms, about", str(refused.value))
        terms, dual_count, entry_count, derivative_count = map(int, charged.groups())
        assert terms == len(P.terms) and dual_count >= len(duals)
        assert entry_count >= entries and derivative_count >= derivatives
        if exact:
            assert (entry_count, derivative_count) == (entries, derivatives) == (
                len(P.terms) * comb(P.n, d), len(P.terms) * comb(P.n, d) * (P.n - d))
        nv, degree = P.n * P.n, P.degree
        need = (terms * (8 * (nv + degree) + flattening._BYTES_PER_TERM)
                + dual_count * flattening._BYTES_PER_DUAL
                + (entry_count + derivative_count) * (8 * degree + flattening._BYTES_PER_ITEM))
        with pytest.raises(ValueError, match="derivative terms"):
            flattening.check_full_map(P.n, len(P.terms), P.degree, support, d, 0, need - 1)
        flattening.check_full_map(P.n, len(P.terms), P.degree, support, d, 0, need)

    def test_full_map_charges_the_columns_it_keeps(self):
        """power keeps all C(9, 4) * 1 = 126 columns of its one dividing
        dual at (d=1, p=4), each charged `_BYTES_PER_COLUMN`; det3's orbit
        blocks keep fewer and are not charged per column."""
        cap = 126 * flattening._BYTES_PER_COLUMN
        with pytest.raises(ValueError, match="the full map at n=3, p=4 keeps all "
                           "126 columns"):
            full_koszul_blocks(variable_power((3, 3), 3, 3), 1, 4, memory_cap_bytes=cap - 1)
        blocks = full_koszul_blocks(variable_power((3, 3), 3, 3), 1, 4, memory_cap_bytes=cap)
        assert sum(len(B.cols) for _, B in blocks) == 126
        assert list(full_koszul_blocks(determinant_poly(3), 1, 4, memory_cap_bytes=cap - 1))

    def test_guard_counts_stop_past_the_limit(self):
        """`_binomial` is C(a, b) up to the limit and limit + 1 past it, and
        `_count` the same for n!; so a guard decides at once at any size, and
        shows only the counts past the cap, with no byte figure."""
        for a in range(40):
            for b in range(-1, 42):
                want = comb(a, b) if b >= 0 else 0
                for limit in (0, 1, 100, 10**6):
                    assert flattening._binomial(a, b, limit) == min(want, limit + 1)
        for n in range(15):
            for limit in (0, 1, 100, 10**6):
                steps = ((k, 1) for k in range(2, n + 1))
                assert flattening._count(steps, limit) == min(factorial(n), limit + 1)
        assert flattening._binomial(4 * 10**12, 10**6, 1 << 32) == (1 << 32) + 1
        with pytest.raises(ValueError, match=r"^the full map at n=1000000, d=1 may keep more "
                           r"than 4294967296 terms and dual monomials, over the memory cap "
                           r"of 4096 MiB$"):
            flattening.check_named_terms("det", 10**6, 1, 0, DEFAULT_MEMORY_CAP_BYTES)
        # det20's 20! terms pass the cap and its 400 duals do not; det12's 12! terms
        # do not, but at d=6 its 12! * C(12, 6) entries and C(149, 6) duals both do
        for n, d, past in [(20, 1, "terms"), (12, 6, "dual monomials")]:
            with pytest.raises(ValueError, match=f"^the full map at n={n}, d={d} may keep more "
                               f"than 4294967296 {past}, over the memory cap of 4096 MiB$"):
                flattening.check_named_terms("det", n, d, 0, DEFAULT_MEMORY_CAP_BYTES)

    def test_oversized_derivative_cache_fails_before_enumeration(self, monkeypatch):
        """det6 at d=3 keeps 720 * C(6, 3) = 14400 (dual, term) entries with
        at most C(38, 3) = 8436 distinct duals, and 43200 derivative terms:
        its wedges fit in 8 MiB, these do not."""
        monkeypatch.setattr(flattening, "combinations", None)  # enumerating would crash
        monkeypatch.setattr(flattening, "_dividing_duals", None)
        with pytest.raises(ValueError, match=r"the full map at n=6, d=3 may keep 720 terms, "
                           r"8436 dual monomials, 14400 \(dual, term\) entries and 43200 "
                           r"derivative terms, about \d+ MiB, over the memory cap of 8 MiB"):
            full_koszul_blocks(determinant_poly(6), 3, 2, memory_cap_bytes=8 << 20)

    @pytest.mark.parametrize("d", [3, 4])
    def test_det8_fits_the_default_cap(self, monkeypatch, d):
        """The full map of det8 at d = 3 and 4 passes every charge under the
        default cap, and only then lists its duals."""
        P = determinant_poly(8)
        monkeypatch.setattr(flattening, "combinations", None)
        monkeypatch.setattr(flattening, "_dividing_duals", None)
        flattening.check_named_terms("det", 8, d, 2, DEFAULT_MEMORY_CAP_BYTES)
        with pytest.raises(TypeError, match="'NoneType' object is not callable"):
            full_koszul_blocks(P, d, 2)

    @pytest.mark.parametrize("spec,n,d", [
        ("det", 3, 1), ("det", 4, 2), ("perm", 4, 2), ("det", 5, 2), ("det", 6, 3),
        ("power", 8, 6), ("power", 12, 1),
    ])
    def test_named_polynomials_fit_the_default_cap(self, spec, n, d):
        flattening.check_named_terms(spec, n, d, 2, DEFAULT_MEMORY_CAP_BYTES)


@st.composite
def cubics(draw, graded: bool):
    """A cubic in the 9 variables of a 3x3 matrix with small int
    coefficients.  A graded one sums the monomials x[r0, c(s0)] x[r1, c(s1)]
    x[r2, c(s2)] of one row multiset r and column multiset c over the
    permutations s, so all its monomials have one weight; the others sum up
    to six random monomials of several weights."""
    terms: dict = {}
    if graded:
        rows, cols = (draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
                      for _ in range(2))
        monomials = [[3 * rows[k] + cols[s[k]] for k in range(3)]
                     for s in permutations(range(3))]
    else:
        monomials = draw(st.lists(st.lists(st.integers(0, 8), min_size=3, max_size=3),
                                  min_size=2, max_size=6))
    for variables in monomials:
        exps = tuple(variables.count(k) for k in range(9))
        terms[exps] = terms.get(exps, 0) + draw(st.integers(-3, 3))
    P = Polynomial(3, 3, {e: c for e, c in terms.items() if c})
    assume(P.terms and is_bigraded(P) == graded)
    return P


def contingency_tables(n: int, k: int) -> list[tuple[int, ...]]:
    """The n x n matrices of nonnegative ints with every row and column
    sum k, flattened row by row: the exponents of the monomials of torus
    weight ((k,) * n, (k,) * n)."""
    rows = [r for r in product(range(k + 1), repeat=n) if sum(r) == k]
    return [sum(t, ()) for t in product(rows, repeat=n)
            if all(sum(col) == k for col in zip(*t))]


@st.composite
def symmetric_polys(draw, n: int, k: int):
    """Random int coefficients on the contingency tables with margins k,
    summed over their images under row permutations s, column permutations
    u and transposition, weighted by the trivial character or by
    sgn(s) sgn(u): a polynomial that every symmetry fixes up to sign."""
    tables = contingency_tables(n, k)
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(tables), max_size=len(tables)))
    signed = draw(st.booleans())
    terms: dict = {}
    for s, u in product(permutations(range(n)), repeat=2):
        chi = sort_sign(s)[0] * sort_sign(u)[0] if signed else 1
        for flip, (exps, c) in product((False, True), zip(tables, coeffs)):
            image = [0] * (n * n)
            for cell, e in enumerate(exps):
                i, j = s[cell // n], u[cell % n]
                image[j * n + i if flip else i * n + j] = e
            image = tuple(image)
            terms[image] = terms.get(image, 0) + chi * c
    P = Polynomial(n, n * k, {e: c for e, c in terms.items() if c})
    assume(P.terms)
    return P


class TestOrbitBlocksOnSymmetricInputs:
    """The orbit reduction of `full_koszul_blocks` on symmetric inputs
    other than det and perm: the blocks' certified rank is the rank of the
    whole matrix."""

    @pytest.mark.parametrize("n,k,d,p", [
        (2, 2, 1, 1), (2, 2, 1, 2), (2, 2, 2, 2),
        (3, 2, 1, 1), (3, 2, 2, 1), (3, 2, 1, 2),
    ])
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_orbit_blocks_rank_the_whole_matrix(self, data, n, k, d, p):
        P = data.draw(symmetric_polys(n, k))
        assert is_bigraded(P) and is_symmetric(P)
        assert rank_mod_p(full_koszul_blocks(P, d, p)).rank == \
            rank_mod_p([(1, full_koszul_matrix(P, d, p))]).rank


def trace_vector_images(P) -> list[dict]:
    """The images under the full map of P at (d=1, p=4) of the 84 vectors
    sum_i (e_i ^ u) x e_i*, u a 3-wedge of the 9 variables, each as a dict
    of its nonzero coordinates."""
    duals, derivs = flattening._dividing_duals(P, 1), {}
    images = []
    for u in combinations(range(9), 3):
        image: dict = {}
        for i in range(9):
            if ins := wedge_insert(u, i):
                sign, w = ins
                for row, v in full_column_image((w, (i,)), duals, derivs):
                    image[row] = image.get(row, 0) + sign * v
        images.append({row: v for row, v in image.items() if v})
    return images


class TestPieriRoute:
    """`bound --method pieri` ranks the full map at (d=1, p=4), which kills
    the trace summand Lambda^3 V of its domain and has the rank of the
    tableau-basis Pieri map for every cubic (`cli.flattening_blocks`)."""

    @pytest.mark.parametrize("P", [
        determinant_poly(3), permanent_poly(3), variable_power((3, 3), 3, 3),
    ], ids=["det3", "perm3", "power"])
    def test_trace_summand_maps_to_zero(self, P):
        assert trace_vector_images(P) == [{}] * 84

    @settings(max_examples=10, deadline=None)
    @given(cubics(graded=False))
    def test_trace_summand_of_a_non_graded_cubic_maps_to_zero(self, P):
        assert trace_vector_images(P) == [{}] * 84

    def test_a_column_of_the_trace_summand_does_not_map_to_zero(self):
        """The control: one term of a trace vector alone has an image."""
        P = determinant_poly(3)
        assert full_column_image(((0, 1, 2, 3), (0,)),
                                 flattening._dividing_duals(P, 1), {})

    @settings(max_examples=25, deadline=None)
    @given(st.booleans().flatmap(cubics))
    def test_pieri_oracle_has_the_rank_of_the_bound_route(self, P):
        """mod p and over Q, graded or not: the tableau-basis Pieri map and
        the blocks `bound --method pieri` ranks, read from a `file:`."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cubic.json"
            path.write_text(polynomial_json(P))
            cert = certificate("pieri", f"file:{path}", 3, None, None, rational=True)
        oracle = list(pieri_blocks(P, PI3, PIERI_ROWS))
        assert cert.t == PIERI_T
        assert cert.provenance[0].rank == rank_mod_p(oracle).rank
        assert cert.provenance[1].rank == rank_rational(oracle).rank



class TestHighestWeightVectors:
    def test_lemma_list(self):
        assert len(ALL_LEMMAS) == 8

    def test_shapes_have_matching_box_counts(self):
        for lid in ALL_LEMMAS:
            sa, sb = lemma_shapes(lid, 6, 3)
            assert sum(sa) == sum(sb)
            assert schur_dim(sa, 6) > 0 and schur_dim(sb, 6) > 0

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_lemma_modules_reach_their_schur_maximum(self, n):
        """Each lemma vector has its module's highest weight, and that
        module is one of the `koszul-minor` certificate's, with m at its
        Schur maximum: the p1 lemmas at (n, n // 2, 1) and the p2 lemmas at
        (n, n // 2, 2), the ranks `verify` certifies."""
        d = n // 2
        for p, lemmas in ((1, P1_LEMMAS), (2, P2_LEMMAS)):
            cert = certificate("koszul-minor", "det", n, d, p).provenance[0]
            at_max = {(tuple(M["a"]), tuple(M["b"])) for M in cert.modules
                      if M["m"] == M["schur_max"]}
            for lid in lemmas:
                sa, sb = lemma_shapes(lid, n, d)
                highest = (flattening._padded(sa, n), flattening._padded(sb, n))
                assert {_bidegree_of_label(label, n)
                        for label in hwv_vector(lid, n, d)} == {highest}, lid
                assert (sa, sb) in at_max, lid

    @pytest.mark.parametrize("lemma_id", ALL_LEMMAS)
    def test_nonzero_at_n5(self, lemma_id):
        nz, witness = verify_hwv_nonzero(lemma_id, 5, 2)
        assert nz and witness is not None

    def test_p2_c_witness(self):
        nz, witness = verify_hwv_nonzero("p2_c", 6, 3)
        assert nz
        assert witness == ((1, 2), (1, 2), (0, 1, 14))

    def test_vector_weight_is_pure(self):
        # every monomial in a highest weight vector has the same bidegree
        for lid in ALL_LEMMAS:
            vec = hwv_vector(lid, 6, 3)
            grades = {_bidegree_of_label(label, 6) for label in vec}
            assert len(grades) == 1

    def test_mirror_pair(self):
        def transpose_var(x):
            r, c = divmod(x, 6)
            return c * 6 + r

        e = hwv_vector("p2_e", 6, 3)
        f = hwv_vector("p2_f", 6, 3)
        mirrored = {
            (J, I, tuple(sorted(transpose_var(x) for x in w)))
            for (I, J, w) in e
        }
        assert set(f) == mirrored

    @staticmethod
    def is_highest_weight(vec, n):
        """Whether all 2(n-1) raising operators, on rows and on columns,
        send `vec` to 0."""
        return not any(raise_weight(vec, n, k, axis)
                       for k in range(1, n) for axis in (0, 1))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_lemma_vectors_are_highest_weight(self, n):
        """Each lemma vector is killed by the oracle's raising operators and
        by `minor_raisings`, the rows the highest-weight blocks stack."""
        checked = 0
        for lid in ALL_LEMMAS:
            for d in range(1, n):
                try:
                    vec = hwv_vector(lid, n, d)
                except ValueError:  # the lemma's shapes do not fit at this (n, d)
                    continue
                assert vec and self.is_highest_weight(vec, n), (lid, n, d)
                raised = Counter()
                for label, coeff in vec.items():
                    for row, v in minor_raisings(n, label):
                        raised[row] += coeff * v
                assert not any(raised.values()), (lid, n, d)
                checked += 1
        assert checked >= len(ALL_LEMMAS)

    def test_raising_operators_see_lower_vectors(self):
        """Negative controls: a lower basis vector, and p2_d with any one of
        its terms dropped, are not highest-weight."""
        x = lambda i, j: var_index(i, j, 5)
        assert not self.is_highest_weight({((2, 3), (1, 2), (x(1, 1), x(2, 2))): 1}, 5)
        vec = hwv_vector("p2_d", 5, 2)
        assert self.is_highest_weight(vec, 5) and len(vec) > 1
        for label in vec:
            dropped = {other: c for other, c in vec.items() if other != label}
            assert not self.is_highest_weight(dropped, 5), label

    def test_shape_fit_errors(self):
        with pytest.raises(ValueError):
            hwv_vector("p2_a", 4, 1)  # second shape needs 5 rows at n=4
        with pytest.raises(ValueError):
            hwv_vector("p1_21", 3, 2)  # n-d < 2
        with pytest.raises(ValueError):
            hwv_vector("nope", 6, 3)

    def test_apply_matches_matrix(self):
        n, d, p = 3, 1, 2
        M = minor_koszul_matrix(n, d, p)
        col_index = {label: i for i, label in enumerate(M.cols)}
        row_index = {label: i for i, label in enumerate(M.rows)}
        rng = random.Random(4)
        labels = rng.sample(M.cols, 20)
        vec = {label: rng.randint(-3, 3) for label in labels}
        image = apply_minor_map(n, vec)
        dense = [Fraction(0)] * len(M.rows)
        for r, c, v in M.entries:
            coeff = vec.get(M.cols[c])
            if coeff:
                dense[r] += v * coeff
        want = {
            M.rows[i]: dense[i] for i in range(len(dense)) if dense[i]
        }
        assert image == want
