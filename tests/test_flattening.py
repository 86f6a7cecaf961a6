import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

import pytest

from flatrank.exact_linalg import DEFAULT_PRIME, rank_mod_p, sparse_rank
import flatrank.flattening as flattening
from flatrank.flattening import (
    full_column_image,
    full_koszul_blocks,
    highest_weight_blocks,
    image_modules,
    minor_column_image,
    minor_orbit_blocks,
    wedge_insert,
)
from flatrank.hwv import (
    ALL_LEMMAS,
    apply_minor_map,
    hwv_vector,
    lemma_shapes,
    verify_hwv_nonzero,
)
from flatrank.partitions import candidate_image, schur_dim, theoretical_image_dim
from flatrank.polynomials import (
    determinant_poly,
    permanent_poly,
    sort_sign,
    var_index,
    variable_power,
)
from flatrank.schur_flattening import PI3, PIERI_ROWS, _tableau_groups, pieri_blocks
from flatrank.cli import certify, flattening_blocks
from oracles import (
    bidegree_of_label as _bidegree_of_label,
    full_domain_basis,
    full_koszul_matrix,
    group_by_weight,
    minor_codomain_basis,
    minor_domain_basis,
    minor_koszul_matrix,
    minor_poly,
    partial,
    pieri_column_image_by_straightening,
    pieri_flattening_matrix,
    random_low_rank,
    scale,
    ssyt_enumerate,
    substitute_row_column,
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


def assert_blocks_match_whole(M, weight_of, blocks, symmetric):
    """Soundness gate: split the whole matrix by column weight.  Block ranks
    are constant on each orbit; each yielded block holds the columns of one
    weight, one per orbit when symmetric, with the orbit's size and rank;
    the certified orbit-reduced rank = all-blocks = whole-matrix rank, which
    is returned."""
    key = _orbit_key if symmetric else (lambda w: w)
    weight_of_col = [weight_of(label) for label in M.cols]
    split = {w: [] for w in weight_of_col}
    for r, c, v in M.entries:
        split[weight_of_col[c]].append((r, c, v))
    orbit_ranks: dict = {}
    for w, entries in split.items():
        rank = sparse_rank(len(M.rows), len(M.cols), entries, p=DEFAULT_PRIME)
        orbit_ranks.setdefault(key(w), []).append(rank)
    for ranks in orbit_ranks.values():
        assert len(set(ranks)) == 1

    assert {key(B.weight) for _, B in blocks} == set(orbit_ranks)
    for size, B in blocks:
        assert set(B.cols) == {
            label for label, w in zip(M.cols, weight_of_col) if w == B.weight
        }
        ranks = orbit_ranks[key(B.weight)]
        assert size == len(ranks) and rank_mod_p([(1, B)]).rank == ranks[0]
    orbit_reduced = rank_mod_p(blocks).rank
    all_blocks = sum(sum(ranks) for ranks in orbit_ranks.values())
    assert orbit_reduced == all_blocks == rank_mod_p([(1, M)]).rank
    return orbit_reduced


def _full_case(P, d, p):
    return (full_koszul_matrix(P, d, p), full_koszul_blocks(P, d, p),
            lambda label: _label_weight(P.n, label[0], label[1]))


def _pieri_case(P):
    return (pieri_flattening_matrix(P, PI3, PIERI_ROWS, 9),
            pieri_blocks(P, PI3, PIERI_ROWS),
            lambda T: _label_weight(3, [v - 1 for row in T for v in row]))


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
        M, blocks, weight_of = case()
        blocks = list(blocks)
        assert all(size == 1 for size, _ in blocks) != symmetric
        assert assert_blocks_match_whole(M, weight_of, blocks, symmetric) == rank

    def test_non_graded_input_is_one_block(self):
        P = random_low_rank(2, 3, 3, 5)
        blocks = list(full_koszul_blocks(P, 1, 2))
        assert len(blocks) == 1 and blocks[0][0] == 1
        assert rank_mod_p(blocks).rank == rank_mod_p([(1, full_koszul_matrix(P, 1, 2))]).rank

    def test_blocks_are_graded(self):
        for _, B in minor_orbit_blocks(4, 2, 2):
            assert all(_bidegree_of_label(label, 4) == B.weight for label in B.rows + B.cols)


class TestHighestWeightBlocks:
    @pytest.mark.parametrize("n,d,p", [(3, 1, 1), (4, 2, 1), (4, 2, 2), (5, 2, 2)])
    @pytest.mark.parametrize("prime", [DEFAULT_PRIME, None], ids=["mod-p", "rational"])
    def test_equals_orbit_route_and_whole_matrix(self, n, d, p, prime):
        """The rank solved from the highest-weight blocks equals the rank of
        every orbit block and of the whole matrix, mod p and over Q."""
        hw = list(highest_weight_blocks(n, d, p))
        orbits = list(minor_orbit_blocks(n, d, p))
        M = whole_minor_matrix(n, d, p)
        whole = sparse_rank(len(M.rows), len(M.cols), M.entries, p=prime)
        assert certify("koszul-minor", hw, n, d, p, prime).rank == whole
        assert certify("minor-orbits", orbits, n, d, p, prime).rank == whole

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
        hw = list(highest_weight_blocks(5, 2, 2))
        cert = certify("koszul-minor", hw, 5, 2, 2, DEFAULT_PRIME)
        assert (cert.rank, cert.orbits, cert.blocks) == (29376, 5, 9)
        assert len(cert.modules) == 9
        assert all(rec["m"] == rec["schur_max"] == 1 for rec in cert.modules)
        assert [(tuple(r["a"]), tuple(r["b"]), r["schur_max"]) for r in cert.modules] == \
            sorted(candidate_image(5, 2, 2), reverse=True)

    def test_inconsistent_block_ranks_raise(self):
        """A negative multiplicity, or one above its Schur maximum, is an
        error, never a silently smaller or larger rank."""
        weights = [B.weight for _, B in highest_weight_blocks(4, 2, 2)]
        top = max(weights)
        for ranks in ({w: int(w == top) for w in weights}, {w: 2 for w in weights}):
            with pytest.raises(RuntimeError, match="outside 0..1"):
                image_modules(4, 2, 2, ranks, DEFAULT_PRIME)

    @pytest.mark.parametrize("prime", [2, 3, 5])
    def test_rejects_a_prime_at_most_the_degree(self, prime):
        with pytest.raises(ValueError, match="at most the degree 5"):
            image_modules(5, 2, 2, {}, prime)

    def test_oversized_request_fails_before_enumeration(self, monkeypatch):
        monkeypatch.setattr(flattening, "combinations", None)  # enumerating would crash
        with pytest.raises(ValueError, match="over the memory cap of 256 MiB"):
            list(highest_weight_blocks(60, 30, 2, memory_cap_bytes=256 << 20))
        with pytest.raises(ValueError, match="over the memory cap"):
            list(minor_orbit_blocks(200, 100, 2))
        flattening._check_minor_args(24, 12, 2)  # det24 fits the default cap


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
    pairs, for each of its columns in turn, and its rows are those labels
    in the order they are first met."""
    want = [(rlabel, c, v) for c, label in enumerate(B.cols) for rlabel, v in image(label)]
    assert B.rows == list(dict.fromkeys(rlabel for rlabel, _, _ in want))
    assert [(B.rows[r], c, v) for r, c, v in B.entries] == want


class TestColumnEnumeration:
    """Soundness gate of the per-weight column enumerators: each block holds
    exactly the columns of its weight, in basis order, and the blocks come
    in the order of their weights' first columns: the blocks of grouping
    the whole domain basis.  A block's rows come in the order its columns'
    images first reach them (`_assert_rows_first_met`).  Columns, rows and
    entries in these orders fix the certificate hashes."""

    @pytest.mark.parametrize("poly,d,p,symmetric", [
        pytest.param(determinant_poly(3), 1, 1, True, id="det3-1-1"),
        pytest.param(determinant_poly(3), 1, 2, True, id="det3-1-2"),
        pytest.param(determinant_poly(3), 2, 2, True, id="det3-2-2"),
        pytest.param(determinant_poly(4), 2, 2, True, id="det4-2-2"),
        pytest.param(permanent_poly(4), 2, 2, True, id="perm4-2-2"),
        pytest.param(determinant_poly(5), 2, 2, True, id="det5-2-2"),
        pytest.param(variable_power((3, 3), 3, 3), 1, 2, False, id="power3-1-2"),
    ])
    def test_full_columns_per_weight(self, poly, d, p, symmetric):
        blocks = list(full_koszul_blocks(poly, d, p))
        got = [(size, B.weight, B.cols) for size, B in blocks]
        assert got == _all_columns_grouped(
            full_domain_basis(poly, d, p),
            lambda label: _label_weight(poly.n, label[0], label[1]), symmetric)
        derivs: dict = {}
        for _, B in blocks:
            _assert_rows_first_met(B, lambda label: full_column_image(poly, label, derivs))

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
        columns; each entry is the Laplace-signed derivative of its minor."""
        M = whole_minor_matrix(n, d, p)
        by_weight = group_by_weight(minor_domain_basis(n, d, p),
                                    lambda label: _bidegree_of_label(label, n))
        image = {label: [] for label in M.cols}
        for r, c, v in M.entries:
            image[M.cols[c]].append((M.rows[r], v))
        minor = cache(minor_poly)
        for _, B in route(n, d, p):
            assert B.cols == sorted(by_weight[B.weight], key=lambda label: label[2])
            _assert_rows_first_met(B, image.__getitem__)
            for r, c, v in B.entries:
                I2, J2, w2 = B.rows[r]
                I, J, w = B.cols[c]
                (x,) = set(w2) - set(w)
                sign = wedge_insert(w, x)[0]
                assert partial(minor(n, I, J), x).terms == scale(minor(n, I2, J2), v * sign).terms

    def test_non_graded_file_input_is_one_block_of_every_column(self, tmp_path):
        P = random_low_rank(2, 3, 3, 5)
        path = tmp_path / "cubic.json"
        path.write_text(P.to_json())
        blocks, _ = flattening_blocks("koszul-full", f"file:{path}", 3, 1, 2)
        got = [(size, B.weight, B.cols) for size, B in blocks]
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
        """C(64, 8) wedges would not fit in any cap; C(49, 5) fit the default
        cap but not 256 MiB, which `flattening_blocks` passes on."""
        monkeypatch.setattr(flattening, "combinations", None)  # enumerating would crash
        with pytest.raises(ValueError, match="the full map at n=8, p=8 enumerates 4426165368"):
            full_koszul_blocks(variable_power((8, 8), 8, 8), 2, 8)
        with pytest.raises(ValueError, match="over the memory cap of 256 MiB"):
            flattening_blocks("koszul-full", "power", 7, 2, 5, memory_cap_bytes=256 << 20)

    def test_oversized_dual_request_fails_before_enumeration(self, monkeypatch):
        """C(69, 6) dual monomials of degree 6 in 64 variables would not fit
        in the default cap, though their 64 wedges would."""
        monkeypatch.setattr(flattening, "monomials_of_degree", None)  # listing would crash
        with pytest.raises(ValueError, match="the full map at n=8, d=6 enumerates 119877472 "
                           "dual monomials"):
            full_koszul_blocks(variable_power((8, 8), 8, 8), 6, 1)
        with pytest.raises(ValueError, match="over the memory cap of 256 MiB"):
            flattening_blocks("koszul-full", "power", 8, 6, 1, memory_cap_bytes=256 << 20)



class TestHighestWeightVectors:
    def test_lemma_list(self):
        assert len(ALL_LEMMAS) == 8

    def test_shapes_have_matching_box_counts(self):
        for lid in ALL_LEMMAS:
            sa, sb = lemma_shapes(lid, 6, 3)
            assert sum(sa) == sum(sb)
            assert schur_dim(sa, 6) > 0 and schur_dim(sb, 6) > 0

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
