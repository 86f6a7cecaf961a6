"""Exact rank computation for sparse and dense matrices.

Two routes are provided: sparse Gaussian elimination over a prime field
(Markowitz-style minimum-fill pivoting, deterministic), and exact rational
elimination (fraction-free Bareiss on dense blocks, applied per connected
component of the sparsity pattern).

Soundness note: the rank of an integer matrix reduced mod p never exceeds
its rank over the rationals, so a single modular rank already certifies a
lower bound.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

DEFAULT_PRIME = 1073741789
DEFAULT_MEMORY_CAP_BYTES = 4 << 30
_BYTES_PER_ENTRY = 100  # rough dict-of-dicts bookkeeping cost per nonzero


class MemoryCapExceeded(RuntimeError):
    pass


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid for all m < 3.3e24."""
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    modulus: int = DEFAULT_PRIME

    def __post_init__(self):
        if not is_prime(self.modulus):
            raise ValueError(f"{self.modulus} is not prime")
        if self.modulus.bit_length() > 62 or self.modulus == 2:
            raise ValueError("modulus must be an odd prime fitting in a machine word")

    def reduce_fraction(self, x: Fraction, context: str = "") -> int:
        num = x.numerator % self.modulus
        den = x.denominator % self.modulus
        if den == 0:
            raise ZeroDivisionError(
                f"denominator of {x} divisible by prime {self.modulus}"
                + (f" at {context}" if context else "")
            )
        return num * pow(den, self.modulus - 2, self.modulus) % self.modulus


@dataclass
class RankCertificate:
    rank: int
    method: str  # "modular" or "rational"
    primes_used: tuple[int, ...]
    matrix_hash: str
    elapsed: float
    rational_lower_bound_only: bool = False
    orbits: int | None = None  # block representatives ranked
    blocks: int | None = None  # weight blocks they stand for

    def to_json_dict(self) -> dict:
        out = {
            "rank": self.rank,
            "method": self.method,
            "primes_used": list(self.primes_used),
            "matrix_hash": self.matrix_hash,
            "elapsed_ms": round(self.elapsed * 1000, 3),
            "rational_lower_bound_only": self.rational_lower_bound_only,
        }
        if self.orbits is not None:
            out.update(orbits=self.orbits, blocks=self.blocks)
        return out


def matrix_hash(nrows: int, ncols: int, entries) -> str:
    h = hashlib.sha256()
    h.update(f"{nrows}x{ncols};".encode())
    for r, c, v in entries:
        v = Fraction(v)
        h.update(f"{r},{c},{v.numerator}/{v.denominator};".encode())
    return h.hexdigest()[:16]


def sparse_rank(
    nrows: int,
    ncols: int,
    entries,
    p: int | None = None,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> int:
    """Rank by sparse elimination with Markowitz-style pivoting.

    Pivot columns are chosen by minimum active nonzero count, then the row
    of minimum count within that column; ties break toward the lowest
    column index, then the lowest row index, so the result and the full
    elimination order are deterministic.

    p=None runs over the rationals with Fraction arithmetic; otherwise all
    entries are reduced mod p first (raising if a denominator vanishes).
    """
    cap_entries = memory_cap_bytes // _BYTES_PER_ENTRY
    rows: dict[int, dict[int, object]] = {}
    col_rows: dict[int, set[int]] = {}
    nnz = 0
    for r, c, v in entries:
        if p is not None:
            num = Fraction(v)
            den = num.denominator % p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator of entry ({r},{c}) divisible by prime {p}"
                )
            val = num.numerator % p * pow(den, p - 2, p) % p
            if val == 0:
                continue
        else:
            val = Fraction(v)
            if val == 0:
                continue
        row = rows.setdefault(r, {})
        if c in row:
            raise ValueError(f"duplicate entry at ({r},{c})")
        row[c] = val
        col_rows.setdefault(c, set()).add(r)
        nnz += 1
    if nnz > cap_entries:
        raise MemoryCapExceeded(f"initial fill {nnz} exceeds cap {cap_entries}")

    colcount = {c: len(s) for c, s in col_rows.items()}
    heap = [(cnt, c) for c, cnt in colcount.items()]
    heapq.heapify(heap)
    rank = 0

    while heap:
        cnt, pc = heapq.heappop(heap)
        if pc not in col_rows or colcount[pc] != cnt:
            continue
        if not col_rows[pc]:
            del col_rows[pc]
            del colcount[pc]
            continue
        # pivot row: min nnz, then lowest index
        pr = min(col_rows[pc], key=lambda r: (len(rows[r]), r))
        pivrow = rows.pop(pr)
        piv = pivrow[pc]
        if p is not None:
            inv = pow(piv, p - 2, p)
        else:
            inv = 1 / piv
        # detach pivot row
        touched = set()
        for c in pivrow:
            s = col_rows.get(c)
            if s is not None:
                s.discard(pr)
                if s:
                    colcount[c] = len(s)
                    touched.add(c)
                else:
                    del col_rows[c]
                    del colcount[c]
        # eliminate pc from all remaining rows
        targets = list(col_rows.get(pc, ()))
        for r in targets:
            row = rows[r]
            factor = row[pc] * inv
            if p is not None:
                factor %= p
            for c, v in pivrow.items():
                if c == pc:
                    continue
                if p is not None:
                    newv = (row.get(c, 0) - factor * v) % p
                    if newv:
                        if c not in row:
                            col_rows.setdefault(c, set()).add(r)
                            nnz += 1
                        row[c] = newv
                    elif c in row:
                        del row[c]
                        col_rows[c].discard(r)
                        nnz -= 1
                else:
                    newv = row.get(c, Fraction(0)) - factor * v
                    if newv:
                        if c not in row:
                            col_rows.setdefault(c, set()).add(r)
                            nnz += 1
                        row[c] = newv
                    elif c in row:
                        del row[c]
                        col_rows[c].discard(r)
                        nnz -= 1
            del row[pc]
            nnz -= 1
            if not row:
                del rows[r]
            touched.update(pivrow.keys())
        if pc in col_rows:
            del col_rows[pc]
            del colcount[pc]
        touched.discard(pc)
        for c in touched:
            s = col_rows.get(c)
            if s is not None:
                colcount[c] = len(s)
                heapq.heappush(heap, (len(s), c))
        rank += 1
        if nnz > cap_entries:
            raise MemoryCapExceeded(
                f"fill reached {nnz} entries, over cap {cap_entries}"
            )
    return rank


def dense_rank_bareiss(mat) -> int:
    """Rank of a dense matrix by fraction-free Bareiss elimination.

    Accepts rows of ints or Fractions; each row is scaled to clear
    denominators first (rank invariant).
    """
    m = []
    for row in mat:
        row = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in row)) if row else 1
        m.append([int(x * mult) for x in row])
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    active_cols = list(range(ncols))
    prev = 1
    rank = 0
    r = 0
    while r < nrows and active_cols:
        # first nonzero scanning active columns left to right, rows top down
        found = None
        for ci, c in enumerate(active_cols):
            for i in range(r, nrows):
                if m[i][c]:
                    found = (i, ci)
                    break
            if found:
                break
        if not found:
            break
        i, ci = found
        m[r], m[i] = m[i], m[r]
        active_cols[0], active_cols[ci] = active_cols[ci], active_cols[0]
        pc = active_cols[0]
        piv = m[r][pc]
        for i in range(r + 1, nrows):
            mic = m[i][pc]
            mrow = m[r]
            irow = m[i]
            for c in active_cols[1:]:
                irow[c] = (irow[c] * piv - mic * mrow[c]) // prev
            irow[pc] = 0
        prev = piv
        active_cols = active_cols[1:]
        rank += 1
        r += 1
    return rank


def dense_rank_mod_p(a, p: int) -> int:
    """Rank of an integer matrix mod p by vectorized dense elimination.

    p must fit in 31 bits so products stay inside int64.  A test oracle:
    numpy is imported here so that importing the library does not load it.
    """
    import numpy as np

    if p.bit_length() > 31:
        raise ValueError("prime too large for int64 products")
    a = np.ascontiguousarray(np.asarray(a, dtype=np.int64) % p)
    nrows, ncols = a.shape
    rank = 0
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv_row = row + int(nz[0])
        if piv_row != row:
            a[[row, piv_row]] = a[[piv_row, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row, col:] = a[row, col:] * inv % p
        below = a[row + 1:, col]
        mask = below != 0
        if mask.any():
            a[row + 1:, col:][mask] = (
                a[row + 1:, col:][mask] - below[mask, None] * a[row, col:][None, :]
            ) % p
        rank += 1
        row += 1
    return rank


def connected_components(entries):
    """Split a coordinate list into connected components of its bipartite
    row/column incidence graph.  Returns a list of entry sublists."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for r, c, _ in entries:
        rk, ck = ("r", r), ("c", c)
        parent.setdefault(rk, rk)
        parent.setdefault(ck, ck)
        union(rk, ck)
    groups: dict = {}
    for r, c, v in entries:
        groups.setdefault(find(("r", r)), []).append((r, c, v))
    return [groups[k] for k in sorted(groups, key=lambda k: min(e[:2] for e in groups[k]))]


def _relabel(entries):
    """Compact row/column indices of an entry list; returns (nrows, ncols, entries)."""
    rmap, cmap = {}, {}
    out = []
    for r, c, v in sorted(entries, key=lambda e: (e[0], e[1])):
        ri = rmap.setdefault(r, len(rmap))
        ci = cmap.setdefault(c, len(cmap))
        out.append((ri, ci, v))
    return len(rmap), len(cmap), out


DENSE_COMPONENT_LIMIT = 250_000  # rows*cols per component for the Bareiss path
SIZE_GUARD = 10**7  # rows*cols guard for the exact rational path


def rank_mod_p(M, fld: PrimeField | None = None,
               memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES) -> RankCertificate:
    """Exact rank of a flattening matrix reduced mod the field's prime,
    which is only a lower bound on its rank over the rationals."""
    fld = fld or PrimeField()
    t0 = time.perf_counter()
    rank = sparse_rank(len(M.rows), len(M.cols), M.entries, p=fld.modulus,
                       memory_cap_bytes=memory_cap_bytes)
    return RankCertificate(
        rank=rank,
        method="modular",
        primes_used=(fld.modulus,),
        matrix_hash=M.basis_hash(),
        elapsed=time.perf_counter() - t0,
        rational_lower_bound_only=True,
    )


def rank_rational(M, multi_prime: bool = False, num_primes: int = 2,
                  seed: int = 0,
                  memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES) -> RankCertificate:
    """Exact rank over the rationals, or a certified lower bound.

    The exact path splits the sparsity pattern into connected components
    and runs dense fraction-free elimination on each; it requires
    rows*cols <= 10^7 and every component small enough for the dense
    path (larger components fall back to exact sparse rational
    elimination).  With multi_prime=True the rank is instead the maximum
    over `num_primes` distinct random primes, which certifies only a
    lower bound on the rational rank.
    """
    t0 = time.perf_counter()
    nrows, ncols = len(M.rows), len(M.cols)
    if multi_prime:
        rng = random.Random(seed)
        primes = []
        while len(primes) < max(2, num_primes):
            cand = rng.randrange(1 << 29, 1 << 30) | 1
            if is_prime(cand) and cand not in primes:
                primes.append(cand)
        best = 0
        for p in primes:
            best = max(best, sparse_rank(nrows, ncols, M.entries, p=p,
                                         memory_cap_bytes=memory_cap_bytes))
        return RankCertificate(
            rank=best,
            method="modular",
            primes_used=tuple(primes),
            matrix_hash=M.basis_hash(),
            elapsed=time.perf_counter() - t0,
            rational_lower_bound_only=True,
        )
    if nrows * ncols > SIZE_GUARD and len(M.entries) > SIZE_GUARD // 100:
        raise ValueError(
            f"{nrows}x{ncols} matrix with {len(M.entries)} nonzeros exceeds the "
            f"exact rational size guard (rows*cols <= {SIZE_GUARD} or nonzeros "
            f"<= {SIZE_GUARD // 100}); its modular rank is a certified lower bound"
        )
    rank = 0
    for comp in connected_components(M.entries):
        cr, cc, sub = _relabel(comp)
        if cr * cc <= DENSE_COMPONENT_LIMIT:
            dense = [[0] * cc for _ in range(cr)]
            for r, c, v in sub:
                dense[r][c] = Fraction(v)
            rank += dense_rank_bareiss(dense)
        else:
            rank += sparse_rank(cr, cc, sub, p=None,
                                memory_cap_bytes=memory_cap_bytes)
    return RankCertificate(
        rank=rank,
        method="rational",
        primes_used=(),
        matrix_hash=M.basis_hash(),
        elapsed=time.perf_counter() - t0,
    )
