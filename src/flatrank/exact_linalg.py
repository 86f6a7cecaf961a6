"""Exact rank computation for sparse integer matrices.

One sparse Gaussian elimination (deterministic pivoting: the column with
the fewest active entries, then its row with the fewest entries) runs
over a prime field or, fraction-free in integers, over the rationals,
both with one pivot rule.  The command line ranks small torus-weight
blocks, so each block is eliminated whole; `rank_mod_p` and
`rank_rational` certify a matrix given as (orbit_size, block) pairs.

Soundness note: the rank of an integer matrix reduced mod p never exceeds
its rank over the rationals, so a single modular rank already certifies a
lower bound.
"""

from __future__ import annotations

import heapq
import time
from math import gcd

try:  # CPython's built-in sha256 (`_sha2` from 3.12): `hashlib` would load OpenSSL
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

DEFAULT_PRIME = 1073741789
DEFAULT_MEMORY_CAP_BYTES = 4 << 30
# bytes per nonzero; traced sparse_rank peaks are 125 (dense cubic) to 292 (det40 p=2) each
_BYTES_PER_ENTRY = 300


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


class RankCertificate:
    """The rank of a matrix given as (orbit_size, block) pairs: the sum of
    orbit_size * rank(block), mod `prime` or, for prime=None, over the
    rationals.  `elapsed` is the seconds spent in elimination, `orbits` the
    blocks ranked and `blocks` the weight blocks they stand for;
    `block_ranks` holds each block's own rank, in block order.

    `flattening.image_modules` reads the minor map's rank and `modules`, a
    list of JSON-ready records of how the rank decomposes, from the block
    ranks of its highest-weight blocks; `cli.certificate` puts them in
    place of `rank` and `modules`, which the JSON form then carries."""

    def __init__(self, rank: int, prime: int | None, matrix_hash: str,
                 elapsed: float, blocks: int, block_ranks: list[int]):
        self.rank, self.prime, self.matrix_hash = rank, prime, matrix_hash
        self.elapsed, self.blocks, self.block_ranks = elapsed, blocks, block_ranks
        self.orbits = len(block_ranks)
        self.modules: list[dict] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "rank": self.rank,
            "method": "rational" if self.prime is None else "modular",
            "primes_used": [] if self.prime is None else [self.prime],
            "matrix_hash": self.matrix_hash,
            "elapsed_ms": round(self.elapsed * 1000, 3),
            "rational_lower_bound_only": self.prime is not None,
            "orbits": self.orbits,
            "blocks": self.blocks,
        }
        if self.modules is not None:
            out["modules"] = self.modules
        return out


def sparse_rank(entries, p: int | None = None,
                memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES) -> int:
    """Rank by sparse elimination, pivoting on a sparsest column.

    The pivot column has the fewest active entries, and the pivot row is
    the row with the fewest entries among those in that column; ties break
    toward the lowest column index, then the lowest row index, so the
    result and the full elimination order are deterministic.  This is not
    the Markowitz rule, which minimises (r-1)(c-1) over candidate pivots.

    A heap entry (count, c) is live while len(col_rows[c]) == count; a
    pivot column leaves `col_rows` when popped.  After its elimination,
    which touches only the pivot row's columns, each pivot detaches its
    row from those columns, re-pushes the ones that still hold an entry
    and drops the emptied ones from `col_rows` (no later fill reaches a
    column that no row holds), so an emptied column is never queued.
    The fill capped by `memory_cap_bytes` keeps the entries of
    eliminated pivot rows.

    Entries must be ints (a TypeError otherwise: a rational entry reduced
    mod p would give a wrong rank silently); mod p they are reduced first.
    p=None runs over Q fraction-free: a row holding b under the pivot a
    becomes (a/g) * row - (b/g) * pivot row, g = gcd(a, b), divided by the
    gcd of its entries.  That is a nonzero multiple of the row Fraction
    elimination gives, so the nonzero pattern, the pivots and the fill are
    those of elimination over Q.
    """
    cap_entries = memory_cap_bytes // _BYTES_PER_ENTRY
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    nnz = 0
    for r, c, v in entries:
        if not isinstance(v, int):
            raise TypeError(f"entry ({r},{c}) is {v!r}, not an int")
        val = v if p is None else v % p
        if not val:
            continue
        row = rows.setdefault(r, {})
        if c in row:
            raise ValueError(f"duplicate entry at ({r},{c})")
        row[c] = val
        col_rows.setdefault(c, set()).add(r)
        nnz += 1
    if nnz > cap_entries:
        raise MemoryCapExceeded(f"initial fill {nnz} exceeds cap {cap_entries}")

    heap = [(len(s), c) for c, s in col_rows.items()]
    heapq.heapify(heap)
    rank = 0

    while heap:
        cnt, pc = heapq.heappop(heap)
        if len(col_rows.get(pc, ())) != cnt:
            continue
        targets = col_rows.pop(pc)
        # pivot row: min nnz, then lowest index
        pr = min(targets, key=lambda r: (len(rows[r]), r))
        pivrow = rows.pop(pr)
        piv = pivrow.pop(pc)
        inv = None if p is None else pow(piv, p - 2, p)
        targets.discard(pr)
        # eliminate pc from all remaining rows
        for r in targets:
            row = rows[r]
            a = row.pop(pc)
            nnz -= 1
            if p is None:
                g = gcd(piv, a)
                factor, scale = a // g, piv // g
                if scale != 1:
                    for c in row:
                        row[c] *= scale
            else:
                factor = a * inv % p
            for c, v in pivrow.items():
                newv = row.get(c, 0) - factor * v
                if p is not None:
                    newv %= p
                if newv:
                    if c not in row:
                        col_rows.setdefault(c, set()).add(r)
                        nnz += 1
                    row[c] = newv
                elif c in row:
                    del row[c]
                    col_rows[c].discard(r)
                    nnz -= 1
            if not row:
                del rows[r]
            elif p is None and (g := gcd(*row.values())) != 1:
                for c in row:
                    row[c] //= g
        for c in pivrow:  # detach the pivot row; re-queue its columns that still hold an entry
            s = col_rows[c]
            s.discard(pr)
            if s:
                heapq.heappush(heap, (len(s), c))
            else:
                del col_rows[c]
        rank += 1
        if nnz > cap_entries:
            raise MemoryCapExceeded(
                f"fill reached {nnz} entries, over cap {cap_entries}"
            )
    return rank


def _certified_rank(blocks, p: int | None, memory_cap_bytes: int) -> RankCertificate:
    """`sparse_rank` of each block mod p, or over the rationals for p=None,
    weighted by its orbit size.  Only the eliminations are timed; the hash
    covers each block's `basis_hash` with its orbit size."""
    rank = total = 0
    elapsed = 0.0
    h = sha256()
    block_ranks = []
    for size, B in blocks:
        t0 = time.perf_counter()
        r = sparse_rank(B.entries, p=p, memory_cap_bytes=memory_cap_bytes)
        elapsed += time.perf_counter() - t0
        h.update(f"{size}:{B.basis_hash()};".encode())
        block_ranks.append(r)
        rank += size * r
        total += size
    return RankCertificate(rank, p, h.hexdigest()[:16], elapsed, total, block_ranks)


def check_prime(prime: int) -> None:
    """Reject a modulus that is not an odd prime fitting in a machine word;
    it needs no matrix, so a command checks it before building one."""
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if prime.bit_length() > 62 or prime == 2:
        raise ValueError("modulus must be an odd prime fitting in a machine word")


def rank_mod_p(blocks, prime: int = DEFAULT_PRIME,
               memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES) -> RankCertificate:
    """Certified rank of (orbit_size, block) pairs reduced mod `prime`,
    which is only a lower bound on the rank over the rationals."""
    check_prime(prime)
    return _certified_rank(blocks, prime, memory_cap_bytes)


def rank_rational(blocks, memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES) -> RankCertificate:
    """Certified rank of (orbit_size, block) pairs over the rationals:
    `sparse_rank`'s fraction-free elimination of their int entries, under
    the same fill cap as `rank_mod_p`."""
    return _certified_rank(blocks, None, memory_cap_bytes)
