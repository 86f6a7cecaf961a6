"""Command-line interface: bound certificates, module decompositions, and
the verification suites.

Only `exact_linalg`, which every `bound` run uses, is imported with this
module; each command imports the other modules it runs, so a run loads
only those of its method and output format.
"""

from __future__ import annotations

import argparse
import sys
import time
from math import comb
from pathlib import Path

from . import exact_linalg
from .exact_linalg import (
    MemoryCapExceeded,
    PrimeDividesDenominator,
    rank_mod_p,
    rank_rational,
)


def load_polynomial(spec: str, n: int):
    from .polynomials import Polynomial, determinant_poly, permanent_poly, variable_power

    if spec == "det":
        return determinant_poly(n)
    if spec == "perm":
        return permanent_poly(n)
    if spec == "power":
        return variable_power((n, n), n, n)
    if spec.startswith("file:"):
        P = Polynomial.from_json(Path(spec[5:]).read_text())
        if P.n != n:
            raise ValueError(f"{spec} is a polynomial at n={P.n}, not at --n {n}")
        return P
    raise ValueError(f"unknown polynomial {spec!r}")


def flattening_blocks(method: str, spec: str, n: int, d: int | None, p: int | None,
                      memory_cap_bytes: int = exact_linalg.DEFAULT_MEMORY_CAP_BYTES
                      ) -> tuple[list, int]:
    """The (orbit_size, block) pairs of a flattening of the polynomial named
    by `spec`, and t, the rank of the same flattening at a power of a linear
    form.  koszul-minor gives its highest-weight blocks, whose ranks
    `certify` turns into the map's rank; minor-orbits, one block per orbit
    of the same map, is `verify`'s second route for it.  The pieri method
    ignores d and p.  Only the construction module of the method is
    imported."""
    if method == "pieri":
        if n != 3:
            raise ValueError("the pieri method is supported at n=3 only")
        from .schur_flattening import PI3, PIERI_ROWS, PIERI_T, pieri_blocks

        return list(pieri_blocks(load_polynomial(spec, n), PI3, PIERI_ROWS)), PIERI_T
    from . import flattening

    if method == "koszul-full":
        # refuse an oversized request before the polynomial takes seconds to build
        flattening.check_full_size(n, d, p, memory_cap_bytes)
        blocks = flattening.full_koszul_blocks(load_polynomial(spec, n), d, p,
                                               memory_cap_bytes)
    elif spec != "det":
        raise ValueError("koszul-minor is only defined for --poly det")
    elif method == "minor-orbits":
        blocks = flattening.minor_orbit_blocks(n, d, p)
    else:
        blocks = flattening.highest_weight_blocks(n, d, p, memory_cap_bytes)
    return list(blocks), comb(n * n - 1, p)


def certify(method: str, blocks: list, n: int, d: int | None, p: int | None,
            prime: int | None,
            memory_cap_bytes: int = exact_linalg.DEFAULT_MEMORY_CAP_BYTES):
    """The rank certificate of `flattening_blocks`' blocks, mod `prime` or,
    for prime=None, over the rationals.  For koszul-minor the blocks are
    highest-weight blocks: the certificate's rank becomes the map's rank
    solved from their ranks, and its `modules` the image modules
    (`flattening.image_modules`)."""
    if prime is None:
        cert = rank_rational(blocks, memory_cap_bytes=memory_cap_bytes)
    else:
        cert = rank_mod_p(blocks, prime, memory_cap_bytes=memory_cap_bytes)
    if method == "koszul-minor":
        from .flattening import image_modules

        weights = {B.weight: r for (_, B), r in zip(blocks, cert.block_ranks)}
        cert.rank, modules = image_modules(n, d, p, weights, prime)
        cert.modules = [{"a": list(a), "b": list(b), "m": m, "schur_max": top}
                        for a, b, m, top in modules]
    return cert


def cmd_bound(args) -> int:
    from . import bounds

    if args.memory_cap < 256:
        raise ValueError("--memory-cap must be at least 256 MiB")
    cap = args.memory_cap << 20
    n, method = args.n, args.method
    d = args.d if args.d is not None else max(1, n // 2)
    p = args.p if args.p is not None else 2
    if method == "koszul-minor":
        from .flattening import check_module_prime

        check_module_prime(n, d, p, args.prime)
    # weight blocks, few and small enough to rebuild every run
    blocks, t = flattening_blocks(method, args.poly, n, d, p, cap)
    if method == "pieri":
        d = p = None
    name = "file" if args.poly.startswith("file:") else args.poly
    certs = []
    try:
        certs.append(certify(method, blocks, n, d, p, args.prime, cap))
    except PrimeDividesDenominator as exc:
        if not args.rational:
            raise
        # the rational certificate needs no reduction mod p
        print(f"warning: no modular certificate: {exc}", file=sys.stderr)
    if args.rational:
        certs.append(certify(method, blocks, n, d, p, None, cap))
        if certs[0].rank != certs[-1].rank:
            print("warning: modular and rational ranks disagree", file=sys.stderr)
    cert = bounds.BoundCertificate(
        polynomial=name, method=method.replace("-", "_"), n=n, d=d, p=p,
        rank_F=max(c.rank for c in certs), t=t, provenance=certs,
    )
    if args.format == "json":
        print(cert.to_json())
    else:
        print(f"polynomial      : {name} (n={n})")
        print(f"method          : {method}" + (f" d={d} p={p}" if d else ""))
        print(f"rank(F)         : {cert.rank_F}")
        print(f"t               : {t}")
        print(f"border rank >=  : {cert.bound}")
        print("reference bounds:")
        for k, v in bounds.reference_bounds(n, name).items():
            print(f"  {k:24s} {v}")
    return 0


def cmd_decompose(args) -> int:
    import json

    from . import bounds, partitions

    n, d, p = args.n, args.d, args.p
    modules = partitions.candidate_image(n, d, p)
    total = partitions.total_dimension(modules, n)
    if args.format == "json":
        print(json.dumps([{"a": list(a), "b": list(b), "mult": m,
                           "dim_a": partitions.schur_dim(a, n),
                           "dim_b": partitions.schur_dim(b, n)} for a, b, m in modules]
                         + [{"total_dim": total}]))
    else:
        for a, b, m in modules:
            da, db = partitions.schur_dim(a, n), partitions.schur_dim(b, n)
            print(f"  {a} x {b}  mult {m}  dim {da}*{db} = {da * db}")
        print(f"total dimension: {total}")
        if p == 2 and 1 <= d <= n - 2:
            fval = bounds.f_formula(n, d) * comb(n, d) ** 2
            note = "" if fval == total else "  (differs: shapes filtered at this n)"
            print(f"f(n,d)*C(n,d)^2: {fval}{note}")
    return 0


def rank_checks(suite: str) -> list[tuple]:
    """The ranks a suite certifies, as (label, method, poly, n, d, p,
    expected rank, expected bound), each ranked on the blocks `bound` ranks
    for the method.  A number's second route is another row (the minor map
    against the full map, or its highest-weight blocks against its orbit
    blocks) or the module dimension count as expected rank."""
    from . import bounds
    from .partitions import theoretical_image_dim
    from .schur_flattening import PIERI_T

    rows = [
        ("pieri power", "pieri", "power", 3, None, None, PIERI_T, 1),
        ("pieri det3", "pieri", "det", 3, None, None, 950, 14),
        ("pieri perm3", "pieri", "perm", 3, None, None, 934, 14),
        ("minor(4,2,1)", "koszul-minor", "det", 4, 2, 1, 560, 38),
        ("full det3 (d=1, p=2)", "koszul-full", "det", 3, 1, 2, 315, 12),
    ]
    if suite == "paper":
        rows += [
            (f"minor({n},{n // 2},2) = image dim, bound = main theorem",
             "koszul-minor", "det", n, n // 2, 2,
             theoretical_image_dim(n, n // 2, 2),
             bounds.main_theorem_value(n).integer_bound)
            for n in range(5, 9)
        ]
        rows += [
            (f"minor({n},{n // 2},2) by orbit blocks = by highest weights",
             "minor-orbits", "det", n, n // 2, 2, theoretical_image_dim(n, n // 2, 2),
             bounds.main_theorem_value(n).integer_bound)
            for n in range(5, 9)
        ]
        rows += [
            ("full det5 (d=2, p=2) = minor(5,2,2), by contraction",
             "koszul-full", "det", 5, 2, 2, 29376, 107),
            ("minor(4,2,2) baseline", "koszul-minor", "det", 4, 2, 2, 4065, 39),
            ("full det4 (d=2, p=2) = minor(4,2,2) = image dim", "koszul-full",
             "det", 4, 2, 2, theoretical_image_dim(4, 2, 2), 39),
            ("full det3 (d=1, p=4) = pieri det3", "koszul-full", "det", 3, 1, 4, 950, 14),
            ("full perm3 (d=1, p=4) = pieri perm3", "koszul-full", "perm", 3, 1, 4, 934, 14),
        ]
    return rows


def _check(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  {detail}" if detail else ""))
    return ok


def run_suite(suite: str) -> bool:
    """quick: the dimension and formula checks and the small ranks; paper:
    those, the paper's ranks and the hwv checks; hwv: the hwv checks.
    Ranks are taken mod `exact_linalg.DEFAULT_PRIME`."""
    from . import bounds
    from .hwv import ALL_LEMMAS, verify_hwv_nonzero
    from .partitions import schur_dim
    from .schur_flattening import PI3

    ok = True
    if suite != "hwv":
        ok &= _check("schur dims 1050/1050/70",
                     schur_dim(PI3, 9) == 1050
                     and schur_dim((3,) + PI3, 9) == 1050
                     and schur_dim(PI3, 8) == 70)
        ok &= _check("formula identities n=5..12",
                     all(bounds.image_dim_identity(n) and bounds.optimal_d(n) == n // 2
                         for n in range(5, 13)))
        for label, method, poly, n, d, p, rank, bound in rank_checks(suite):
            blocks, t = flattening_blocks(method, poly, n, d, p)
            r = certify(method, blocks, n, d, p, exact_linalg.DEFAULT_PRIME).rank
            b = bounds.flattening_bound(r, t)
            ok &= _check(f"{label}: rank {rank}, bound {bound}",
                         r == rank and b == bound,
                         f"rank={r} bound={b} orbits={len(blocks)}")
    if suite != "quick":
        for n in range(5, 9):
            for lid in ALL_LEMMAS:
                nz, _ = verify_hwv_nonzero(lid, n, n // 2)
                ok &= _check(f"hwv {lid} n={n} d={n // 2}", nz)
    return bool(ok)


def cmd_verify(args) -> int:
    t0 = time.time()
    ok = run_suite(args.suite)
    print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'} "
          f"({time.time() - t0:.1f}s)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="flatrank",
        description="Exact Koszul-Young flattenings and certified symmetric "
        "border rank lower bounds",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bound", help="compute a border-rank bound certificate")
    sp.add_argument("--poly", required=True,
                    help="det, perm, power, or file:<path>")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--method", required=True,
                    choices=["koszul-full", "koszul-minor", "pieri"])
    sp.add_argument("--d", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--rational", action="store_true",
                    help="also certify the rank over the rationals")
    sp.add_argument("--memory-cap", type=int, default=4096,
                    help="memory cap in MiB for the build-size guards and elimination fill")
    sp.add_argument("--prime", type=int, default=exact_linalg.DEFAULT_PRIME)
    sp.add_argument("--format", choices=["json", "table"], default="table")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("decompose", help="print the candidate image modules")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--format", choices=["json", "table"], default="table")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=["quick", "paper", "hwv"], default="quick")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryCapExceeded) as exc:
        print(f"flatrank: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
