"""Command-line interface: bound certificates, module decompositions, and
the verification checks.

Only `exact_linalg`, which every `bound` run uses, is imported with this
module; each command imports the other modules it runs, so a run loads
only those of its method and output format.
"""

from __future__ import annotations

import argparse
import sys
import time
from math import ceil, comb, lcm
from pathlib import Path

from . import exact_linalg
from .exact_linalg import MemoryCapExceeded, rank_mod_p, rank_rational


def load_polynomial(spec: str, n: int):
    """The polynomial named by `spec`, with int coefficients, so that every
    block entry is an int (`exact_linalg.sparse_rank`): a `file:`
    polynomial is multiplied by the lcm of its coefficients' denominators,
    a nonzero scalar, which changes no rank."""
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
        m = lcm(*(c.denominator for c in P.terms.values()))
        return Polynomial(n, P.degree, {e: c.numerator * (m // c.denominator)
                                        for e, c in P.terms.items()})
    raise ValueError(f"unknown polynomial {spec!r}")


# The Pieri flattening at n=3 maps S_PI3 C^9 to S_(3)+PI3 C^9 (see
# `flattening_blocks`); `verify` checks the dimensions of both.
PI3 = (2, 2, 2, 2, 1, 1, 1, 1)


def flattening_blocks(method: str, spec: str, n: int, d: int | None, p: int | None,
                      memory_cap_bytes: int = exact_linalg.DEFAULT_MEMORY_CAP_BYTES
                      ) -> tuple[list, int]:
    """The (orbit_size, block) pairs of a flattening of the polynomial named
    by `spec`, and t, the rank of the same flattening at a power of a linear
    form.  koszul-minor gives its highest-weight blocks, whose ranks
    `certificate` turns into the map's rank; minor-orbits, one block per orbit
    of the same map, is `verify`'s second route for it; both check the
    request and charge their blocks before any column is listed.  The pieri
    method takes the koszul-full branch at (1, 4), whatever d and p are
    passed (`cmd_bound` refuses them).  Only the construction module of the
    method is imported.

    Pieri.  The Pieri (Young) flattening of a cubic P at n=3 maps S_pi V
    to S_(3)+pi V, V = C^9 and pi = PI3, adding one box to each of rows 1,
    5 and 9 of pi.  It is ranked as the full Koszul map at (d=1, p=4),
    Lambda^4 V x V* -> Lambda^5 V x V, which has the same rank over Q for
    every cubic; t = C(8, 4) = 70 for both.  Split Lambda^4 V x V* into
    Lambda^3 V, embedded by u -> sum_i (e_i ^ u) x e_i*, and K, the kernel
    of contraction onto Lambda^3 V: V* = Lambda^8 V x det^-1 and Lambda^4 V
    x Lambda^8 V = S_pi V + Lambda^3 V x det, so K = S_pi V x det^-1.  And
    Lambda^5 V x V = S_21111 V + Lambda^6 V.  Both maps are GL(V)-
    equivariant and linear in P (the Pieri map with its arrangements
    weighted by alpha!, see the oracle), and by the Pieri rule:
    - Hom(S^3 V x Lambda^3 V, Lambda^5 V x V) = 0 (S_411 + S_3111 meets
      neither summand), so the full map kills the trace summand;
    - Hom(S^3 V x K, Lambda^6 V) = 0: Lambda^6 V x det = S_222222111 adds
      boxes to rows 5, 6 and 9 of pi, and rows 5 and 6 share column 2;
    - Hom(S^3 V x K, S_21111 V) is one-dimensional, the Pieri rule being
      multiplicity-free: S_21111 V x det = S_(3)+pi adds exactly the boxes
      of rows 1, 5 and 9.
    Neither map is zero (rank 70 at a cubed variable), so after fixed
    isomorphisms the full map on K is a nonzero scalar times the Pieri map,
    for every P, and their ranks are equal over C, hence over Q.  A modular
    rank stays a lower bound on the rational rank of the matrix built.  The
    tableau-basis Pieri map is the tests' oracle for this route."""
    from . import flattening

    if method == "pieri":
        if n != 3:
            raise ValueError("the pieri method is supported at n=3 only")
        d, p = 1, 4
    if method in ("koszul-full", "pieri"):
        # refuse a bad or oversized request before the polynomial takes seconds to build
        flattening.check_named_terms(spec, n, d, p, memory_cap_bytes)
        P = load_polynomial(spec, n)
        if method == "pieri" and P.degree != 3:
            raise ValueError(f"degree {P.degree} does not match 3 added boxes")
        blocks = flattening.full_koszul_blocks(P, d, p, memory_cap_bytes)
    elif spec != "det":
        raise ValueError("koszul-minor is only defined for --poly det")
    else:
        blocks = (flattening.minor_orbit_blocks if method == "minor-orbits"
                  else flattening.highest_weight_blocks)(n, d, p, memory_cap_bytes)
    return list(blocks), comb(n * n - 1, p)


def certificate(method: str, spec: str, n: int, d: int | None, p: int | None,
                prime: int = exact_linalg.DEFAULT_PRIME, rational: bool = False,
                memory_cap_bytes: int = exact_linalg.DEFAULT_MEMORY_CAP_BYTES):
    """The `bounds.BoundCertificate` that `bound` prints and `verify`
    checks: the rank of `flattening_blocks`' blocks mod `prime` and, with
    `rational`, over Q too, the larger rank giving the bound.  For
    koszul-minor the blocks are highest-weight blocks, and
    `flattening.image_modules` reads each rank certificate's rank and
    `modules` from the blocks and their ranks."""
    from . import bounds

    blocks, t = flattening_blocks(method, spec, n, d, p, memory_cap_bytes)
    certs = [rank_mod_p(blocks, prime, memory_cap_bytes=memory_cap_bytes)]
    if rational:
        certs.append(rank_rational(blocks, memory_cap_bytes=memory_cap_bytes))
    if method == "koszul-minor":
        from .flattening import image_modules

        for cert in certs:
            cert.rank, cert.modules = image_modules(n, d, p, blocks, cert.block_ranks)
    if certs[0].rank != certs[-1].rank:
        print("warning: modular and rational ranks disagree", file=sys.stderr)
    if method == "pieri":
        d = p = None
    return bounds.BoundCertificate(
        polynomial="file" if spec.startswith("file:") else spec,
        method=method.replace("-", "_"), n=n, d=d, p=p,
        rank_F=max(c.rank for c in certs), t=t, provenance=certs)


def cmd_bound(args) -> int:
    from . import bounds

    exact_linalg.check_prime(args.prime)  # before anything is built
    if args.method == "pieri" and (args.d, args.p) != (None, None):
        raise ValueError("--method pieri takes no --d or --p: it ranks the full map at (1, 4)")
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    if args.memory_cap < 256:
        raise ValueError("--memory-cap must be at least 256 MiB")
    n = args.n
    d = args.d if args.d is not None else max(1, n // 2)
    p = args.p if args.p is not None else 2
    cert = certificate(args.method, args.poly, n, d, p, args.prime, args.rational,
                       args.memory_cap << 20)
    if args.format == "json":
        print(cert.to_json())
    else:
        print(f"polynomial      : {cert.polynomial} (n={n})")
        print(f"method          : {args.method}"
              + (f" d={cert.d} p={cert.p}" if cert.d else ""))
        print(f"rank(F)         : {cert.rank_F}")
        print(f"t               : {cert.t}")
        print(f"border rank >=  : {cert.bound}")
        if refs := bounds.reference_bounds(n, cert.polynomial):
            print("reference bounds:")
            for k, v in refs.items():
                print(f"  {k:24s} {v}")
    return 0


def cmd_decompose(args) -> int:
    import json

    from . import bounds, partitions

    n, d, p = args.n, args.d, args.p
    modules = partitions.candidate_image(n, d, p)
    # every dimension printed is at most the total, built only to print or where
    # its float log10 is too near an integer k to count its digits, then counted
    # exactly against 10**k
    size = partitions.total_log10(modules, n)
    digits = int(size) + 1
    if abs(size - (k := round(size))) < 1e-6:
        digits = k + (partitions.total_dimension(modules, n) >= 10 ** k)
    # int() = 0 is no limit: Python before 3.10.7 prints any int and lacks the function
    if 0 < (limit := getattr(sys, "get_int_max_str_digits", int)()) < digits:
        raise ValueError(f"the total dimension at n={n} has {digits} digits, over "
                         f"Python's limit of {limit} for printing an integer")
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


def rank_checks() -> list[tuple]:
    """The ranks `verify` certifies, as (label, method, poly, n, d, p,
    expected rank, expected bound), each ranked on the blocks `bound` ranks
    for the method.  A number's second route is another row (the minor map
    against the full map, or its highest-weight blocks against its orbit
    blocks) or the module dimension count as expected rank, which holds
    only if every module, the paper's lemma modules among them, reaches its
    Schur maximum: so the minor rows certify both theorems.  A pieri row
    ranks the full map at (d=1, p=4), so no full row repeats it; its second
    route is the tableau-basis Pieri map, the oracle in `tests/`."""
    from . import bounds
    from .partitions import theoretical_image_dim

    return [
        ("pieri power", "pieri", "power", 3, None, None, 70, 1),
        ("pieri det3", "pieri", "det", 3, None, None, 950, 14),
        ("pieri perm3", "pieri", "perm", 3, None, None, 934, 14),
        ("minor(4,2,1)", "koszul-minor", "det", 4, 2, 1, 560, 38),
        ("full det3 (d=1, p=2)", "koszul-full", "det", 3, 1, 2, 315, 12),
    ] + [
        (f"minor({n},{n // 2},{p}) = image dim, bound = {theorem}",
         "koszul-minor", "det", n, n // 2, p,
         theoretical_image_dim(n, n // 2, p), ceil(value(n)))
        for p, theorem, value in ((1, "preliminary theorem", bounds.preliminary_theorem_value),
                                  (2, "main theorem", bounds.main_theorem_value))
        for n in range(5, 9)
    ] + [
        (f"minor({n},{n // 2},2) by orbit blocks = by highest weights",
         "minor-orbits", "det", n, n // 2, 2, theoretical_image_dim(n, n // 2, 2),
         ceil(bounds.main_theorem_value(n)))
        for n in range(5, 9)
    ] + [
        ("full det5 (d=2, p=2) = minor(5,2,2), by contraction",
         "koszul-full", "det", 5, 2, 2, 29376, 107),
        ("minor(4,2,2) baseline", "koszul-minor", "det", 4, 2, 2, 4065, 39),
        ("full det4 (d=2, p=2) = minor(4,2,2) = image dim", "koszul-full",
         "det", 4, 2, 2, theoretical_image_dim(4, 2, 2), 39),
    ]


def _check(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f"  {detail}" if detail else ""))
    return ok


def cmd_verify() -> int:
    """The dimension and formula checks, then every row of `rank_checks`,
    ranked mod `exact_linalg.DEFAULT_PRIME`."""
    from . import bounds
    from .partitions import schur_dim

    t0 = time.time()
    ok = _check("schur dims 1050/1050/70",
                schur_dim(PI3, 9) == 1050
                and schur_dim((3,) + PI3, 9) == 1050
                and schur_dim(PI3, 8) == 70)
    ok &= _check("formula identities n=5..12",
                 all(bounds.image_dim_identity(n) and bounds.optimal_d(n) == n // 2
                     for n in range(5, 13)))
    for label, method, poly, n, d, p, rank, bound in rank_checks():
        cert = certificate(method, poly, n, d, p)
        r, b = cert.rank_F, cert.bound
        ok &= _check(f"{label}: rank {rank}, bound {bound}",
                     r == rank and b == bound,
                     f"rank={r} bound={b} orbits={cert.provenance[0].orbits}")
    print(f"verify: {'PASS' if ok else 'FAIL'} ({time.time() - t0:.1f}s)")
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
    sp.add_argument("--memory-cap", type=int, default=exact_linalg.DEFAULT_MEMORY_CAP_BYTES >> 20,
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

    sp = sub.add_parser("verify", help="re-certify the paper's ranks and bounds")
    sp.set_defaults(func=lambda args: cmd_verify())
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryCapExceeded) as exc:
        print(f"flatrank: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("flatrank: error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
