"""Workloads of the certification benchmark and the per-command correctness gate.

Every command is a `flatrank bound` invocation exactly as a user types it,
with `--format json` so its certificate can be checked. No command passes
`--threads`, `--cache-dir` or `--no-cache`: the cache is pointed at a
benchmark-owned directory through `FLATRANK_CACHE` only, so a change that
removes the cache still runs the identical commands.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb, factorial, prod

# Random quartic of the `random-full` workload: a sum of R fourth powers of
# dense integer linear forms in the 9 variables of a 3x3 matrix.
QUARTIC_N = 3
QUARTIC_DEGREE = 4
QUARTIC_TERMS = 20  # r; the generic Koszul rank is r * t
QUARTIC_COEFF = 9  # linear-form coefficients are drawn from +-1..+-9


@dataclass(frozen=True)
class Command:
    """One `flatrank bound` invocation and the certificate it must print."""

    label: str
    argv: tuple[str, ...]
    rank: int
    t: int
    bound: int
    rational: bool = False
    max_bound: int | None = None  # a bound above this would be overstated

    def cli_args(self) -> list[str]:
        args = ["bound", *self.argv, "--format", "json"]
        if self.rational:
            args.append("--rational")
        return args


def check(cmd: Command, returncode: int | None, stdout: str) -> list[str]:
    """Return the reasons the command's result is wrong; empty means correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        rec = json.loads(stdout)
    except ValueError:
        return ["output is not JSON"]
    if not isinstance(rec, dict):
        return ["output is not a JSON object"]
    errors = [
        f"{key} {rec.get(key)!r} != expected {want}"
        for key, want in (("rank", cmd.rank), ("t", cmd.t), ("bound", cmd.bound))
        if rec.get(key) != want
    ]
    if cmd.max_bound is not None and not (
        isinstance(rec.get("bound"), int) and rec["bound"] <= cmd.max_bound
    ):
        errors.append(f"bound {rec.get('bound')!r} overstates the limit {cmd.max_bound}")
    if cmd.rational:
        ranks = {c.get("method"): c.get("rank") for c in rec.get("provenance") or []}
        if "modular" not in ranks or "rational" not in ranks:
            errors.append(f"provenance lacks a modular and a rational rank: {ranks}")
        elif ranks["modular"] != ranks["rational"]:
            errors.append(
                f"modular rank {ranks['modular']} != rational rank {ranks['rational']}"
            )
    return errors


def quartic_json(seed: int) -> str:
    """The `random-full` input in the JSON form `--poly file:` reads.

    Generated here rather than by the library, so that a change to the
    library cannot change the benchmark's input. Coefficients are nonzero,
    so every form is dense and every seed gives the same sparsity pattern:
    the seed changes the values, not the amount of work.
    """
    rng = random.Random(seed)
    nv = QUARTIC_N * QUARTIC_N
    forms = [
        [rng.choice((-1, 1)) * rng.randint(1, QUARTIC_COEFF) for _ in range(nv)]
        for _ in range(QUARTIC_TERMS)
    ]
    terms = []
    for combo in combinations_with_replacement(range(nv), QUARTIC_DEGREE):
        exps = [combo.count(k) for k in range(nv)]
        multinomial = factorial(QUARTIC_DEGREE) // prod(factorial(e) for e in exps)
        coeff = multinomial * sum(prod(f[k] ** e for k, e in enumerate(exps)) for f in forms)
        if coeff:
            terms.append({"exps": exps, "num": str(coeff), "den": "1"})
    terms.sort(key=lambda rec: rec["exps"])
    return json.dumps({"n": QUARTIC_N, "degree": QUARTIC_DEGREE, "terms": terms})


DET5 = Command(
    "det5-minor",
    ("--poly", "det", "--n", "5", "--method", "koszul-minor", "--d", "2", "--p", "2"),
    rank=29376, t=276, bound=107,
)


def quartic_command(poly_path: str) -> Command:
    t = comb(QUARTIC_N * QUARTIC_N - 1, 2)
    return Command(
        "random-quartic-full",
        ("--poly", f"file:{poly_path}", "--n", str(QUARTIC_N), "--method", "koszul-full",
         "--d", "2", "--p", "2"),
        rank=QUARTIC_TERMS * t, t=t, bound=QUARTIC_TERMS, max_bound=QUARTIC_TERMS,
    )


SMALL_BATCH = (
    Command("det4-full",
            ("--poly", "det", "--n", "4", "--method", "koszul-full", "--d", "2", "--p", "2"),
            rank=4065, t=105, bound=39),
    Command("perm3-pieri-rational", ("--poly", "perm", "--n", "3", "--method", "pieri"),
            rank=934, t=70, bound=14, rational=True),
    Command("det3-pieri", ("--poly", "det", "--n", "3", "--method", "pieri"),
            rank=950, t=70, bound=14),
    Command("det4-minor-rational",
            ("--poly", "det", "--n", "4", "--method", "koszul-minor", "--d", "2", "--p", "2"),
            rank=4065, t=105, bound=39, rational=True),
)


@dataclass(frozen=True)
class Workload:
    """A command list run once per pass.

    `warm` passes share one cache directory filled during setup; all other
    passes start from an empty cache directory. `quartic` workloads write the
    seeded random quartic during setup and pass its path to the command.
    """

    name: str
    why: str
    fixed: tuple[Command, ...] = ()
    warm: bool = False
    quartic: bool = False

    def commands(self, poly_path: str | None = None) -> list[Command]:
        return [quartic_command(poly_path)] if self.quartic else list(self.fixed)


# Rationale for each workload sits beside its definition. Left out: det6
# wedge-2 (42 s, about 1 GB per run), det5 --rational (crashes on the
# whole-matrix size guard) and --rational on the random quartic (about 300 s).
WORKLOADS = {
    w.name: w
    for w in (
        # The default first query: build the det5 wedge-2 minor map, write
        # the cache, then eliminate mod p. Minor-build, cache-write and
        # orbit-reduction changes show here.
        Workload("det5-cold",
                 "headline det5 wedge-2 certificate from an empty cache: "
                 "build, cache write, modular elimination",
                 fixed=(DET5,)),
        # The same command served from a cache filled during setup, so the
        # build is bypassed: cache reads beside det5-cold's cache writes.
        Workload("det5-warm",
                 "headline det5 certificate from a filled cache: cache read "
                 "and modular elimination, no build",
                 fixed=(DET5,), warm=True),
        # A dense seeded quartic through the full construction: elimination
        # with heavy fill on large coefficients, no minor builder. Runnable,
        # but not listed in BENCHMARK.json: on a shared 2-core host its wall
        # time drifts by up to 60% over minutes, more than any bound allows.
        Workload("random-full",
                 "seeded random quartic through the full Koszul map: "
                 "elimination with heavy fill, minor builder unused",
                 quartic=True),
        # Four short certificates, one process each: the only use of the
        # Pieri/tableau builder and the rational route, and four imports.
        Workload("small-batch",
                 "four small certificates incl. Pieri and --rational: "
                 "straightening, Bareiss, components and import cost",
                 fixed=SMALL_BATCH),
    )
}
