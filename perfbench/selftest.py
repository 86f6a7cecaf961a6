"""Self-test of the benchmark's correctness gate and input generator.

    python3 perfbench/selftest.py

Exits 0 when every check holds. It runs one small real certificate (det3
wedge-1, about a second) through the same spawner and tally as the
benchmark, once with the right expected values and once with a wrong rank,
and asserts that only the second is counted as failed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
import time
from pathlib import Path

import run
from workloads import Command, check, quartic_command, quartic_json

DET3 = Command(
    "det3-minor",
    ("--poly", "det", "--n", "3", "--method", "koszul-minor", "--d", "1", "--p", "1"),
    rank=80, t=8, bound=10,
)


def certificate(rank=80, t=8, bound=10, provenance=None) -> str:
    return json.dumps({"rank": rank, "t": t, "bound": bound,
                       "provenance": provenance or [{"method": "modular", "rank": rank}]})


def expect(cond: bool, what: str, failures: list[str]) -> None:
    print(f"[{'PASS' if cond else 'FAIL'}] {what}")
    if not cond:
        failures.append(what)


def main() -> int:
    failures: list[str] = []
    rational = dataclasses.replace(DET3, rational=True)
    both = [{"method": "modular", "rank": 80}, {"method": "rational", "rank": 80}]
    split = [{"method": "modular", "rank": 80}, {"method": "rational", "rank": 79}]
    quartic = quartic_command("q.json")
    t = quartic.t
    for what, errors, ok in [
        ("right certificate passes", check(DET3, 0, certificate()), True),
        ("wrong rank fails", check(DET3, 0, certificate(rank=81)), False),
        ("wrong bound fails", check(DET3, 0, certificate(bound=11)), False),
        ("nonzero exit fails", check(DET3, 1, certificate()), False),
        ("unparseable output fails", check(DET3, 0, "rank 80"), False),
        ("agreeing rational ranks pass", check(rational, 0, certificate(provenance=both)), True),
        ("disagreeing rational ranks fail",
         check(rational, 0, certificate(provenance=split)), False),
        ("missing rational rank fails", check(rational, 0, certificate()), False),
        ("overstated quartic bound fails",
         [e for e in check(quartic, 0, certificate(rank=quartic.rank + 1, t=t,
                                                   bound=quartic.bound + 1))
          if "overstates" in e],
         False),
        ("generic quartic certificate passes",
         check(quartic, 0, certificate(rank=quartic.rank, t=t, bound=quartic.bound)), True),
    ]:
        expect((not errors) == ok, what + (f" ({errors[0]})" if errors else ""), failures)

    expect(quartic_json(7) == quartic_json(7), "same seed gives the same quartic", failures)
    expect(quartic_json(7) != quartic_json(8), "another seed gives another quartic", failures)

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=run.ROOT) as tmp:
        work = Path(tmp)
        spawner = run.Spawner(work, time.monotonic() + 120)
        tally = run.Tally()
        out = spawner.cli(DET3, work)
        tally.record(DET3, out)
        tally.record(dataclasses.replace(DET3, rank=81), out)
        expect(tally.attempted == 2 and len(tally.failures) == 1
               and tally.failures[0].startswith("det3-minor: rank 80 != expected 81"),
               "live run: a wrong expected value is counted as failed", failures)
        expect(out.rss_mb > 0, "live run: peak RSS read from os.wait4", failures)

    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
