"""Wall-time and peak-RSS rows for a `BENCH_*.json` trajectory, by the
method of BENCH_1.json (`METHOD`, which the output records).

    python3 tools/bench_walls.py --name "BENCH_2: ..." > BENCH_2.json
    python3 tools/bench_walls.py det40 "det8 (4,2)"

Positional arguments keep only the rows whose label contains one of them.
The JSON goes to stdout and progress to stderr.  The commands run one at a time; the largest row,
det72, peaks near 2 GiB.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"))
RUNS = 3
CUBIC = "cubic16.json"
ROWS = [
    (f"koszul-minor det{n} ({n // 2},2)",
     ["bound", "--poly", "det", "--n", str(n), "--method", "koszul-minor",
      "--d", str(n // 2), "--p", "2", "--format", "json"])
    for n in (40, 48, 72)
] + [
    (f"koszul-full det8 ({d},2)",
     ["bound", "--poly", "det", "--n", "8", "--method", "koszul-full",
      "--d", str(d), "--p", "2", "--format", "json"])
    for d in (4, 3)
] + [
    ("pieri file:random_low_rank(16,3,3,0)",
     ["bound", "--poly", f"file:{CUBIC}", "--n", "3", "--method", "pieri", "--format", "json"]),
]
CUBIC_INPUT = (f"{CUBIC} holds polynomial_json(random_low_rank(16, 3, 3, 0)) from "
               "tests/oracles.py: a dense cubic in 9 variables, one 1134-column block")
METHOD = (
    "Each row's command ran three times, one after another, as a fresh "
    "`python3 -m flatrank.cli` child of a small launcher process (tools/bench_walls.py), "
    "with PYTHONPATH set to the commit's src/ and bytecode caching left on. wall_s is the "
    "launcher's perf_counter from spawn to os.wait4; peak_rss_mib is the child's ru_maxrss "
    "from os.wait4 (KiB / 1024). rank, bound and elapsed_ms (the certificate's elimination "
    "time) are read from the --format json certificate; rank and bound were equal in all "
    "runs. in_process_s comes from one more run in its own child, which wraps "
    "cli.flattening_blocks (listing and building the blocks), FlatteningMatrix.basis_hash "
    "and exact_linalg.sparse_rank with perf_counter timers and calls cli.main; the three "
    "are disjoint, and cli.main is their total plus argument parsing, image_modules and "
    "printing. One det40 run (the first row's command) follows every row, to track host "
    "drift; drift lists them in order.")
TIMED = ("cli.flattening_blocks", "FlatteningMatrix.basis_hash", "exact_linalg.sparse_rank")


def spawn(args: list[str], cwd: str) -> tuple[float, float, str]:
    """Run `python3 <args>` against this checkout's src/: (wall seconds,
    peak RSS in MiB, stdout); a nonzero exit is an error."""
    with tempfile.TemporaryFile("w+") as out:
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, *args], cwd=cwd, env=ENV, stdout=out)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        if child.returncode:
            raise RuntimeError(f"{' '.join(args)} exited with {child.returncode}")
        out.seek(0)
        return wall, usage.ru_maxrss / 1024, out.read()


def wall_run(argv: list[str], cwd: str) -> dict:
    wall, rss, out = spawn(["-m", "flatrank.cli", *argv], cwd)
    cert = json.loads(out)
    return {"wall_s": round(wall, 3), "peak_rss_mib": round(rss, 1), "rank": cert["rank"],
            "bound": cert["bound"],
            "elapsed_ms": round(sum(c["elapsed_ms"] for c in cert["provenance"]), 3)}


def in_process(argv: list[str]) -> None:
    """Print the seconds `cli.main(argv)` spends in each of `TIMED`, and in
    all, as JSON on stderr (stdout carries the certificate)."""
    from flatrank import cli, exact_linalg
    from flatrank.flattening import FlatteningMatrix

    spent = dict.fromkeys(TIMED, 0.0)

    def timed(name, f):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0
        return wrapper

    cli.flattening_blocks = timed(TIMED[0], cli.flattening_blocks)
    FlatteningMatrix.basis_hash = timed(TIMED[1], FlatteningMatrix.basis_hash)
    exact_linalg.sparse_rank = timed(TIMED[2], exact_linalg.sparse_rank)
    t0 = time.perf_counter()
    cli.main(argv)
    spent["cli.main"] = time.perf_counter() - t0
    print(json.dumps({k: round(v, 3) for k, v in spent.items()}), file=sys.stderr)


def bench_row(label: str, argv: list[str], runs: int, cwd: str) -> dict:
    walls = [wall_run(argv, cwd) for _ in range(runs)]
    if len({(w["rank"], w["bound"]) for w in walls}) != 1:
        raise RuntimeError(f"{label}: rank or bound differs between runs")
    err = subprocess.run([sys.executable, __file__, "--in-process", *argv], cwd=cwd, env=ENV,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                         check=True).stderr
    row = {"label": label, "argv": ["flatrank", *argv]}
    if CUBIC in " ".join(argv):
        row["input"] = CUBIC_INPUT
    row["wall_s"] = [w["wall_s"] for w in walls]
    row["median_wall_s"] = statistics.median(row["wall_s"])
    row["peak_rss_mib"] = [w["peak_rss_mib"] for w in walls]
    row.update(rank=walls[0]["rank"], bound=walls[0]["bound"],
               elapsed_ms=[w["elapsed_ms"] for w in walls],
               in_process_s=json.loads(err.splitlines()[-1]))
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("labels", nargs="*", help="keep only rows whose label contains one")
    ap.add_argument("--name", default="", help="the trajectory's name, as BENCH_1's")
    ap.add_argument("--in-process", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.in_process is not None:
        in_process(args.in_process)
        return 0
    rows = [(label, argv) for label, argv in ROWS
            if not args.labels or any(s in label for s in args.labels)]
    out = {"name": args.name, "commit": subprocess.run(
               ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
               text=True).stdout.strip(),
           "host": {"nproc": os.cpu_count(),
                    "mem_total": next(line.split(":")[1].strip()
                                      for line in Path("/proc/meminfo").read_text().splitlines()
                                      if line.startswith("MemTotal")),
                    "python": platform.python_version()},
           "method": METHOD,
           "rows": [], "drift_det40": []}
    with tempfile.TemporaryDirectory() as cwd:
        if any(CUBIC in " ".join(argv) for _, argv in rows):
            sys.path.insert(0, str(REPO / "tests"))
            sys.path.insert(0, str(REPO / "src"))
            from oracles import polynomial_json, random_low_rank

            Path(cwd, CUBIC).write_text(polynomial_json(random_low_rank(16, 3, 3, 0)))
        for label, argv in rows:
            out["rows"].append(bench_row(label, argv, RUNS, cwd))
            drift = wall_run(ROWS[0][1], cwd)
            out["drift_det40"].append({"after_row": label, **{
                k: drift[k] for k in ("wall_s", "peak_rss_mib", "elapsed_ms")}})
            print(f"{label}: median {out['rows'][-1]['median_wall_s']} s, "
                  f"det40 after it {drift['wall_s']} s", file=sys.stderr)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
