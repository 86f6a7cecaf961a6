"""Certification benchmark for the `flatrank bound` CLI.

    python3 perfbench/run.py --workload det5-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere inside a source checkout; the package is not installed.
Every command runs as a fresh `python -m flatrank.cli` process against the
checkout's `src/`, one at a time with the default single thread: a closed
loop with one client, so at most two processes (this one and the command)
are alive. A pass is one run through a workload's command list; passes
repeat until `--seconds` have elapsed. Every certificate is checked (see
workloads.check); a failed check counts in `failed` and the run goes on.

With `--trace 0` the last line reports the end-to-end metrics: median pass
wall time, median per-pass peak RSS of the largest command (from os.wait4,
per child) and median set-up time. With `--trace 1` the untraced passes run
as well, then one traced pass (tracer.py: spans and counts per module) and
one memory pass (tracer.py --heap: peak resident-set growth per layer),
and the last line reports the per-layer metrics.

What this cannot measure: there are no hardware counters, the page cache is
not dropped between passes, and the machine is a shared 2-core box whose
other tenants add noise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Command, Workload, check, quartic_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170  # every run must end within 180 s
SETUP_REPS = 3

LIMITATIONS = (
    "no hardware counters; page cache not dropped between passes; "
    "shared 2-core machine, other tenants add noise"
)

# Per-layer time metrics: the self time of the named span, summed over a pass.
# Self times partition the time spent in cli.main.
SELF_TIME = {
    "cli.self_s": "cli.main",
    "flattening.minor_build_s": "flattening.minor_build",
    "flattening.basis_hash_s": "flattening.basis_hash",
    "flattening.cache_write_s": "flattening.cache_write",
    "flattening.cache_read_s": "flattening.cache_read",
    "flattening.full_build_s": "flattening.full_build",
    "polynomials.contract_s": "polynomials.contract",
    "schur_flattening.pieri_build_s": "schur_flattening.pieri_build",
    "exact_linalg.modular_s": "exact_linalg.modular",
    "exact_linalg.rational_s": "exact_linalg.rational",
    "exact_linalg.components_s": "exact_linalg.components",
    "exact_linalg.bareiss_s": "exact_linalg.bareiss",
    "bounds.certificate_s": "bounds.certificate",
}
# Per-layer counts: metric -> (span whose calls are counted, or a tracer count).
CALLS = {
    "polynomials.contract_calls": "polynomials.contract",
    "exact_linalg.bareiss_calls": "exact_linalg.bareiss",
}
COUNTS = {
    "flattening.cache_bytes": ("flattening.cache_bytes", "bytes"),
    "flattening.rows": ("flattening.rows", "count"),
    "flattening.cols": ("flattening.cols", "count"),
    "flattening.nnz": ("flattening.nnz", "count"),
    "schur_flattening.straighten_calls": ("schur_flattening.straighten", "count"),
    "exact_linalg.components": ("exact_linalg.components", "count"),
    "exact_linalg.rank": ("exact_linalg.rank", "count"),
}
HEAP_MB = {
    "flattening.build_heap_mb": "flattening.build_heap",
    "exact_linalg.modular_heap_mb": "exact_linalg.modular_heap",
}


class SetupError(RuntimeError):
    pass


@dataclass
class Outcome:
    """One finished child process."""

    returncode: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, cmd: Command, out: Outcome) -> None:
        """Check one command's certificate, counting it as failed if wrong."""
        self.attempted += 1
        errors = check(cmd, out.returncode, out.stdout)
        if errors:
            tail = out.stderr.strip().splitlines()[-1:]
            self.failures.append(f"{cmd.label}: {'; '.join(errors + tail)}")


class Spawner:
    """Runs child processes one at a time, reaping each with os.wait4 so that
    its own peak RSS is read (RUSAGE_CHILDREN would report the maximum over
    every child ever reaped)."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline

    def env(self, cache_dir: Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["FLATRANK_CACHE"] = str(cache_dir)
        return env

    def run(self, argv: list[str], cache_dir: Path) -> Outcome:
        timeout = max(1.0, self.deadline - time.monotonic())
        with tempfile.TemporaryFile(dir=self.workdir) as out, \
                tempfile.TemporaryFile(dir=self.workdir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=self.workdir, env=self.env(cache_dir))
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024,
                           out.read().decode(errors="replace"),
                           err.read().decode(errors="replace"))

    def cli(self, cmd: Command, cache_dir: Path) -> Outcome:
        return self.run([sys.executable, "-m", "flatrank.cli", *cmd.cli_args()], cache_dir)


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.spawner = Spawner(workdir, time.monotonic() + RUN_LIMIT_S)
        self.tally = Tally()
        self.commands: list[Command] = []
        self.warm_dir: Path | None = None
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"cache-{self._dirs}"
        path.mkdir()
        return path

    def cache_dir(self) -> Path:
        return self.warm_dir if self.workload.warm else self.fresh_dir()

    def drop(self, path: Path) -> None:
        if path != self.warm_dir:
            shutil.rmtree(path, ignore_errors=True)

    # -- set-up ------------------------------------------------------------

    def setup_once(self) -> float:
        """Import warm-up (compiles bytecode, loads numpy from disk), input
        generation and, for a warm workload, the cache fill."""
        start = time.perf_counter()
        scratch = self.fresh_dir()
        out = self.spawner.run([sys.executable, "-m", "flatrank.cli", "--help"], scratch)
        self.drop(scratch)
        if out.returncode != 0:
            raise SetupError(f"cannot run flatrank.cli from {SRC}: {out.stderr.strip()}")
        poly_path = None
        if self.workload.quartic:
            poly_path = self.workdir / f"quartic-seed{self.seed}.json"
            poly_path.write_text(quartic_json(self.seed))
        self.commands = self.workload.commands(str(poly_path))
        if self.workload.warm:
            if self.warm_dir is not None:
                shutil.rmtree(self.warm_dir)
            self.warm_dir = self.fresh_dir()
            for cmd in self.commands:
                self.tally.record(cmd, self.spawner.cli(cmd, self.warm_dir))
        return time.perf_counter() - start

    # -- measured passes ---------------------------------------------------

    def run_pass(self) -> tuple[float, float]:
        """One untraced pass: (wall seconds, largest child peak RSS in MB)."""
        caches = [self.cache_dir() for _ in self.commands]
        outs = []
        start = time.perf_counter()
        for cmd, cache in zip(self.commands, caches):
            outs.append(self.spawner.cli(cmd, cache))
        wall = time.perf_counter() - start
        for cmd, cache, out in zip(self.commands, caches, outs):
            self.tally.record(cmd, out)
            self.drop(cache)
        return wall, max(out.rss_mb for out in outs)

    def measure(self) -> tuple[list[float], list[float]]:
        walls, rss = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < self.seconds:
            if time.monotonic() > self.spawner.deadline:
                break
            wall, peak = self.run_pass()
            walls.append(wall)
            rss.append(peak)
        return walls, rss

    def traced_pass(self, heap: bool) -> tuple[float, list[dict]]:
        """One pass through tracer.py: (wall seconds, one trace per command)."""
        traces = []
        wall = 0.0
        for i, cmd in enumerate(self.commands):
            cache = self.cache_dir()
            spans = self.workdir / f"trace-{int(heap)}-{i}.json"
            argv = [sys.executable, str(HERE / "tracer.py"), "--out", str(spans)]
            out = self.spawner.run(argv + (["--heap"] if heap else []) + ["--", *cmd.cli_args()],
                                   cache)
            self.drop(cache)
            wall += out.wall_s
            try:
                trace = json.loads(spans.read_text())
            except (OSError, ValueError):
                trace = {}
            # the tracer exits 0 and reports the command's own exit code
            code = trace.get("returncode") if out.returncode == 0 else out.returncode
            self.tally.record(cmd, Outcome(code, out.wall_s, out.rss_mb,
                                           trace.get("stdout", ""), out.stderr))
            traces.append(trace)
        return wall, traces


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(traced_wall: float, traces: list[dict], heap_traces: list[dict],
                  wall_s: float) -> dict:
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    import_s = 0.0
    for trace in traces:
        import_s += trace.get("import_s", 0.0)
        spans = trace.get("spans", [])
        for span, own in zip(spans, self_times(spans)):
            self_s[span["name"]] = self_s.get(span["name"], 0.0) + own
            calls[span["name"]] = calls.get(span["name"], 0) + 1
        for key, n in trace.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + n
    heap: dict[str, int] = {}
    for trace in heap_traces:
        for key, n in trace.get("heap_bytes", {}).items():
            heap[key] = max(heap.get(key, 0), n)

    m = {"cli.import_s": (import_s, "s")}
    m.update({k: (self_s.get(span, 0.0), "s") for k, span in SELF_TIME.items()})
    m.update({k: (calls.get(span, 0), "count") for k, span in CALLS.items()})
    m.update({k: (counts.get(key, 0), unit) for k, (key, unit) in COUNTS.items()})
    m.update({k: (heap.get(key, 0) / 2**20, "MB") for k, key in HEAP_MB.items()})
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - wall_s, "s")
    m["trace.unaccounted_s"] = (traced_wall - import_s - sum(self_s.values()), "s")
    return m


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    mem_mb = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_mb,
        "commit": git_commit(),
        "limitations": LIMITATIONS,
    }


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool,
                 workdir: Path) -> dict:
    bench = Bench(workload, seed, seconds, workdir)
    setups = [bench.setup_once() for _ in range(SETUP_REPS)]
    walls, rss = bench.measure()
    wall_s = statistics.median(walls)
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": workload.why,
        "commands": [" ".join(c.cli_args()) for c in bench.commands],
        "setup_s": setups, "passes": len(walls), "pass_wall_s": walls,
        "pass_wall_quartiles_s": quartiles(walls), "pass_peak_rss_mb": rss,
    }
    if trace:
        traced_wall, traces = bench.traced_pass(heap=False)
        _, heap_traces = bench.traced_pass(heap=True)
        metrics = layer_metrics(traced_wall, traces, heap_traces, wall_s)
        detail["absent"] = sorted({a for t in traces + heap_traces for a in t.get("absent", [])})
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    detail["failures"] = bench.tally.failures
    return {
        "detail": detail,
        "correct": not bench.tally.failures,
        "attempted": bench.tally.attempted,
        "failed": len(bench.tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="flatrank certification benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "flatrank" / "cli.py").is_file():
        print(f"error: no flatrank sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"env {json.dumps(environment())}")
    results = {}
    for name in names:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            try:
                res = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                   bool(args.trace), Path(tmp))
            except SetupError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
        results[name] = res
        detail = res.pop("detail")
        print(f"detail {json.dumps(detail)}")
        q1, q2, q3 = detail["pass_wall_quartiles_s"]
        print(f"{name:12s} passes {detail['passes']}, pass wall quartiles "
              f"{q1:.4f} / {q2:.4f} / {q3:.4f} s")
        for metric, v in res["metrics"].items():
            print(f"{name:12s} {metric:36s} {v['value']:14.6f} {v['unit']}")
        print(f"{name:12s} attempted {res['attempted']} failed {res['failed']}")

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
