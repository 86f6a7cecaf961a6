"""Run one `flatrank` command in-process with its layers traced.

    python3 perfbench/tracer.py --out spans.json [--heap] -- bound --poly det ...

`src/` must be on PYTHONPATH. The script times `import flatrank.cli`, then
replaces the public functions of each module at the name their caller looks
them up by (the module attribute, or the class attribute for methods) with
wrappers that record spans and counts, and calls `flatrank.cli.main(argv)`.
Spans are kept in memory and written to `--out` as JSON when the command
ends, together with the command's exit code and standard output.

With `--heap`, only the matrix-producing calls and the modular elimination
are wrapped, and a sampler thread records how far the resident set grows
above its size at entry while each runs; nothing is timed. (`tracemalloc`
would be exact for the Python heap, but it slows the elimination of the
random quartic about fifty-fold, past the run's time limit.) A target that
no longer exists is listed as absent instead of failing the run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import sys
import threading
import time

# (owner, attribute, span name, what to record from the call)
TIMED = (
    ("flatrank.flattening", "minor_koszul_matrix", "flattening.minor_build", "matrix"),
    ("flatrank.flattening", "full_koszul_matrix", "flattening.full_build", "matrix"),
    ("flatrank.flattening", "read_matrix_cache", "flattening.cache_read", "read"),
    ("flatrank.flattening", "write_matrix_cache", "flattening.cache_write", "write"),
    ("flatrank.flattening.FlatteningMatrix", "basis_hash", "flattening.basis_hash", None),
    ("flatrank.flattening", "contract", "polynomials.contract", None),
    ("flatrank.schur_flattening", "pieri_flattening_matrix",
     "schur_flattening.pieri_build", "matrix"),
    ("flatrank.cli", "rank_mod_p", "exact_linalg.modular", "rank"),
    ("flatrank.cli", "rank_rational", "exact_linalg.rational", None),
    ("flatrank.exact_linalg", "connected_components", "exact_linalg.components",
     "components"),
    ("flatrank.exact_linalg", "dense_rank_bareiss", "exact_linalg.bareiss", None),
    ("flatrank.bounds.BoundCertificate", "to_json", "bounds.certificate", None),
    ("flatrank.bounds", "BoundCertificate", "bounds.certificate", None),
)
# Called tens of thousands of times per Pieri build: counted, not timed.
COUNTED = (("flatrank.schur_flattening", "straighten", "schur_flattening.straighten"),)
# Calls whose peak resident-set growth the memory pass records, by metric.
HEAP = (
    ("flatrank.flattening", "minor_koszul_matrix", "flattening.build_heap"),
    ("flatrank.flattening", "full_koszul_matrix", "flattening.build_heap"),
    ("flatrank.flattening", "read_matrix_cache", "flattening.build_heap"),
    ("flatrank.schur_flattening", "pieri_flattening_matrix", "flattening.build_heap"),
    ("flatrank.cli", "rank_mod_p", "exact_linalg.modular_heap"),
)
SAMPLE_S = 0.002
PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * PAGE


def resolve(path: str):
    """Import a module path, or a module path followed by a class name."""
    module, _, rest = path.partition(".")
    obj = importlib.import_module(module)
    for part in rest.split("."):
        if not hasattr(obj, part):
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.heap: dict[str, int] = {}
        self.absent: list[str] = []

    def _targets(self, table):
        """Resolve every owner before any is patched, so that replacing a
        class on its module does not hide the class's own methods."""
        out = []
        for owner_path, attr, *rest in table:
            try:
                owner = resolve(owner_path)
            except (ImportError, AttributeError):
                owner = None
            if owner is None or not hasattr(owner, attr):
                self.absent.append(f"{owner_path}.{attr}")
                continue
            out.append((owner, attr, getattr(owner, attr), *rest))
        return out

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, record=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append({"name": name, "parent": self.stack[-1] if self.stack else None})
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx].update(start=start, end=end)
            if record is not None:
                self._record(record, args, result)
            return result
        return wrapper

    def _record(self, what: str, args, result) -> None:
        if what in ("matrix", "read"):
            self.count("flattening.rows", len(result.rows))
            self.count("flattening.cols", len(result.cols))
            self.count("flattening.nnz", len(result.entries))
        if what in ("read", "write"):
            self.count("flattening.cache_bytes",
                       os.path.getsize(args[1] if what == "write" else args[0]))
        if what == "rank":
            self.count("exact_linalg.rank", result.rank)
        if what == "components":
            self.count("exact_linalg.components", len(result))

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def heap_peak(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = rss_bytes()
            peak = [base]
            done = threading.Event()

            def sample():
                while not done.wait(SAMPLE_S):
                    peak[0] = max(peak[0], rss_bytes())

            sampler = threading.Thread(target=sample, daemon=True)
            sampler.start()
            try:
                return fn(*args, **kwargs)
            finally:
                done.set()
                sampler.join()
                grown = max(peak[0], rss_bytes()) - base
                self.heap[name] = max(self.heap.get(name, 0), grown)
        return wrapper

    def install(self, heap: bool) -> None:
        if heap:
            for owner, attr, fn, name in self._targets(HEAP):
                setattr(owner, attr, self.heap_peak(name, fn))
            return
        for owner, attr, fn, name, record in self._targets(TIMED):
            setattr(owner, attr, self.span(name, fn, record))
        for owner, attr, fn, name in self._targets(COUNTED):
            setattr(owner, attr, self.counter(name, fn))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="file to write the spans to")
    ap.add_argument("--heap", action="store_true",
                    help="record peak resident-set growth, not spans")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the flatrank arguments")
    opts = ap.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    t0 = time.perf_counter()
    cli = importlib.import_module("flatrank.cli")
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install(opts.heap)
    out = io.StringIO()
    main_fn = tracer.span("cli.main", cli.main)
    with contextlib.redirect_stdout(out):
        try:
            rc = main_fn(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            if isinstance(exc.code, str):
                print(exc.code, file=sys.stderr)
    with open(opts.out, "w") as f:
        json.dump({
            "returncode": rc,
            "stdout": out.getvalue(),
            "import_s": import_s,
            "spans": tracer.spans,
            "counts": tracer.counts,
            "heap_bytes": tracer.heap,
            "absent": tracer.absent,
        }, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
