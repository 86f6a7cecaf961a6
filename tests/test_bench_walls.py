import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_walls.py"
spec = importlib.util.spec_from_file_location("bench_walls", TOOL)
bench_walls = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_walls)


def test_row_has_the_schema_of_bench_1(tmp_path):
    """A row of the launcher, on a command that takes a tenth of a second:
    every field BENCH_1.json has, read from real child processes."""
    argv = ["bound", "--poly", "det", "--n", "3", "--method", "koszul-minor",
            "--d", "1", "--p", "1", "--format", "json"]
    row = bench_walls.bench_row("det3 (1,1)", argv, 2, str(tmp_path))
    assert list(row) == ["label", "argv", "wall_s", "median_wall_s", "peak_rss_mib",
                         "rank", "bound", "elapsed_ms", "in_process_s"]
    assert row["argv"] == ["flatrank", *argv] and (row["rank"], row["bound"]) == (80, 10)
    assert len(row["wall_s"]) == len(row["peak_rss_mib"]) == len(row["elapsed_ms"]) == 2
    assert all(w > 0 for w in row["wall_s"]) and all(m > 1 for m in row["peak_rss_mib"])
    assert list(row["in_process_s"]) == [*bench_walls.TIMED, "cli.main"]
    # the timed calls run inside cli.main; each figure is rounded to 1 ms
    assert row["in_process_s"]["cli.main"] + 0.002 >= sum(row["in_process_s"][k]
                                                          for k in bench_walls.TIMED)
