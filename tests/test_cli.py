import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import ceil
from pathlib import Path

import pytest

import flatrank
from flatrank import cli, flattening, partitions
from flatrank.bounds import main_theorem_value
from flatrank.cli import main
from flatrank.partitions import (
    candidate_image,
    schur_dim,
    theoretical_image_dim,
    total_dimension,
)
from flatrank.polynomials import (
    Polynomial,
    determinant_poly,
    permanent_poly,
    variable_power,
)
from oracles import add, polynomial_json, random_low_rank, scale


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestDecompose:
    def test_table(self, capsys):
        code, out = run(["decompose", "--n", "4", "--d", "2", "--p", "1"], capsys)
        assert code == 0
        assert "total dimension: 560" in out

    def test_json(self, capsys):
        code, out = run(
            ["decompose", "--n", "4", "--d", "2", "--p", "1", "--format", "json"],
            capsys,
        )
        data = json.loads(out)
        assert data[-1] == {"total_dim": 560}

    def test_json_records(self, capsys):
        """One record per candidate module, with its Schur dimensions, then
        the total dimension."""
        code, out = run(
            ["decompose", "--n", "5", "--d", "2", "--p", "2", "--format", "json"], capsys)
        modules = candidate_image(5, 2, 2)
        assert json.loads(out) == [
            {"a": list(a), "b": list(b), "mult": m,
             "dim_a": schur_dim(a, 5), "dim_b": schur_dim(b, 5)} for a, b, m in modules
        ] + [{"total_dim": total_dimension(modules, 5)}]

    @pytest.mark.parametrize("argv,expected", [
        (["--n", "4", "--d", "2", "--p", "1"],
         "  (1, 1, 1) x (2, 1)  mult 1  dim 4*20 = 80\n"
         "  (2, 1) x (1, 1, 1)  mult 1  dim 20*4 = 80\n"
         "  (2, 1) x (2, 1)  mult 1  dim 20*20 = 400\n"
         "total dimension: 560\n"),
        (["--n", "4", "--d", "2", "--p", "1", "--format", "json"],
         '[{"a": [1, 1, 1], "b": [2, 1], "mult": 1, "dim_a": 4, "dim_b": 20}, '
         '{"a": [2, 1], "b": [1, 1, 1], "mult": 1, "dim_a": 20, "dim_b": 4}, '
         '{"a": [2, 1], "b": [2, 1], "mult": 1, "dim_a": 20, "dim_b": 20}, '
         '{"total_dim": 560}]\n'),
        (["--n", "5", "--d", "2", "--p", "2"],
         "  (1, 1, 1, 1, 1) x (3, 1, 1)  mult 1  dim 1*126 = 126\n"
         "  (2, 1, 1, 1) x (2, 1, 1, 1)  mult 1  dim 24*24 = 576\n"
         "  (2, 1, 1, 1) x (2, 2, 1)  mult 1  dim 24*75 = 1800\n"
         "  (2, 1, 1, 1) x (3, 1, 1)  mult 1  dim 24*126 = 3024\n"
         "  (2, 2, 1) x (2, 1, 1, 1)  mult 1  dim 75*24 = 1800\n"
         "  (2, 2, 1) x (3, 1, 1)  mult 1  dim 75*126 = 9450\n"
         "  (3, 1, 1) x (1, 1, 1, 1, 1)  mult 1  dim 126*1 = 126\n"
         "  (3, 1, 1) x (2, 1, 1, 1)  mult 1  dim 126*24 = 3024\n"
         "  (3, 1, 1) x (2, 2, 1)  mult 1  dim 126*75 = 9450\n"
         "total dimension: 29376\n"
         "f(n,d)*C(n,d)^2: 29376\n"),
        (["--n", "5", "--d", "2", "--p", "2", "--format", "json"],
         '[{"a": [1, 1, 1, 1, 1], "b": [3, 1, 1], "mult": 1, "dim_a": 1, "dim_b": 126}, '
         '{"a": [2, 1, 1, 1], "b": [2, 1, 1, 1], "mult": 1, "dim_a": 24, "dim_b": 24}, '
         '{"a": [2, 1, 1, 1], "b": [2, 2, 1], "mult": 1, "dim_a": 24, "dim_b": 75}, '
         '{"a": [2, 1, 1, 1], "b": [3, 1, 1], "mult": 1, "dim_a": 24, "dim_b": 126}, '
         '{"a": [2, 2, 1], "b": [2, 1, 1, 1], "mult": 1, "dim_a": 75, "dim_b": 24}, '
         '{"a": [2, 2, 1], "b": [3, 1, 1], "mult": 1, "dim_a": 75, "dim_b": 126}, '
         '{"a": [3, 1, 1], "b": [1, 1, 1, 1, 1], "mult": 1, "dim_a": 126, "dim_b": 1}, '
         '{"a": [3, 1, 1], "b": [2, 1, 1, 1], "mult": 1, "dim_a": 126, "dim_b": 24}, '
         '{"a": [3, 1, 1], "b": [2, 2, 1], "mult": 1, "dim_a": 126, "dim_b": 75}, '
         '{"total_dim": 29376}]\n'),
    ])
    def test_output_is_pinned(self, capsys, argv, expected):
        """The table and JSON outputs, byte for byte."""
        assert run(["decompose", *argv], capsys) == (0, expected)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_unprintable_total_is_one_line_error(self, fmt):
        """A total dimension past Python's limit on printing an int (4300
        digits by default) is refused in one line that names its digits."""
        src = str(Path(flatrank.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "flatrank.cli", "decompose", "--n", "20000", "--d", "10000",
             "--p", "2", "--format", fmt],
            capture_output=True, text=True, timeout=10,
            env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("flatrank: error: the total dimension at n=20000 has 12054 "
                               "digits, over Python's limit of 4300 for printing an integer\n")

    def test_unprintable_total_is_refused_without_building_it(self, capsys, monkeypatch):
        """The total's digits are read off its log10 in floats, so a refusal
        builds no dimension and costs about what the candidate modules cost,
        not the tens of seconds the exact total takes at n=80000; a long row
        costs the Pieri rule one step, so that is well under 2 s at n=160000."""
        def build(*args):
            raise AssertionError("a dimension was built for a total that cannot print")

        monkeypatch.setattr(partitions, "total_dimension", build)
        monkeypatch.setattr(partitions, "schur_dim", build)
        start = time.perf_counter()
        code = main(["decompose", "--n", "160000", "--d", "80000", "--p", "2"])
        assert time.perf_counter() - start < 2
        assert code == 2 and capsys.readouterr().err == (
            "flatrank: error: the total dimension at n=160000 has 96345 digits, over "
            "Python's limit of 4300 for printing an integer\n")

    def test_python_without_a_digit_limit(self, capsys, monkeypatch):
        """Python before 3.10.7 has no `sys.get_int_max_str_digits` and
        prints any int: the table is the same as under a limit."""
        argv = ["decompose", "--n", "5", "--d", "2", "--p", "2"]
        code, out = run(argv, capsys)
        assert code == 0 and "total dimension: 29376" in out
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert run(argv, capsys) == (0, out)

    def test_total_at_the_digit_limit_prints(self, capsys):
        """At n=1060 the total has 647 digits: it prints under a limit of 647
        and is refused, naming its 647 digits, under a limit of 646."""
        argv = ["decompose", "--n", "1060", "--d", "530", "--p", "2"]
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(647)
            code, out = run(argv, capsys)
            total = re.search(r"^total dimension: (\d+)$", out, re.M).group(1)
            assert code == 0 and total == str(theoretical_image_dim(1060, 530, 2))
            assert len(total) == 647
            sys.set_int_max_str_digits(646)
            assert main(argv) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        assert "has 647 digits, over Python's limit of 646" in capsys.readouterr().err

    @pytest.mark.parametrize("total,code", [(10**4300 - 1, 0), (10**4300, 2)],
                             ids=["4300-digits", "4301-digits"])
    def test_digits_are_exact_at_an_integer_log10(self, capsys, monkeypatch, total, code):
        """A total whose float log10 is within 1e-6 of an integer k has its
        digits counted against 10**k: log10(10**4300 - 1) is 4300.0 in
        floats, yet that total has 4300 digits and prints."""
        monkeypatch.setattr(partitions, "total_log10", lambda modules, N: 4300.0)
        monkeypatch.setattr(partitions, "total_dimension", lambda modules, N: total)
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            assert main(["decompose", "--n", "5", "--d", "2", "--p", "2"]) == code
            out, err = capsys.readouterr()
            if code:
                assert err == ("flatrank: error: the total dimension at n=5 has 4301 digits, "
                               "over Python's limit of 4300 for printing an integer\n")
            else:
                assert f"total dimension: {total}\n" in out
        finally:
            sys.set_int_max_str_digits(limit)


class TestBound:
    def test_minor_json(self, capsys):
        code, out = run(
            ["bound", "--poly", "det", "--n", "3", "--method", "koszul-minor",
             "--d", "1", "--p", "1", "--format", "json"],
            capsys,
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["rank"] == 80 and rec["t"] == 8 and rec["bound"] == 10
        assert rec["provenance"][0]["method"] == "modular"

    def test_minor_table_shows_reference(self, capsys):
        code, out = run(
            ["bound", "--poly", "det", "--n", "4", "--method", "koszul-minor",
             "--d", "2", "--p", "1"],
            capsys,
        )
        assert code == 0
        assert "border rank >=  : 38" in out
        assert "preliminary_bound" in out

    DET_ROWS = ("classical_border_lower", "preliminary_bound", "main_bound",
                "symmetric_rank_lower", "symmetric_rank_upper", "asymptotic_estimate")

    def test_table_lists_no_det_values_for_another_polynomial(self, capsys, tmp_path):
        """The reference block holds only values proved for the polynomial
        ranked (`bounds.reference_bounds`): det's bounds say nothing of x^3,
        a sum of two cubes or perm4, so those tables have no block."""
        path = tmp_path / "cubes.json"
        path.write_text(polynomial_json(random_low_rank(2, 3, 3, 0)))
        for poly, n in (("power", 3), (f"file:{path}", 3), ("perm", 4)):
            code, out = run(["bound", "--poly", poly, "--n", str(n), "--method",
                             "koszul-full", "--d", "1", "--p", "1" if n == 4 else "2"], capsys)
            assert code == 0 and "border rank >=  : " in out
            assert "reference bounds" not in out
            assert not any(row in out for row in self.DET_ROWS), poly

    def test_perm3_table_lists_only_its_two_values(self, capsys):
        code, out = run(["bound", "--poly", "perm", "--n", "3", "--method", "koszul-full",
                         "--d", "1", "--p", "2"], capsys)
        block = out.split("reference bounds:\n")[1]
        assert [line.split() for line in block.splitlines()] == [
            ["n", "3"], ["poly", "perm"],
            ["perm3_border_lower", "14"], ["perm3_border_upper", "16"]]

    @pytest.mark.parametrize("argv,args,rational", [
        (["--poly", "det", "--n", "5", "--method", "koszul-minor"],
         ("koszul-minor", "det", 5, 2, 2), False),
        (["--poly", "det", "--n", "4", "--method", "koszul-full"],
         ("koszul-full", "det", 4, 2, 2), False),
        (["--poly", "perm", "--n", "3", "--method", "pieri", "--rational"],
         ("pieri", "perm", 3, None, None), True),
    ])
    def test_json_is_the_certificate(self, capsys, argv, args, rational):
        """`bound` prints `cli.certificate`'s certificate, the one `verify`
        checks, elimination times aside."""
        def masked(text):
            rec = json.loads(text)
            for c in rec["provenance"]:
                del c["elapsed_ms"]
            return rec

        code, out = run(["bound", *argv, "--format", "json"], capsys)
        assert code == 0
        assert masked(out) == masked(cli.certificate(*args, rational=rational).to_json())

    def test_rational_flag(self, capsys):
        code, out = run(
            ["bound", "--poly", "det", "--n", "3", "--method", "koszul-minor",
             "--d", "1", "--p", "1", "--rational", "--format", "json"],
            capsys,
        )
        rec = json.loads(out)
        methods = [c["method"] for c in rec["provenance"]]
        assert "modular" in methods and len(methods) == 2
        assert rec["rank"] == 80

    def test_rational_at_paper_scale(self, capsys):
        code, out = run(
            ["bound", "--poly", "det", "--n", "5", "--method", "koszul-minor",
             "--d", "2", "--p", "2", "--rational", "--format", "json"],
            capsys,
        )
        rec = json.loads(out)
        ranks = {c["method"]: c["rank"] for c in rec["provenance"]}
        assert code == 0
        assert ranks == {"modular": 29376, "rational": 29376}
        assert rec["rank"] == 29376 and rec["bound"] == 107

    def test_rational_past_the_old_size_guard(self, capsys):
        """det32 p=2, the smallest headline whose blocks the Fraction-era
        guard refused over Q: both routes give the image dimension and the
        main theorem's bound."""
        code, out = run(
            ["bound", "--poly", "det", "--n", "32", "--method", "koszul-minor",
             "--d", "16", "--p", "2", "--rational", "--format", "json"],
            capsys,
        )
        rec = json.loads(out)
        ranks = {c["method"]: c["rank"] for c in rec["provenance"]}
        rank = theoretical_image_dim(32, 16, 2)
        assert code == 0
        assert ranks == {"modular": rank, "rational": rank}
        assert rec["rank"] == rank
        assert rec["bound"] == ceil(main_theorem_value(32))

    def test_minor_certificate_lists_its_modules(self, capsys):
        """The prime 7 certifies det5's 107, and each provenance entry lists
        the nine image modules, each at its Schur maximum, read from five
        highest-weight blocks."""
        code, out = run(
            ["bound", "--poly", "det", "--n", "5", "--method", "koszul-minor",
             "--d", "2", "--p", "2", "--prime", "7", "--rational", "--format", "json"],
            capsys,
        )
        rec = json.loads(out)
        assert code == 0 and (rec["rank"], rec["bound"]) == (29376, 107)
        for c in rec["provenance"]:
            assert (c["rank"], c["orbits"], c["blocks"]) == (29376, 5, 9)
            assert len(c["modules"]) == 9
            assert all(m["m"] == m["schur_max"] == 1 for m in c["modules"])
            assert {"a", "b", "m", "schur_max"} == set(c["modules"][0])

    @pytest.mark.parametrize("prime", ["3", "5", "7"])
    def test_every_odd_prime_certifies_det5(self, capsys, prime):
        """A prime at most the modules' degree n - d + p = 5 is accepted:
        each multiplicity is read through the raising operators, sound mod
        every prime, and at det5 these primes give the rational rank."""
        code, out = run(
            ["bound", "--poly", "det", "--n", "5", "--method", "koszul-minor",
             "--d", "2", "--p", "2", "--prime", prime],
            capsys,
        )
        assert code == 0
        assert "rank(F)         : 29376\n" in out and "border rank >=  : 107\n" in out

    @pytest.mark.parametrize("n,d,bound", [(7, 3, 1259), (8, 4, 4956), (16, 8, 165908566)])
    def test_orbit_reduced_main_theorem(self, capsys, n, d, bound):
        code, out = run(
            ["bound", "--poly", "det", "--n", str(n), "--method", "koszul-minor",
             "--d", str(d), "--p", "2", "--format", "json"],
            capsys,
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["rank"] == theoretical_image_dim(n, d, 2)
        assert rec["bound"] == bound

    def test_full_method_from_file(self, capsys, tmp_path):
        # det3 halved has Fraction coefficients: it is ranked as det3
        for poly in (determinant_poly(2), scale(determinant_poly(3), Fraction(1, 2))):
            poly_path = tmp_path / "poly.json"
            poly_path.write_text(polynomial_json(poly))
            code, out = run(
                ["bound", "--poly", f"file:{poly_path}", "--n", str(poly.n),
                 "--method", "koszul-full", "--d", "1", "--p", "1",
                 "--format", "json"],
                capsys,
            )
            rec = json.loads(out)
            assert code == 0 and rec["bound"] >= 2

    @pytest.mark.parametrize("build,name,argv", [
        (determinant_poly, "det",
         ["--n", "4", "--method", "koszul-full", "--d", "2", "--p", "2"]),
        (permanent_poly, "perm", ["--n", "3", "--method", "pieri", "--rational"]),
    ], ids=["det4-koszul-full", "perm3-pieri-rational"])
    def test_integral_file_input_certifies_like_the_named_polynomial(
            self, capsys, tmp_path, build, name, argv):
        """A polynomial read from its JSON form has the same int
        coefficients as the built one, so the same blocks, entries and
        certificate."""
        path = tmp_path / f"{name}.json"
        path.write_text(polynomial_json(build(int(argv[1]))))
        certs = []
        for spec in (name, f"file:{path}"):
            code, out = run(["bound", "--poly", spec, *argv, "--format", "json"], capsys)
            assert code == 0
            rec = json.loads(out)
            certs.append((rec["rank"], rec["t"], rec["bound"],
                          [(c["method"], c["rank"], c["matrix_hash"])
                           for c in rec["provenance"]]))
        assert certs[0] == certs[1]

    def test_pieri_perm(self, capsys):
        code, out = run(
            ["bound", "--poly", "perm", "--n", "3", "--method", "pieri",
             "--format", "json"],
            capsys,
        )
        rec = json.loads(out)
        assert rec["rank"] == 934 and rec["t"] == 70 and rec["bound"] == 14

    def test_pieri_rational_is_orbit_reduced(self, capsys):
        code, out = run(
            ["bound", "--poly", "perm", "--n", "3", "--method", "pieri",
             "--rational", "--format", "json"],
            capsys,
        )
        rec = json.loads(out)
        ranks = {c["method"]: c["rank"] for c in rec["provenance"]}
        assert code == 0
        assert ranks == {"modular": 934, "rational": 934}
        assert all((c["orbits"], c["blocks"]) == (10, 226) for c in rec["provenance"])

    @pytest.mark.parametrize("spec,extra", [
        ("det", []), ("perm", ["--rational"]), ("power", []), ("file:{cubic}", []),
    ], ids=["det3", "perm3-rational", "power", "non-graded-file"])
    def test_pieri_is_the_full_map_at_d1_p4(self, capsys, tmp_path, spec, extra):
        """`--method pieri` takes the koszul-full branch at (d=1, p=4): the
        same blocks, so the same rank, t, bound, orbits, blocks and
        matrix_hash.  The file holds x11*x12*x13 - 2*x22^3 + 3*x11*x22*x33,
        whose monomials have three torus weights."""
        def exps(*variables):  # flat indices, row-major
            return tuple(variables.count(k) for k in range(9))

        cubic = Polynomial(3, 3, {exps(0, 1, 2): 1, exps(4, 4, 4): -2, exps(0, 4, 8): 3})
        path = tmp_path / "cubic.json"
        path.write_text(polynomial_json(cubic))
        spec = spec.format(cubic=path)
        certs = []
        for argv in (["--method", "pieri"], ["--method", "koszul-full", "--d", "1", "--p", "4"]):
            code, out = run(["bound", "--poly", spec, "--n", "3", *argv, *extra,
                             "--format", "json"], capsys)
            assert code == 0
            rec = json.loads(out)
            certs.append((rec["rank"], rec["t"], rec["bound"],
                          [(c["method"], c["rank"], c["orbits"], c["blocks"],
                            c["matrix_hash"]) for c in rec["provenance"]]))
        assert certs[0] == certs[1]
        assert len(certs[0][3]) == 1 + len(extra)

    def test_missing_file_is_one_line_error(self, capsys, tmp_path):
        missing = tmp_path / "nonexistent.json"
        code = main(["bound", "--poly", f"file:{missing}", "--n", "3",
                     "--method", "koszul-full"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("flatrank: error: ") and str(missing) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--n", "3", "--method", "pieri"],
        ["--n", "4", "--method", "koszul-full", "--d", "2", "--p", "2"],
    ])
    def test_matrix_hash_tells_det_from_perm(self, capsys, argv):
        """det and perm share every block's labels, not its entries."""
        hashes = {}
        for poly in ("det", "perm"):
            code, out = run(["bound", "--poly", poly, *argv, "--format", "json"], capsys)
            assert code == 0
            hashes[poly] = json.loads(out)["provenance"][0]["matrix_hash"]
        assert hashes["det"] != hashes["perm"]

    @pytest.mark.parametrize("argv,rank,bound,matrix_hash", [
        (["det", "--n", "5", "--method", "koszul-minor", "--d", "2", "--p", "2"],
         29376, 107, "8bbabc8aaa4ac06f"),
        (["det", "--n", "4", "--method", "koszul-full", "--d", "2", "--p", "2"],
         4065, 39, "bc9ee7573d967d34"),
        (["det", "--n", "5", "--method", "koszul-full", "--d", "2", "--p", "2"],
         29376, 107, "87ba6cb8c5c029d6"),
        (["det", "--n", "3", "--method", "pieri"], 950, 14, "f82462429a108d9e"),
        (["perm", "--n", "3", "--method", "pieri"], 934, 14, "1340cebd5f750d21"),
        (["power", "--n", "3", "--method", "pieri"], 70, 1, "711d41b37d79e0e8"),
        # x_nn^40 lists one dual, not C(40, 20): charged per term by its one variable
        (["power", "--n", "40", "--method", "koszul-full", "--d", "20", "--p", "1"],
         1599, 1, "9cb12ca622d5614b"),
    ], ids=["det5-minor", "det4-full", "det5-full", "det3-pieri", "perm3-pieri",
            "power3-pieri", "power40-full"])
    def test_golden_certificate(self, capsys, argv, rank, bound, matrix_hash):
        """Rank, bound and matrix_hash of known certificates: a change to a
        block's columns, their order or its entries shows here."""
        code, out = run(["bound", "--format", "json", "--poly", *argv], capsys)
        rec = json.loads(out)
        assert code == 0 and (rec["rank"], rec["bound"]) == (rank, bound)
        assert [c["matrix_hash"] for c in rec["provenance"]] == [matrix_hash]

    @pytest.mark.parametrize("argv,message", [
        (["--poly", "det", "--n", "4", "--method", "koszul-minor", "--p", "3"],
         "p must be 1 or 2"),
        (["--poly", "det", "--n", "3", "--method", "koszul-full", "--d", "9"],
         "need 1 <= d <= degree-1"),
        (["--poly", "perm", "--n", "4", "--method", "koszul-minor"],
         "only defined for --poly det"),
        (["--poly", "det", "--n", "4", "--method", "pieri"], "n=3 only"),
        # pieri ranks the full map at (1, 4), so a --d or --p it would not use is refused
        (["--poly", "det", "--n", "3", "--method", "pieri", "--d", "7", "--p", "9"],
         "--method pieri takes no --d or --p"),
        (["--poly", "nope", "--n", "3", "--method", "koszul-full"],
         "unknown polynomial"),
        (["--poly", "det", "--n", "3", "--method", "koszul-minor",
          "--memory-cap", "1"], "at least 256 MiB"),
        # the file holds det3: t must not be taken from --n 2
        (["--poly", "file:{det3}", "--n", "2", "--method", "koszul-full",
          "--d", "1", "--p", "2"], "at n=3, not at --n 2"),
        (["--poly", "file:{empty}", "--n", "3", "--method", "koszul-full"],
         "not a polynomial"),
        (["--poly", "file:{array}", "--n", "3", "--method", "koszul-full"],
         "not a polynomial"),
        (["--poly", "file:{text_n}", "--n", "3", "--method", "koszul-full"],
         "not a polynomial"),
        (["--poly", "file:{not_json}", "--n", "3", "--method", "koszul-full"],
         "not a polynomial in JSON form: JSONDecodeError('Expecting value"),
        (["--poly", "file:{num_float}", "--n", "3", "--method", "koszul-full"],
         "not a polynomial in JSON form: ValueError(\"invalid literal for int() with "
         "base 10: '1.5'\")"),
        (["--poly", "file:{num_text}", "--n", "3", "--method", "koszul-full"],
         "not a polynomial in JSON form: ValueError(\"invalid literal for int() with "
         "base 10: 'abc'\")"),
        # int() would read 1.5 and true as 1 and 2.5 as 2, and rank another polynomial
        (["--poly", "file:{num_half}", "--n", "3", "--method", "koszul-full"],
         "not a polynomial in JSON form: TypeError('num 1.5 is not an integer')"),
        (["--poly", "file:{num_true}", "--n", "3", "--method", "koszul-full"],
         "not a polynomial in JSON form: TypeError('num true is not an integer')"),
        (["--poly", "file:{den_half}", "--n", "3", "--method", "koszul-full"],
         "not a polynomial in JSON form: TypeError('den 2.5 is not an integer')"),
        # a list cannot be hashed for the repeated-vector test: checked before it
        (["--poly", "file:{nested}", "--n", "3", "--method", "koszul-full"],
         "not a polynomial in JSON form: n, degree and exponents must be nonnegative "
         "integers"),
        (["--poly", "det", "--n", "3", "--method", "koszul-full", "--d", "1", "--p", "2",
          "--prime", "1073741790"], "1073741790 is not prime"),
        # 41 * 43: no factor up to 37, so only Miller-Rabin refuses it
        (["--poly", "det", "--n", "3", "--method", "koszul-full", "--d", "1", "--p", "2",
          "--prime", "1763"], "1763 is not prime"),
        # its largest highest-weight blocks alone, about 383 MiB, would not fit in 256 MiB
        (["--poly", "det", "--n", "60", "--method", "koszul-minor", "--d", "30",
          "--p", "2", "--memory-cap", "256"], "over the memory cap of 256 MiB"),
        # the full map at (d=1, p=4) would rank a quartic, but no Pieri map exists
        (["--poly", "file:{quartic}", "--n", "3", "--method", "pieri"],
         "degree 4 does not match 3 added boxes"),
        (["--poly", "det", "--n", "3", "--method", "koszul-full", "--d", "1", "--p", "2",
          "--prime", "9223372036854775837"], "odd prime fitting in a machine word"),
        (["--poly", "det", "--n", "3", "--method", "koszul-full", "--d", "1", "--p", "2",
          "--prime", "2"], "odd prime fitting in a machine word"),
        (["--poly", "det", "--n", "-2", "--method", "koszul-full"], "--n must be at least 1"),
        (["--poly", "power", "--n", "0", "--method", "koszul-full"],
         "--n must be at least 1"),
        # x33^3 - x33^3 is zero, not -x33^3
        (["--poly", "file:{twice}", "--n", "3", "--method", "pieri"],
         "exponent vector [0, 0, 0, 0, 0, 0, 0, 0, 3] appears twice"),
    ])
    def test_bad_request_is_one_line_error(self, capsys, tmp_path, argv, message):
        det3 = determinant_poly(3)
        text_n = json.loads(polynomial_json(det3))
        text_n["n"] = "3"
        twice = json.loads(polynomial_json(variable_power((3, 3), 3, 3)))
        twice["terms"].append(dict(twice["terms"][0], num="-1"))
        num_float, num_text = (json.loads(polynomial_json(det3)) for _ in range(2))
        num_float["terms"][0]["num"], num_text["terms"][0]["num"] = "1.5", "abc"
        num_half, num_true, den_half, nested = (json.loads(polynomial_json(det3))
                                                for _ in range(4))
        num_half["terms"][0]["num"], num_true["terms"][0]["num"] = 1.5, True
        den_half["terms"][0]["den"] = 2.5
        nested["terms"][0]["exps"] = [[e] for e in nested["terms"][0]["exps"]]
        files = {
            "det3": polynomial_json(det3),
            "quartic": polynomial_json(random_low_rank(2, 4, 3, 5)),
            "empty": "{}",
            "array": "[1, 2]",
            "text_n": json.dumps(text_n),
            "twice": json.dumps(twice),
            "not_json": "n = 3",
            "num_float": json.dumps(num_float),
            "num_text": json.dumps(num_text),
            "num_half": json.dumps(num_half),
            "num_true": json.dumps(num_true),
            "den_half": json.dumps(den_half),
            "nested": json.dumps(nested),
        }
        paths = {name: tmp_path / f"{name}.json" for name in files}
        for name, text in files.items():
            paths[name].write_text(text)
        code = main(["bound", *(a.format(**paths) for a in argv)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("flatrank: error: ") and message in err
        assert err.count("\n") == 1 and err.count("not a polynomial") <= 1

    def test_full_map_size_guard_runs_before_the_polynomial_is_built(
            self, capsys, monkeypatch):
        def build(spec, n):
            raise AssertionError("the polynomial was built before the size check")

        monkeypatch.setattr(cli, "load_polynomial", build)
        for argv, message in [
            (["det", "--n", "8", "--d", "2", "--p", "8", "--memory-cap", "256"],
             "the full map at n=8, p=8 enumerates"),
            # n! terms over the default cap, though the wedges fit
            (["det", "--n", "11", "--d", "1", "--p", "1"],
             "the full map at n=11, d=1 may keep 39916800 terms"),
            (["perm", "--n", "11", "--d", "1", "--p", "1"],
             "the full map at n=11, d=1 may keep 39916800 terms"),
            # det9's terms fit, with its 9! x 9 entries and 8 derivative terms each they do not
            (["det", "--n", "9", "--d", "1", "--p", "1"],
             "the full map at n=9, d=1 may keep 362880 terms, 81 dual monomials, 3265920 "
             "(dual, term) entries and 26127360 derivative terms"),
        ]:
            code = main(["bound", "--method", "koszul-full", "--poly", *argv])
            err = capsys.readouterr().err
            assert code == 2 and err.count("\n") == 1
            assert err.startswith(f"flatrank: error: {message}")

    @pytest.mark.parametrize("spec", ["det", "perm", "power"])
    @pytest.mark.parametrize("d", [0, 9])
    def test_bad_d_is_refused_before_the_polynomial_is_built(self, capsys, monkeypatch,
                                                            spec, d):
        """A d outside 1..8 for a polynomial of degree 9 is refused in one
        line, at once, with no polynomial built."""
        def build(spec, n):
            raise AssertionError("the polynomial was built before the d check")

        monkeypatch.setattr(cli, "load_polynomial", build)
        start = time.perf_counter()
        code = main(["bound", "--method", "koszul-full", "--poly", spec, "--n", "9",
                     "--d", str(d), "--p", "1"])
        err = capsys.readouterr().err
        assert time.perf_counter() - start < 1
        assert err == f"flatrank: error: need 1 <= d <= degree-1, got d={d}, degree=9\n"
        assert code == 2

    @pytest.mark.parametrize("spec", ["det", "perm"])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_full_map_of_det9_is_refused_at_once(self, capsys, monkeypatch, spec, d):
        """det9 and perm9 at d = 1..7 are refused in one line before the
        polynomial is built."""
        def build(spec, n):
            raise AssertionError("the polynomial was built before the size check")

        monkeypatch.setattr(cli, "load_polynomial", build)
        start = time.perf_counter()
        code = main(["bound", "--method", "koszul-full", "--poly", spec, "--n", "9",
                     "--d", str(d), "--p", "2"])
        err = capsys.readouterr().err
        assert time.perf_counter() - start < 1
        assert code == 2 and err.count("\n") == 1
        assert err.startswith(f"flatrank: error: the full map at n=9, d={d} may keep 362880 "
                              f"terms, ") and "over the memory cap of 4096 MiB" in err
        # every count is within the cap, so each prints exactly, with the bytes
        assert "more than" not in err and ", about " in err

    def test_full_map_charges_every_column_it_keeps(self, capsys, monkeypatch, tmp_path):
        """sum (k+1) x_k^12 at n=12 is not bigraded, so the full map keeps
        every column, one block of C(144, 2) wedges times its 144 dividing
        duals, charged before any block is built."""
        from flatrank import flattening

        def build(*args):
            raise AssertionError("a block was built before the columns were charged")

        monkeypatch.setattr(flattening, "weight_blocks", build)
        path = tmp_path / "powers.json"
        path.write_text(polynomial_json(Polynomial(12, 12, {
            tuple(12 * (j == k) for j in range(144)): k + 1 for k in range(144)})))
        code = main(["bound", "--poly", f"file:{path}", "--n", "12", "--method",
                     "koszul-full", "--d", "1", "--p", "2", "--format", "json",
                     "--memory-cap", "256"])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("flatrank: error: the full map at n=12, p=2 keeps all "
                              "1482624 columns")

    def test_full_power_lists_one_dual(self, capsys):
        """x_144^12 has one dividing dual at d=1, so the full map at n=12
        keeps C(144, 2) columns, whose rank is t, under the default cap."""
        code, out = run(["bound", "--poly", "power", "--n", "12", "--method", "koszul-full",
                         "--d", "1", "--p", "2", "--format", "json"], capsys)
        rec = json.loads(out)
        assert code == 0 and (rec["rank"], rec["t"], rec["bound"]) == (10153, 10153, 1)

    def test_high_power_of_one_variable_is_answered_at_once(self, capsys, tmp_path):
        """x_0^40 at n=2 and d=20 has one dividing dual, where C(40, 20)
        choices of its variable with repeats would hang."""
        path = tmp_path / "power.json"
        path.write_text(polynomial_json(Polynomial(2, 40, {(40, 0, 0, 0): 1})))
        start = time.perf_counter()
        code, out = run(["bound", "--poly", f"file:{path}", "--n", "2", "--method",
                         "koszul-full", "--d", "20", "--p", "1", "--format", "json"], capsys)
        rec = json.loads(out)
        assert code == 0 and (rec["rank"], rec["t"], rec["bound"]) == (3, 3, 1)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("argv", [
        ["--poly", "det", "--n", "2000", "--p", "0"],  # 2000! terms
        ["--poly", "det", "--n", "20000", "--p", "0"],
        # C(4000000, 1000000) wedges
        ["--poly", "det", "--n", "2000", "--d", "1", "--p", "1000000"],
        ["--poly", "det", "--n", "2000000", "--p", "0"],
        ["--poly", "power", "--n", "2000"],  # C(4000000, 2) wedges
        ["--poly", "power", "--n", "20000"],  # C(400000000, 2) wedges, before x_nn^n
    ])
    def test_huge_request_is_refused_at_once_in_one_short_line(self, argv):
        """A guard stops counting once its count passes the cap, so it
        neither computes nor prints a number of thousands of digits: no
        number in the line is longer than the cap's 10 digits."""
        src = str(Path(flatrank.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "flatrank.cli", "bound",
             "--method", "koszul-full", "--format", "json", *argv],
            capture_output=True, text=True, timeout=10,
            env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("flatrank: error: ") and proc.stderr.count("\n") == 1
        assert len(proc.stderr) < 200 and "over the memory cap of 4096 MiB" in proc.stderr
        assert max(map(len, re.findall(r"\d+", proc.stderr))) <= len(str(4096 << 20))

    @pytest.mark.parametrize("n,p,refusal", [
        (74, 2, "the minor map at n=74, d=37, p=2 builds at least"),
        (300, 1, "the minor map at n=300, d=150, p=1 builds at least"),
        (100000, 1, "one column of the minor map at n=100000, d=50000, p=1 reaches"),
        (100000, 2, "one column of the minor map at n=100000, d=50000, p=2 reaches"),
    ])
    def test_huge_minor_request_is_refused_at_once_in_one_short_line(
            self, capsys, monkeypatch, n, p, refusal):
        """det74 p=2 and det300 p=1 pass the default cap by the blocks they
        would build, n=100000 by one column's rows: each is refused in one
        line within a second, before any column is listed, and no number in
        the line is longer than the cap's 10 digits."""
        def enumerate_(*args):
            raise AssertionError("a column was listed before the request was refused")

        monkeypatch.setattr(flattening, "_minor_columns", enumerate_)
        start = time.perf_counter()
        code = main(["bound", "--poly", "det", "--n", str(n), "--method", "koszul-minor",
                     "--d", str(n // 2), "--p", str(p)])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"flatrank: error: {refusal}")
        assert err.endswith("over the memory cap of 4096 MiB\n")
        assert max(map(len, re.findall(r"\d+", err))) <= len(str(4096 << 20))

    @pytest.mark.parametrize("method,prime", [
        ("koszul-minor", "1073741790"),
        ("koszul-full", "9223372036854775837"),
        ("pieri", "2"),
    ])
    def test_bad_prime_is_refused_before_anything_is_built(
            self, capsys, monkeypatch, method, prime):
        def build(*args):
            raise AssertionError("the blocks were built before the prime was checked")

        monkeypatch.setattr(cli, "flattening_blocks", build)
        code = main(["bound", "--poly", "det", "--n", "3", "--method", method,
                     "--d", "1", "--p", "1", "--prime", prime])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("flatrank: error: ") and "prime" in err

    def test_rational_certificate_stands_when_the_prime_divides_a_denominator(
            self, capsys, tmp_path):
        """det3 over the default prime is ranked as det3, its integer
        multiple: the modular and the rational certificate both stand, with
        det3's rank and matrix_hash, and nothing is written to stderr."""
        path = tmp_path / "over_prime.json"
        path.write_text(polynomial_json(scale(determinant_poly(3), Fraction(1, 1073741789))))
        args = ["--n", "3", "--method", "koszul-full", "--d", "1", "--p", "2",
                "--format", "json", "--rational"]
        certs = []
        for spec in (f"file:{path}", "det"):
            code = main(["bound", "--poly", spec, *args])
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            cert = json.loads(captured.out)
            assert (cert["rank"], cert["t"], cert["bound"]) == (315, 28, 12)
            certs.append([(c["method"], c["rank"], c["matrix_hash"])
                          for c in cert["provenance"]])
        assert [(m, r) for m, r, _ in certs[0]] == [("modular", 315), ("rational", 315)]
        assert certs[0] == certs[1]

    def test_modular_rank_below_the_rational_rank_warns(self, capsys):
        """Mod 3 the Pieri blocks of det3 lose rank 16: both ranks are
        recorded, one warning line goes to stderr, and the bound is read
        from the rational rank."""
        code = main(["bound", "--poly", "det", "--n", "3", "--method", "pieri", "--rational",
                     "--prime", "3", "--format", "json"])
        captured = capsys.readouterr()
        rec = json.loads(captured.out)
        assert code == 0
        assert captured.err == "warning: modular and rational ranks disagree\n"
        assert [(c["method"], c["primes_used"], c["rank"]) for c in rec["provenance"]] == [
            ("modular", [3], 934), ("rational", [], 950)]
        assert (rec["rank"], rec["t"], rec["bound"]) == (950, 70, 14)

    @pytest.mark.parametrize("build,multiple,argv", [
        (lambda: scale(determinant_poly(3), Fraction(3, 7)),
         lambda: scale(determinant_poly(3), 3),
         ["--n", "3", "--method", "koszul-full", "--d", "1", "--p", "2", "--rational"]),
        (lambda: add(scale(determinant_poly(3), Fraction(1, 2)),
                     scale(permanent_poly(3), Fraction(-1, 3))),
         lambda: add(scale(determinant_poly(3), 3), scale(permanent_poly(3), -2)),
         ["--n", "3", "--method", "koszul-full", "--d", "1", "--p", "1", "--rational"]),
        (lambda: scale(permanent_poly(3), Fraction(5, 2)),
         lambda: scale(permanent_poly(3), 5),
         ["--n", "3", "--method", "pieri", "--rational"]),
    ], ids=["det3-3/7", "det3/2-perm3/3", "perm3-pieri-5/2"])
    def test_fractional_file_input_certifies_like_its_integer_multiple(
            self, capsys, tmp_path, build, multiple, argv):
        """A `file:` polynomial is multiplied by the lcm of its
        coefficients' denominators, so its certificate, matrix_hash
        included, is that of the integral file holding that multiple."""
        records = []
        for name, poly in (("fractional", build()), ("integral", multiple())):
            path = tmp_path / f"{name}.json"
            path.write_text(polynomial_json(poly))
            code, out = run(["bound", "--poly", f"file:{path}", *argv, "--format", "json"],
                            capsys)
            assert code == 0
            rec = json.loads(out)
            for c in rec["provenance"]:
                del c["elapsed_ms"]
            records.append(rec)
        assert [c["method"] for c in records[0]["provenance"]] == ["modular", "rational"]
        assert records[0] == records[1]

    def test_table_prints_at_any_n(self, capsys, monkeypatch):
        """The table's reference values start at n=2 and stay exact past the
        float range (`bounds.reference_bounds`); at n=1 the table has none.
        The blocks are stubbed out, as n=152 takes seconds to certify."""
        monkeypatch.setattr(cli, "flattening_blocks", lambda *args: ([], 1))
        for n in (1, 152, 600):
            code, out = run(["bound", "--poly", "det", "--n", str(n), "--method",
                             "koszul-full", "--d", "1", "--p", "1"], capsys)
            assert code == 0 and "border rank >=  : 0" in out
            assert ("symmetric_rank_upper" in out) == ("main_bound" in out) == (n > 1)

    def test_out_of_memory_is_one_line_error(self, capsys, monkeypatch):
        """A request that passes every size guard and still exhausts memory
        ends in a one-line error, not a traceback."""
        def build(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "flattening_blocks", build)
        code = main(["bound", "--poly", "det", "--n", "9", "--method", "koszul-full",
                     "--d", "1", "--p", "1"])
        err = capsys.readouterr().err
        assert code == 2 and err == "flatrank: error: out of memory\n"


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out = run(["verify"], capsys)
        assert code == 0
        assert "[FAIL]" not in out
        assert out.splitlines()[-1].startswith("verify: PASS")

    def test_verify_prints_every_check_once(self, capsys):
        """The dimension and formula checks, then one line per row of
        `cli.rank_checks`, in its order: no row is skipped or repeated."""
        _, out = run(["verify"], capsys)
        passed = [line.split("  ")[0] for line in out.splitlines() if line.startswith("[PASS]")]
        assert passed == [
            "[PASS] schur dims 1050/1050/70", "[PASS] formula identities n=5..12",
        ] + [f"[PASS] {label}: rank {rank}, bound {bound}"
             for label, *_, rank, bound in cli.rank_checks()]

    def test_no_two_checks_rank_the_same_blocks(self):
        """A computation is (method, poly, n, d, p), with pieri read as the
        full map at (d=1, p=4), which it ranks: a second row of the same
        computation would be no second route."""
        computations = [
            ("koszul-full", poly, n, 1, 4) if method == "pieri" else (method, poly, n, d, p)
            for _, method, poly, n, d, p, _, _ in cli.rank_checks()
        ]
        assert len(set(computations)) == len(computations)


@pytest.mark.parametrize("argv", [
    ["decompose", "--n", "4", "--d", "2", "--p", "1", "--prime", "7"],
    ["decompose", "--n", "4", "--d", "2", "--p", "1", "--memory-cap", "512"],
    ["verify", "--format", "json"],
    ["verify", "--memory-cap", "512"],
    ["verify", "--prime", "7"],
    ["verify", "--suite", "quick"],
    ["verify", "--suite", "paper"],
])
def test_subcommands_take_only_the_options_they_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def loaded_by(code: str) -> list[str]:
    """The modules a fresh interpreter loads while it runs `code`, beyond
    those it holds at start-up; no bytecode is written."""
    src = str(Path(flatrank.__file__).resolve().parents[1])
    script = ("import contextlib, io, sys\n"
              "before = set(sys.modules)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              + "".join(f"    {line}\n" for line in code.splitlines())
              + "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                         check=True, timeout=120)
    return out.stdout.split()


def test_importing_the_cli_loads_no_construction_or_introspection_modules():
    """A `bound` process imports only what its method runs: the cli module
    brings `exact_linalg`, and no dataclass machinery, OpenSSL, JSON or
    Fraction code."""
    loaded = loaded_by("import flatrank.cli")
    assert "flatrank.cli" in loaded
    for name in ("dataclasses", "inspect", "random",
                 "flatrank.schur_flattening", "flatrank.partitions", "flatrank.bounds",
                 "_hashlib", "json", "fractions"):
        assert name not in loaded, name


@pytest.mark.parametrize("argv,solves_modules", [
    (["--poly", "det", "--n", "4", "--method", "koszul-minor", "--d", "2", "--p", "1"], True),
    (["--poly", "det", "--n", "3", "--method", "koszul-full", "--d", "1", "--p", "2"], False),
], ids=["koszul-minor", "koszul-full"])
def test_a_koszul_bound_run_loads_no_pieri_code(argv, solves_modules):
    """koszul-minor solves its rank over the candidate image modules, so it
    alone loads `partitions`; it needs no polynomial, so it alone does not
    load `polynomials`.  No run loads OpenSSL for its hashes."""
    loaded = loaded_by(f"from flatrank.cli import main\nassert main({['bound', *argv]!r}) == 0")
    assert "flatrank.flattening" in loaded
    assert "flatrank.schur_flattening" not in loaded
    assert ("flatrank.partitions" in loaded) == solves_modules
    assert ("flatrank.polynomials" in loaded) != solves_modules
    assert "_hashlib" not in loaded


@pytest.mark.parametrize("argv", [
    ["--poly", "perm", "--n", "3", "--method", "pieri"],
    ["--poly", "det", "--n", "3", "--method", "pieri", "--rational"],
], ids=["pieri", "pieri-rational"])
def test_a_pieri_bound_run_loads_no_tableau_or_partition_code(argv):
    """Pieri runs the full map at (d=1, p=4): it loads `flattening` and
    `polynomials`, and neither `partitions` nor the tableau code, which
    lives in the tests as the Pieri oracle."""
    loaded = loaded_by(f"from flatrank.cli import main\nassert main({['bound', *argv]!r}) == 0")
    assert "flatrank.flattening" in loaded and "flatrank.polynomials" in loaded
    for name in ("flatrank.partitions", "flatrank.schur_flattening", "schur_flattening",
                 "_hashlib"):
        assert name not in loaded, name


@pytest.mark.parametrize("argv", [
    ["--poly", "det", "--n", "4", "--method", "koszul-minor", "--d", "2", "--p", "1"],
    ["--poly", "det", "--n", "3", "--method", "koszul-full", "--d", "1", "--p", "2"],
    ["--poly", "perm", "--n", "3", "--method", "koszul-full", "--d", "1", "--p", "2"],
    ["--poly", "det", "--n", "3", "--method", "pieri"],
    ["--poly", "perm", "--n", "3", "--method", "pieri"],
    ["--poly", "det", "--n", "4", "--method", "koszul-minor", "--d", "2", "--p", "1",
     "--rational"],
    ["--poly", "perm", "--n", "3", "--method", "pieri", "--rational"],
], ids=["det-koszul-minor", "det-koszul-full", "perm-koszul-full", "det-pieri",
        "perm-pieri", "det-koszul-minor-rational", "perm-pieri-rational"])
def test_a_json_bound_run_loads_no_openssl_or_fractions(argv):
    """Hashes use CPython's built-in sha256, and det and perm are ranked in
    int arithmetic on both routes: a `--format json` run, with or without
    `--rational`, loads neither OpenSSL nor `fractions`, `decimal` and
    `numbers`."""
    argv = ["bound", *argv, "--format", "json"]
    loaded = loaded_by(f"from flatrank.cli import main\nassert main({argv!r}) == 0")
    for name in ("_hashlib", "fractions", "decimal", "numbers"):
        assert name not in loaded, name
