import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import chowforms
from chowforms import mpoly
from chowforms.cli import main, parse_problem
from chowforms.errors import ParseError, UsageError
from chowforms.mpoly import parse_poly


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


LINE_P3 = "ring x0 x1 x2 x3\npoly x2\npoly x3\ndim 1\n"
POINT_P2 = "ring x0 x1 x2\npoly x1\npoly x2\ndim 0\n"
CONIC = "ring x0 x1 x2\npoly x0*x2 - x1^2\ndim 1\n"
POINT_PAIR = ("ring x0 x1 y0 y1\nblocks (x0 x1)(y0 y1)\n"
              "poly 2*x0 - x1\npoly 5*y0 - 3*y1\ndim 0\nformat 1 0\n")
PRODUCT = ("ring x0 x1 x2 x3 y0 y1 y2 y3\n"
           "blocks (x0 x1 x2 x3)(y0 y1 y2 y3)\n"
           "poly x3\npoly x0*x2 - x1^2\n"
           "poly y3\npoly y0^2 + y1^2 - y2^2\n"
           "dim 2\n")


class TestParser:
    def test_basic(self):
        p = parse_problem("ring x0 x1 x2\npoly x0*x2 - x1^2\ndim 1\n")
        assert p.vars.names == ("x0", "x1", "x2")
        assert p.dim == 1 and len(p.polys) == 1

    def test_blocks_and_format(self):
        p = parse_problem("ring x0 x1 y0 y1\nblocks (x0 x1)(y0 y1)\n"
                          "poly x0*y0 + x1*y1\nformat 1 0\n")
        assert p.blocks == [("x0", "x1"), ("y0", "y1")]
        assert p.format == (1, 0)
        assert p.vars.blocks == ((0, 1), (2, 3))

    def test_comments_and_blanks(self):
        p = parse_problem("# a conic\nring x0 x1 x2\n\npoly x0*x2 - x1^2 "
                          "# trailing\ndim 1\n")
        assert len(p.polys) == 1

    def test_malformed_poly_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_problem("ring x0 x1\npoly x0 +\n")

    def test_unknown_variable_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_problem("ring x0 x1\npoly x0 + z9\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_problem("rang x0 x1\n")

    def test_missing_ring(self):
        with pytest.raises(ParseError):
            parse_problem("poly 3\n")

    def test_blocks_must_partition(self):
        with pytest.raises(ParseError):
            parse_problem("ring x0 x1 y0\nblocks (x0 x1)(y0 y9)\npoly x0\n")

    def test_expansion_caps_checked_before_expanding(self):
        vars = parse_problem("ring x0 x1 x2\n").vars
        assert len(parse_poly("x0^1000", vars).terms) == 1
        assert len(parse_poly("(x0+x1+x2)^40", vars).terms) == 861
        assert parse_poly("1^100000000000000000000", vars) == 1
        for text in ("x0^1001", "(x0+x1+x2)^150", "(2^99999)^99999",
                     "(2^1000*x0 + x1)^50", "(x0+x1+x2)^30*(x0+x1+x2)^30",
                     "x0^600*x1^600"):
            with pytest.raises(UsageError):
                parse_poly(text, vars)
        with pytest.raises(UsageError, match="line 2"):
            parse_problem("ring x0 x1\npoly (x0+x1)^5000\n")


class TestCommands:
    def test_chow_line_in_p3(self, tmp_path, capsys):
        assert main(["chow", write(tmp_path, "p", LINE_P3)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "u00*u11 - u01*u10"

    def test_chow_redundant_line_small_lambda_bound(self, tmp_path,
                                                     capsys):
        # Three linear forms spanning a 2-space: the combination bound is
        # 8, and with this seed each of the first three draws holds a
        # Lambda whose two combinations are proportional.  Those draws are
        # redrawn without using up a retry.
        text = ("ring x0 x1 x2 x3\n"
                "poly -2*x0 + 2*x1 - x2 - x3\n"
                "poly 3*x0 - 3*x1 + 3*x2 + 2*x3\n"
                "poly 8*x0 - 8*x1 + 7*x2 + 5*x3\n"
                "dim 1\n")
        path = write(tmp_path, "p", text)
        assert main(["chow", "--seed", "744342", path]) == 0
        assert capsys.readouterr().out.strip() == (
            "u00*u11 - u00*u12 + 3*u00*u13 - u01*u10 - u01*u12 + 3*u01*u13 "
            "+ u02*u10 + u02*u11 - 3*u03*u10 - 3*u03*u11")

    def test_formats_two_bilinear_forms_retry_indeterminate_slice(
            self, tmp_path, capsys):
        # With this seed the first multidegree slice of format (1, 1)
        # finds no two agreeing liftings; the next slices answer.
        text = ("ring x0 x1 x2 y0 y1 y2\n"
                "blocks (x0 x1 x2)(y0 y1 y2)\n"
                "poly -x0*y0 + 2*x0*y1 - x0*y2 + 3*x1*y0 + x1*y1 - 3*x1*y2 "
                "+ 2*x2*y0 + 2*x2*y1 + 3*x2*y2\n"
                "poly x0*y0 - 2*x0*y1 - 3*x0*y2 - 3*x1*y0 + 2*x1*y1 "
                "- 3*x1*y2 - 3*x2*y0 - x2*y1 - 3*x2*y2\n"
                "dim 2\n"
                "format 1 0\n")
        path = write(tmp_path, "p", text)
        assert main(["formats", "--seed", "1", path]) == 0
        assert capsys.readouterr().out == "chow 0 1\nchow 1 0\nhurwitz 1 1\n"

    def test_chow_ci_point(self, tmp_path, capsys):
        assert main(["chow-ci", write(tmp_path, "p", POINT_P2)]) == 0
        assert capsys.readouterr().out.strip() == "u00"

    def test_hurwitz_conic(self, tmp_path, capsys):
        assert main(["hurwitz", write(tmp_path, "p", CONIC)]) == 0
        out = capsys.readouterr().out.strip()
        got = parse_poly(out.replace("u", "v"),
                         __import__("chowforms").VarTable(
                             ("v10", "v11", "v12")))
        expected = parse_poly("v11^2 - 4*v10*v12", got.vars)
        assert got == expected.normalized()

    def test_hurwitz_triangle(self, tmp_path, capsys):
        text = "ring x0 x1 x2\npoly x0*x1*x2\ndim 1\n"
        assert main(["hurwitz", write(tmp_path, "p", text)]) == 0
        assert capsys.readouterr().out.strip() == "u10*u11*u12"

    def test_support_product(self, tmp_path, capsys):
        assert main(["support", write(tmp_path, "p", PRODUCT)]) == 0
        assert capsys.readouterr().out.strip() == "2 2"

    def test_support_two_bilinear_forms(self, tmp_path, capsys):
        # Two bilinear forms meet in two points; every projection is
        # finite, so the one support format is (1, 1).
        text = ("ring x0 x1 y0 y1\nblocks (x0 x1)(y0 y1)\n"
                "poly 3*x0*y0 - 2*x0*y1 + 5*x1*y0 + x1*y1\n"
                "poly x0*y0 + 4*x0*y1 - x1*y0 + 7*x1*y1\n"
                "dim 0\n")
        assert main(["support", write(tmp_path, "p", text)]) == 0
        assert capsys.readouterr().out.strip() == "1 1"

    def test_resultant_with_parameters(self, tmp_path, capsys):
        text = ("ring x0 x1 u v\nblocks (x0 x1)(u v)\n"
                "poly u*x0 + v*x1\npoly x0 - x1\n")
        assert main(["resultant", write(tmp_path, "p", text)]) == 0
        assert capsys.readouterr().out.strip() == "u + v"

    def test_det(self, tmp_path, capsys):
        text = ("ring x y\npoly x\npoly 1\npoly 1\npoly y\n")
        assert main(["det", write(tmp_path, "p", text)]) == 0
        assert capsys.readouterr().out.strip() == "x*y - 1"

    def test_bounds_projective(self, tmp_path, capsys):
        assert main(["bounds", write(tmp_path, "p", CONIC)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["degree_bound"] == 2

    def test_multichow_point_pair(self, tmp_path, capsys):
        assert main(["multichow", write(tmp_path, "p", POINT_PAIR)]) == 0
        assert capsys.readouterr().out.strip() == "3*u2_0_0 + 5*u2_0_1"

    def test_standard_library_only(self, tmp_path, capsys):
        # A fresh interpreter in which scipy and numpy cannot be imported
        # runs the Canny-Emiris path and prints what this process prints.
        path = write(tmp_path, "p", POINT_PAIR)
        assert main(["multichow", path]) == 0
        want = capsys.readouterr().out
        code = ("import sys\n"
                "sys.modules['scipy'] = sys.modules['numpy'] = None\n"
                "from chowforms.cli import main\n"
                f"sys.exit(main(['multichow', {path!r}]))\n")
        src = str(pathlib.Path(chowforms.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == want


class TestPolymatroidCommand:
    TABLE = json.dumps({"n": [3, 3],
                        "table": {"0": 1, "1": 1, "0 1": 2}})

    def test_truncate_of_dual_table(self, tmp_path, capsys):
        # Dual of the product dim table, rank 4, bases {(2,2)}.
        dual = json.dumps({"n": [3, 3],
                           "table": {"0": 2, "1": 2, "0 1": 4}})
        path = write(tmp_path, "t.json", dual)
        assert main(["polymatroid", "truncate", path]) == 0
        assert capsys.readouterr().out.strip() == "1 2\n2 1"

    def test_bases(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", self.TABLE)
        assert main(["polymatroid", "bases", path]) == 0
        assert capsys.readouterr().out.strip() == "1 1"

    def test_dual(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", self.TABLE)
        assert main(["polymatroid", "dual", path]) == 0
        assert capsys.readouterr().out.strip() == "2 2"

    def test_bad_json_exits_4(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", "{nope")
        assert main(["polymatroid", "dual", path]) == 4

    def test_bad_op_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", self.TABLE)
        assert main(["polymatroid", "widen", path]) == 2


class TestExitCodes:
    @pytest.mark.parametrize("command", ["chow", "chow-ci", "hurwitz"])
    @pytest.mark.parametrize("text", [
        "ring x0\npoly x0\ndim 0\n",
        POINT_PAIR,
        "ring x0 x1 y0 y1\nblocks (x0 x1)(y0 y1)\npoly x0*y0 + x1*y1\n"
        "dim 1\n"], ids=["one-variable", "point-pair", "bilinear-curve"])
    def test_projective_command_off_projective_space_is_2(self, command, text,
                                                          tmp_path, capsys):
        # A projective command needs one block of at least two variables.
        assert main([command, write(tmp_path, "p", text)]) == 2
        assert capsys.readouterr().out == ""

    def test_bounds_on_one_variable_ring_is_2(self, tmp_path, capsys):
        # Every block of a variety has at least two variables.
        assert main(["bounds", write(tmp_path, "p",
                                     "ring x0\npoly x0\ndim 0\n")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least two variables" in captured.err

    def test_parse_error_is_4(self, tmp_path, capsys):
        assert main(["chow", write(tmp_path, "p", "ring x0\npoly x0 +\n")]) \
            == 4
        assert "line 2" in capsys.readouterr().err

    def test_missing_dim_is_2(self, tmp_path, capsys):
        assert main(["chow", write(tmp_path, "p",
                                   "ring x0 x1 x2\npoly x1\npoly x2\n")]) == 2

    def test_missing_file_is_2(self, tmp_path, capsys):
        assert main(["chow", str(tmp_path / "absent")]) == 2

    def test_gcd_giving_up_is_3(self, tmp_path, capsys, monkeypatch):
        # A line in P^3 by three linear forms spanning a 2-space: the
        # general path folds the forms by gcd, and a heuristic gcd that
        # gives up ends the run at once with exit 3.
        path = write(tmp_path, "p", "ring x0 x1 x2 x3\n"
                     "poly x0 + 2*x1 - x2 + 3*x3\npoly 2*x0 - x1 + x2 + x3\n"
                     "poly 5*x0 + x2 + 5*x3\ndim 1\n")
        assert main(["chow", path]) == 0
        capsys.readouterr()
        monkeypatch.setattr(mpoly, "_heu_gcd", lambda f, g: None)
        start = time.perf_counter()
        assert main(["chow", path]) == 3
        assert time.perf_counter() - start < 10
        captured = capsys.readouterr()
        assert captured.out == "" and "heuristic gcd" in captured.err

    def test_linear_hurwitz_is_2(self, tmp_path, capsys):
        text = "ring x0 x1 x2\npoly x0\ndim 1\n"
        assert main(["hurwitz", write(tmp_path, "p", text)]) == 2

    def test_points_hurwitz_is_2(self, tmp_path, capsys):
        text = "ring x0 x1\npoly x0^2 + 3*x0*x1 - x1^2\ndim 0\n"
        assert main(["hurwitz", write(tmp_path, "p", text)]) == 2
        assert "dim >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["support", "formats"])
    def test_dim_disagreeing_with_table_is_2(self, command, tmp_path,
                                             capsys):
        # The bilinear curve has dimension 1, not 0.
        text = ("ring x0 x1 y0 y1\nblocks (x0 x1)(y0 y1)\n"
                "poly x0*y0 + x1*y1\ndim 0\n")
        assert main([command, write(tmp_path, "p", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dim V = 1" in captured.err and "dimension 0" in captured.err

    @pytest.mark.parametrize("command", ["chow-ci", "chow", "bounds"])
    def test_negative_dim_is_2(self, command, tmp_path, capsys):
        text = "ring x0 x1 x2\npoly x0\npoly x1\npoly x2\ndim -1\n"
        assert main([command, write(tmp_path, "p", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need r >= 0" in captured.err

    @pytest.mark.parametrize("command, fmt", [
        ("bounds", "0"), ("bounds", "-1 0"), ("bounds", "5 0"),
        ("multichow", "-1 0")])
    def test_format_not_fitting_blocks_is_2(self, command, fmt, tmp_path,
                                            capsys):
        text = ("ring x0 x1 y0 y1\nblocks (x0 x1)(y0 y1)\n"
                f"poly x0*y0 + x1*y1\ndim 1\nformat {fmt}\n")
        assert main([command, write(tmp_path, "p", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not fit the block sizes" in captured.err

    @pytest.mark.parametrize("command", ["support", "formats", "multichow"])
    def test_not_multihomogeneous_is_2(self, command, tmp_path, capsys):
        # Refused when the variety is built, before any dimension check.
        text = ("ring x0 x1 y0 y1\nblocks (x0 x1)(y0 y1)\n"
                "poly x0*y0 + x1\ndim 1\nformat 0 0\n")
        assert main([command, write(tmp_path, "p", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "defining polynomials must be multihomogeneous" in captured.err

    def test_oversized_power_is_2_within_seconds(self, tmp_path, capsys):
        text = "ring x0 x1 x2\npoly (x0+x1+x2)^400\ndim 1\n"
        start = time.monotonic()
        assert main(["bounds", write(tmp_path, "p", text)]) == 2
        assert time.monotonic() - start < 2
        assert "too large" in capsys.readouterr().err


class TestDeterminismAndMetadata:
    def test_byte_identical_stdout(self, tmp_path, capsys):
        path = write(tmp_path, "p", CONIC)
        assert main(["hurwitz", "--seed", "5", path]) == 0
        first = capsys.readouterr().out
        assert main(["hurwitz", "--seed", "5", path]) == 0
        assert capsys.readouterr().out == first

    def test_json_metadata_keys(self, tmp_path, capsys):
        path = write(tmp_path, "p", LINE_P3)
        assert main(["chow", "--json", path]) == 0
        meta = json.loads(capsys.readouterr().err)
        for key in ("degrees_per_block", "bitsize", "seed", "wall_ms",
                    "algorithm"):
            assert key in meta

    def test_round_trip_reparse(self, tmp_path, capsys):
        from chowforms.mpoly import VarTable
        path = write(tmp_path, "p", CONIC)
        assert main(["hurwitz", path]) == 0
        out = capsys.readouterr().out.strip()
        vt = VarTable(("u10", "u11", "u12"))
        assert parse_poly(out, vt).to_text() == out
