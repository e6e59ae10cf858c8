import io
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import subsetcurrents
from subsetcurrents import (Subgroup, WeightTable, cylinder_table,
                            graph_from_text, label_isomorphic,
                            round_graph_to_text, subgroup_from_text,
                            subgroup_to_text, table_from_text,
                            table_to_text)
from subsetcurrents.cli import _check_ball, main
from subsetcurrents.cylinders import RationalCurrent
from subsetcurrents.errors import AdmissibilityError, FileFormatError

from helpers import FILES, axis, malformed_files, noised_floats


def write_sub(tmp_path, name, gens, rank=2):
    path = tmp_path / name
    path.write_text(subgroup_to_text(Subgroup(gens, rank)))
    return path


def test_rank_command(tmp_path, capsys):
    path = write_sub(tmp_path, "full.txt", ["x", "y"])
    assert main(["rank", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "reduced_rank = 1"


def test_index_command(tmp_path, capsys):
    rose = write_sub(tmp_path, "full.txt", ["x", "y"])
    assert main(["index", str(rose)]) == 0
    assert capsys.readouterr().out.strip() == "index = 1"
    cyclic = write_sub(tmp_path, "x.txt", ["x"])
    assert main(["index", str(cyclic)]) == 0
    assert capsys.readouterr().out.strip() == "index = infinite"


def test_member_command(tmp_path, capsys):
    path = write_sub(tmp_path, "x.txt", ["x"])
    assert main(["member", str(path), "--word", "xx"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["member", str(path), "--word", "y"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_intersect_command(tmp_path, capsys):
    a = write_sub(tmp_path, "a.txt", ["xx", "y"])
    assert main(["intersect", str(a), str(a)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "N = 1"
    assert out[1] == "bound = 1"
    assert out[2] == "SHNC: ok"
    assert out[3].startswith("census: total=")


def test_intersect_export(tmp_path, capsys):
    a = write_sub(tmp_path, "a.txt", ["x", "y"])
    b = write_sub(tmp_path, "b.txt", ["xy"])
    prefix = tmp_path / "comp"
    assert main(["intersect", str(a), str(b), "--export", str(prefix)]) == 0
    exported = sorted(tmp_path.glob("comp.*.txt"))
    assert exported
    graph = graph_from_text(exported[0].read_text())
    assert graph.num_vertices == 2  # the 2-cycle reading xy


def test_intersect_export_may_not_be_a_core_graph(tmp_path, capsys):
    # A fiber-product component can keep a degree-1 vertex, so the
    # exported file is no core graph and graph_from_text refuses it.
    a = write_sub(tmp_path, "a.txt", ["xy", "yx"])
    b = write_sub(tmp_path, "b.txt", ["xx", "y"])
    prefix = tmp_path / "comp"
    assert main(["intersect", str(a), str(b), "--export", str(prefix)]) == 0
    (exported,) = tmp_path.glob("comp.*.txt")
    assert "vertices 6\n" in exported.read_text()
    with pytest.raises(FileFormatError, match="vertex 3 has degree 1 < 2"):
        graph_from_text(exported.read_text())


def test_enumerate_command(capsys):
    assert main(["enumerate", "--radius", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "count = 11"
    assert "e,x,X" in out[1:]


def test_cylinders_table(tmp_path, capsys):
    path = write_sub(tmp_path, "x.txt", ["x"])
    out_path = tmp_path / "table.txt"
    assert main(["cylinders", str(path), "--radius", "1",
                 "--coeffs", "1/2", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == "# matching: ok\n"
    table = table_from_text(out_path.read_text())
    expected = cylinder_table(
        RationalCurrent.eta(Subgroup(["x"], 2)), 1).scale(Fraction(1, 2))
    assert table == expected


def test_realize_command(tmp_path, capsys):
    table = cylinder_table(RationalCurrent.full(2), 1)
    (tmp_path / "theta.txt").write_text(table_to_text(table))
    outdir = tmp_path / "out"
    assert main(["realize", str(tmp_path / "theta.txt"),
                 "--outdir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "verified = true" in out
    component = subgroup_from_text(
        (outdir / "component_0.txt").read_text())
    assert label_isomorphic(component.core, Subgroup.full(2).core)
    assert (outdir / "report.txt").exists()


def test_realize_rejects_inadmissible_table(tmp_path, capsys):
    (tmp_path / "bad.txt").write_text(
        "rank 2\nradius 1\ne,x,y = 1\n")
    assert main(["realize", str(tmp_path / "bad.txt"),
                 "--outdir", str(tmp_path / "out")]) == 1
    assert "matching equation violated" in capsys.readouterr().err


def test_realize_names_a_failed_verification(tmp_path, capsys, monkeypatch):
    # A realization that fails its check still writes and prints its
    # report, and exits 1 with one error line, as every domain error does.
    monkeypatch.setattr("subsetcurrents.cli.verify_realization",
                        lambda theta, current: False)
    (tmp_path / "theta.txt").write_text("rank 2\nradius 1\ne,x,X,y,Y = 2\n")
    outdir = tmp_path / "out"
    assert main(["realize", str(tmp_path / "theta.txt"),
                 "--outdir", str(outdir)]) == 1
    captured = capsys.readouterr()
    assert "verified = false" in captured.out.splitlines()
    assert (outdir / "report.txt").read_text() == captured.out
    assert captured.err == ("error: the realization does not verify: the "
                            "current it decomposes into has another table\n")


def test_approx_command(tmp_path, capsys):
    (tmp_path / "float.txt").write_text(
        "rank 2\nradius 1\n"
        "e,x,Y = 0.3333333333\n"
        "e,X,y = 0.3333333334\n")
    out_path = tmp_path / "theta.txt"
    assert main(["approx", str(tmp_path / "float.txt"),
                 "--out", str(out_path)]) == 0
    assert capsys.readouterr().out.startswith("# M = ")
    theta = table_from_text(out_path.read_text())
    assert theta.is_integral()


def test_approx_output_realizes(tmp_path, capsys):
    # A float table like a benchmark repair item: radius 3, weights of
    # integer currents, each off by a relative noise below 1e-6.
    subs = [Subgroup(gens, 2) for gens in (["xy", "yxY"], ["xx", "y"],
                                            ["xyXY"])]
    exact = cylinder_table(RationalCurrent(
        [(Fraction(1), sub) for sub in subs], 2), 3)
    noisy = tmp_path / "noisy.txt"
    noisy.write_text("rank 2\nradius 3\n" + "".join(
        f"{round_graph_to_text(t)} = {value!r}\n"
        for t, value in noised_floats(exact, random.Random(1)).items()))
    theta = tmp_path / "th.txt"
    assert main(["approx", str(noisy), "--epsilon", "1/100",
                 "--out", str(theta)]) == 0
    assert capsys.readouterr().out == "# M = 1\n"
    assert table_from_text(theta.read_text()) == exact
    assert main(["realize", str(theta),
                 "--outdir", str(tmp_path / "out")]) == 0
    assert "verified = true" in capsys.readouterr().out.splitlines()


def test_a_table_on_stdout_is_the_out_file_and_realizes(tmp_path, capsys):
    # `cylinders` and `approx` print their status lines as `# ` comments,
    # which every table reader skips: stdout without --out is the --out
    # file followed by those lines, reads back as the same table, and
    # feeds `realize` as it is.
    subs = [write_sub(tmp_path, f"s{k}.txt", gens) for k, gens in
            enumerate((["xy", "yxY"], ["xx", "y"]))]
    exact = cylinder_table(RationalCurrent(
        [(1, subgroup_from_text(path.read_text())) for path in subs]), 2)
    noisy = tmp_path / "noisy.txt"
    noisy.write_text("rank 2\nradius 2\n" + "".join(
        f"{round_graph_to_text(t)} = {value!r}\n"
        for t, value in noised_floats(exact, random.Random(1)).items()))
    written, piped = tmp_path / "written.txt", tmp_path / "piped.txt"
    for argv in (["cylinders", *map(str, subs), "--radius", "2"],
                 ["approx", str(noisy), "--epsilon", "1/100"]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert main([*argv, "--out", str(written)]) == 0
        status = capsys.readouterr().out
        assert status.startswith("# ") and status.count("\n") == 1
        assert captured.out == written.read_text() + status
        assert table_from_text(captured.out) == exact
        piped.write_text(captured.out)
        assert main(["realize", str(piped),
                     "--outdir", str(tmp_path / argv[0])]) == 0
        assert "verified = true" in capsys.readouterr().out.splitlines()


def test_converge_command(capsys):
    assert main(["converge", "--radius", "1", "--ns", "2,4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n=2 distance = 1/2"
    assert out[1] == "n=4 distance = 1/4"
    assert main(["converge", "--radius", "0", "--ns", "2", "--decimal"]) == 0
    assert "n=2 distance = 0 (0)" in capsys.readouterr().out


def test_export_roundtrip(tmp_path, capsys):
    path = write_sub(tmp_path, "sub.txt", ["xy", "xY"])
    out_path = tmp_path / "graph.txt"
    assert main(["export", str(path), "--out", str(out_path)]) == 0
    graph = graph_from_text(out_path.read_text())
    assert label_isomorphic(graph, Subgroup(["xy", "xY"], 2).core)
    assert main(["export", str(path), "--hull", "--out", str(out_path)]) == 0
    hull = graph_from_text(out_path.read_text())
    assert hull.basepoint is None


def test_exit_codes(tmp_path, capsys):
    # missing file -> 2
    assert main(["rank", str(tmp_path / "absent.txt")]) == 2
    # malformed file -> 2
    (tmp_path / "bad.txt").write_text("no header\n")
    assert main(["rank", str(tmp_path / "bad.txt")]) == 2
    # domain error (letter outside the basis) -> 1, precondition named
    path = write_sub(tmp_path, "x.txt", ["x"])
    assert main(["member", str(path), "--word", "z"]) == 1
    err = capsys.readouterr().err
    assert "not a generator at rank 2" in err


def test_enumerate_rejects_a_bad_rank(capsys):
    for rank in ("0", "-1", "26"):
        assert main(["enumerate", "--radius", "2", "--rank", rank]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: rank must be between 1 and 25")
        assert "count =" not in captured.out


def test_cylinders_and_enumerate_refuse_what_belongs_to_the_other(
        tmp_path, capsys):
    # `cylinders` takes one or more subgroup files and `enumerate` none;
    # a flag or file of the other, or no file, is a usage error of the
    # subcommand named (exit 2), not input silently dropped.
    sub = str(write_sub(tmp_path, "x.txt", ["x"]))
    for argv, error in (
            (["cylinders", sub, "--radius", "1", "--enumerate"],
             "unrecognized arguments: --enumerate"),
            (["cylinders", sub, "--radius", "1", "--rank", "7"],
             "unrecognized arguments: --rank 7"),
            (["cylinders", "--radius", "1"],
             "the following arguments are required: subgroups"),
            (["enumerate", sub, "--radius", "1"],
             f"unrecognized arguments: {sub}"),
            (["enumerate", "--radius", "1", "--coeffs", "5"],
             "unrecognized arguments: --coeffs 5")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: subcur {argv[0]} ")
        assert [line for line in captured.err.splitlines()
                if "error:" in line] == [f"subcur {argv[0]}: error: {error}"]


def test_cylinders_prints_one_line_per_violation(tmp_path, capsys,
                                                 monkeypatch):
    rows = [AdmissibilityError(1, ((), (1,)), Fraction(1), Fraction(0)),
            AdmissibilityError(2, ((), (2,)), Fraction(2), Fraction(1))]
    monkeypatch.setattr("subsetcurrents.cylinders.check_matching",
                        lambda table: rows)
    path = write_sub(tmp_path, "x.txt", ["x"])
    assert main(["cylinders", str(path), "--radius", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [f"# matching: {row}" for row in rows]
    assert lines[-1].startswith("# matching: matching equation violated "
                                "for generator 2")


def test_enumerate_refuses_huge_radius(capsys):
    assert main(["enumerate", "--radius", "3"]) == 1
    assert "refusing to list 68719474691" in capsys.readouterr().err


def one_line_refusal(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: refusing ")
    assert captured.err.count("\n") == 1
    return captured.err


def test_enumerate_refuses_long_counts_in_one_line(capsys):
    # At radius 8 the count has 2,634 digits; at radius 9 it passes
    # str()'s digit limit.  The ball still fits the cap at both.
    for radius in ("8", "9"):
        assert main(["enumerate", "--radius", radius]) == 1
        err = one_line_refusal(capsys)
        assert "round-graphs" in err and "cap of 1000000" in err


def test_ball_cap_refuses_before_counting_or_tracing(tmp_path, capsys,
                                                    monkeypatch):
    def unreachable(*args):
        raise AssertionError("a radius above the ball cap was computed")

    monkeypatch.setattr("subsetcurrents.cylinders.count_round_graphs",
                        unreachable)
    monkeypatch.setattr("subsetcurrents.cylinders.cylinder_table",
                        unreachable)
    # No matching row of a refused table is read, in any module that
    # reads the rows.
    for module in ("cylinders", "realize", "approx"):
        monkeypatch.setattr(import_module(f"subsetcurrents.{module}"),
                            "lens_rows", unreachable)
    path = write_sub(tmp_path, "x.txt", ["x"])
    # One axis weight at radius 13 is a 231-byte file, but radius 13 is
    # past the cap: the ball B(id, 13) holds about 3.2 million words.
    table = tmp_path / "axis13.txt"
    table.write_text(table_to_text(WeightTable(2, 13, {axis(2, 1, 13): 1})))
    assert len(table.read_bytes()) == 231
    for argv in (["enumerate", "--radius", "1000000"],
                 ["cylinders", str(path), "--radius", "1000000"],
                 ["converge", "--radius", "1000000", "--ns", "2"],
                 ["enumerate", "--radius", "10"],
                 ["realize", str(table), "--outdir", str(tmp_path / "out")],
                 ["approx", str(table), "--out", str(tmp_path / "t.txt")]):
        assert main(argv) == 1
        err = one_line_refusal(capsys)
        assert "its ball holds more than the cap of 1000000 letters" in err
    assert not (tmp_path / "out" / "report.txt").exists()
    assert not (tmp_path / "t.txt").exists()


def test_parsed_words_are_capped_before_parsing(tmp_path, capsys,
                                               monkeypatch):
    # x^200000000 would spell 2e8 letters; a 5,000-digit exponent would
    # pass int()'s digit limit.  Both are refused before any parse.
    def unreachable(*args):
        raise AssertionError("a word above the cap was parsed")

    plain = write_sub(tmp_path, "x.txt", ["x"])
    for huge in ("x^200000000", "x^-" + "9" * 5000):
        (tmp_path / "sub.txt").write_text(f"rank 2\nx\n{huge}\n")
        (tmp_path / "table.txt").write_text(
            f"rank 2\nradius 1\ne,x,X,{huge} = 1\n")
        for module in ("words", "stallings", "cylinders"):
            monkeypatch.setattr(f"subsetcurrents.{module}.parse_word",
                                unreachable)
        for argv in (["member", str(plain), "--word", huge],
                     ["rank", str(tmp_path / "sub.txt")],
                     ["approx", str(tmp_path / "table.txt")],
                     ["realize", str(tmp_path / "table.txt")]):
            assert main(argv) == 1
            err = one_line_refusal(capsys)
            assert "above the cap of 1000000 letters" in err
        monkeypatch.undo()
    # One letter plus an exponent of 999,999 is exactly the cap.
    assert main(["member", str(plain), "--word", "x^999999"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_converge_refuses_an_n_above_the_cap(capsys, monkeypatch):
    # H_n spells n^2 + n - 1 letters: 998,999 at n = 999, 1,000,999 at
    # n = 1000.
    def unreachable(n):
        raise AssertionError("a group H_n above the cap was built")

    monkeypatch.setattr("subsetcurrents.approx.subgroup_Hn", unreachable)
    for ns in ("1000", "2,100000"):
        assert main(["converge", "--radius", "1", "--ns", ns]) == 1
        err = one_line_refusal(capsys)
        assert "H_n spells" in err and "above the cap of 1000000" in err


def test_converge_refuses_an_n_below_2_before_dividing_by_it(capsys):
    # 1/n is formed only once H_n is built, so n = 0 is H_n's own error,
    # not a ZeroDivisionError out of main.
    for ns in ("0", "2,0", "-1"):
        assert main(["converge", "--radius", "1", "--ns", ns]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: n must be >= 2\n"


def test_converge_refuses_an_n_past_the_digit_cap(capsys):
    # int() of a 5,000-digit n would end in Python's own digit-limit
    # message; the CLI names the cap before any conversion.
    assert main(["converge", "--radius", "1", "--ns",
                 "2," + "9" * 5000]) == 1
    assert "refusing --ns: a number in it spells more than the cap of " \
        "4300 digits" in one_line_refusal(capsys)


def test_intersect_refuses_a_product_above_the_cap(tmp_path, capsys,
                                                  monkeypatch):
    class Joined(Exception):
        pass

    def joined(*args):
        raise Joined

    monkeypatch.setattr("subsetcurrents.fiber.fiber_product", joined)
    # <x^4000> and <x^4001> have 4,000- and 4,001-cycle hulls, whose join
    # would list 16,004,000 x-edges.
    a = write_sub(tmp_path, "a.txt", ["x^4000"])
    b = write_sub(tmp_path, "b.txt", ["x^4001"])
    assert main(["intersect", str(a), str(b)]) == 1
    err = one_line_refusal(capsys)
    assert "16004000 edges" in err and "cap of 1000000" in err
    # The count is per label: 1000 * 999 x-edges plus 1000 * 1 y-edges is
    # exactly the cap, though the hulls have 2,000 and 1,000 edges.
    a = write_sub(tmp_path, "a.txt", ["x^1000", "y^1000"])
    b = write_sub(tmp_path, "b.txt", ["x^999", "y"])
    with pytest.raises(Joined):
        main(["intersect", str(a), str(b)])


def test_ball_cap_admits_every_radius_of_the_old_default():
    # Rank 25 at radius 3 holds 365,100 letters, and rank 2 at radius 9
    # holds 334,612: both under the cap.
    _check_ball(25, 3)
    _check_ball(2, 9)


def test_realize_refuses_total_weight_above_cap(tmp_path, capsys,
                                                monkeypatch):
    def no_quotient(theta):
        raise AssertionError("realize ran on a table above the cap")

    monkeypatch.setattr("subsetcurrents.cli.realize", no_quotient)
    # The weights' gcd is 1, so the closure may cut 1000001 atoms.
    (tmp_path / "big.txt").write_text(
        "rank 2\nradius 1\ne,x,X,y,Y = 1000000\ne,x,X = 1\n")
    assert main(["realize", str(tmp_path / "big.txt"),
                 "--outdir", str(tmp_path / "out")]) == 1
    err = one_line_refusal(capsys)
    assert "total weight 1000001" in err and "cap of 1000000" in err
    assert "times the gcd 1 of its weights" in err
    assert not (tmp_path / "out").exists()


def _realize_report(tmp_path, capsys, table, name) -> dict[str, str]:
    """`subcur realize` on a table: its report lines as a dict."""
    (tmp_path / f"{name}.txt").write_text(table_to_text(table))
    assert main(["realize", str(tmp_path / f"{name}.txt"),
                 "--outdir", str(tmp_path / name)]) == 0
    return dict(line.split(" = ")
                for line in capsys.readouterr().out.splitlines())


def test_realize_caps_total_weight_over_the_gcd(tmp_path, capsys):
    # Every cut of the atom closure is a multiple of the weights' gcd g,
    # so the cap is on total / g: a table scaled by 10**9 (total 5.10**9)
    # realizes in the atoms of the unscaled one, and prints every count
    # and coefficient times 10**9.
    subs = [Subgroup(["xy", "yxY"], 2), Subgroup(["xx", "y"], 2)]
    table = cylinder_table(RationalCurrent(
        [(1, sub) for sub in subs], 2), 2)
    plain = _realize_report(tmp_path, capsys, table, "plain")
    scaled = _realize_report(tmp_path, capsys, table.scale(10 ** 9),
                             "scaled")
    assert table.total() * 10 ** 9 > 10 ** 6
    assert scaled.keys() == plain.keys()
    for key, value in plain.items():
        expected = value if key in ("verified", "shapes") else \
            str(int(value) * 10 ** 9)
        assert scaled[key] == expected, key
    assert scaled["verified"] == "true"
    for k in range(int(plain["shapes"])):
        name = f"component_{k}.txt"
        assert (tmp_path / "scaled" / name).read_text() == \
            (tmp_path / "plain" / name).read_text()
    # At gcd 10**6 a total of 2.10**6 is two units, within the cap; at
    # gcd 1 a total of 10**6 + 1 is not (see the test above).
    eta_f = cylinder_table(RationalCurrent.full(2), 1)
    eta_x = cylinder_table(RationalCurrent.eta(Subgroup(["x"], 2)), 1)
    both = _realize_report(tmp_path, capsys,
                           (eta_f + eta_x).scale(10 ** 6), "both")
    assert both["vertices"] == "2000000" and both["verified"] == "true"


def test_table_with_bad_header_is_a_format_error(tmp_path, capsys):
    (tmp_path / "bad.txt").write_text("rank two\nradius 1\ne,x,X = 1\n")
    assert main(["realize", str(tmp_path / "bad.txt"),
                 "--outdir", str(tmp_path / "out")]) == 2
    assert "expected 'rank N'" in capsys.readouterr().err


def test_radius_four_table_and_converge_need_no_flag(tmp_path, capsys):
    path = write_sub(tmp_path, "x.txt", ["x"])
    out_path = tmp_path / "table.txt"
    assert main(["cylinders", str(path), "--radius", "4",
                 "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == "# matching: ok\n"
    assert table_from_text(out_path.read_text()) == cylinder_table(
        RationalCurrent.eta(Subgroup(["x"], 2)), 4)
    assert main(["converge", "--radius", "4", "--ns", "2"]) == 0
    assert capsys.readouterr().out.startswith("n=2 distance = ")


# Exported components of <x^2, y> x <x^2, y>, byte for byte: grouping the
# product's edges by component must not change what is written.
EXPORTED_COMPONENTS = [
    "rank 2\nvertices 2\nbasepoint none\n"
    "edge 0 0 g2\nedge 0 1 g1\nedge 1 0 g1\n",
    "rank 2\nvertices 2\nbasepoint none\nedge 0 1 g1\nedge 1 0 g1\n",
]


def test_intersect_export_is_byte_identical(tmp_path, capsys):
    a = write_sub(tmp_path, "a.txt", ["xx", "y"])
    prefix = tmp_path / "comp"
    assert main(["intersect", str(a), str(a), "--export", str(prefix)]) == 0
    assert "exported 2 components" in capsys.readouterr().out
    exported = [(tmp_path / f"comp.{k}.txt").read_bytes() for k in range(2)]
    assert exported == [text.encode() for text in EXPORTED_COMPONENTS]


def test_realize_writes_one_file_per_shape(tmp_path, capsys):
    (tmp_path / "theta.txt").write_text("rank 2\nradius 1\ne,x,X,y,Y = 2\n")
    outdir = tmp_path / "out"
    assert main(["realize", str(tmp_path / "theta.txt"),
                 "--outdir", str(outdir)]) == 0
    report = ("vertices = 2\ncomponents = 2\nverified = true\n"
              "shapes = 1\ncomponent_0 = 2\n")
    assert capsys.readouterr().out == report
    assert (outdir / "report.txt").read_text() == report
    assert sorted(p.name for p in outdir.iterdir()) == ["component_0.txt",
                                                        "report.txt"]
    assert (outdir / "component_0.txt").read_text() == "rank 2\nx\ny\n"


def test_huge_rationals_are_refused_before_parsing(tmp_path, capsys,
                                                   monkeypatch):
    # Fraction("1e999999999999") would compute 10**999999999999, and
    # 1e5000 has more digits than str() prints: each table weight,
    # coefficient or tolerance is refused in one line, within a second,
    # before any rational is read.
    def unreachable(*args):
        raise AssertionError("a huge rational was parsed")

    sub = write_sub(tmp_path, "x.txt", ["x"])
    table = tmp_path / "table.txt"
    for huge in ("1e999999999999", "1e5000"):
        table.write_text(f"rank 2\nradius 1\ne,x,X,y,Y = {huge}\n")
        monkeypatch.setattr("subsetcurrents.cylinders.table_from_text",
                            unreachable)
        monkeypatch.setattr("subsetcurrents.stallings.Fraction", unreachable)
        for argv in (["realize", str(table), "--outdir", str(tmp_path)],
                     ["approx", str(table)],
                     ["cylinders", str(sub), "--radius", "1",
                      "--coeffs", huge]):
            start = time.perf_counter()
            assert main(argv) == 1
            assert time.perf_counter() - start < 1
            assert "cap of 4300 digits" in one_line_refusal(capsys)
        monkeypatch.undo()
        table.write_text("rank 2\nradius 1\ne,x,X,y,Y = 1\n")
        assert main(["approx", str(table), "--epsilon",
                     huge.replace("e", "e-")]) == 1
        assert "cap of 4300 digits" in one_line_refusal(capsys)
    # A 4,300-digit weight is read; its realize refusal names the total
    # by its digit count.
    table.write_text("rank 2\nradius 1\ne,x,X,y,Y = 1e4299\ne,x,X = 1\n")
    assert main(["realize", str(table), "--outdir", str(tmp_path)]) == 1
    assert "total weight of 4300 digits above the cap" in \
        one_line_refusal(capsys)


def test_a_table_value_past_the_digit_cap_is_a_format_error(monkeypatch):
    # A library caller reads the table without the CLI's file cap:
    # Fraction("1e10000000") would build 10**10000000 in full, and a
    # value it could read past 4,300 digits could not be written back.
    def unreachable(*args):
        raise AssertionError("a huge rational was parsed")

    monkeypatch.setattr("subsetcurrents.stallings.Fraction", unreachable)
    for huge in ("1e10000000", "1e-10000000", "1e4300", "9" * 4301,
                 "1/" + "9" * 4301):
        start = time.perf_counter()
        with pytest.raises(FileFormatError, match="bad rational"):
            table_from_text(f"rank 2\nradius 1\ne,x,X,y,Y = {huge}\n")
        assert time.perf_counter() - start < 0.1
    monkeypatch.undo()
    table = table_from_text("rank 2\nradius 1\ne,x,X,y,Y = 1e4299\n")
    assert table.total() == 10 ** 4299
    assert table_from_text(table_to_text(table)) == table


def test_table_file_of_a_bad_rank_exits_2(tmp_path, capsys):
    for body in ("", "e,x,X = 1\n"):
        (tmp_path / "t.txt").write_text(f"rank 99\nradius 1\n{body}")
        for argv in (["realize", str(tmp_path / "t.txt"),
                      "--outdir", str(tmp_path / "out")],
                     ["approx", str(tmp_path / "t.txt")]):
            assert main(argv) == 2
            assert "rank must be between" in capsys.readouterr().err


def test_subgroup_file_of_a_bad_rank_exits_2(tmp_path, capsys):
    # The same header is a format error in a subgroup file and a table file.
    (tmp_path / "s.txt").write_text("rank 99\nx\n")
    for argv in (["rank", str(tmp_path / "s.txt")],
                 ["cylinders", str(tmp_path / "s.txt"), "--radius", "1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: rank must be between 1 and 25, got 99")


@pytest.mark.parametrize("kind, case", [
    (kind, case) for kind in ("subgroup", "table")
    for case in malformed_files(kind)])
def test_malformed_headers_exit_2(tmp_path, capsys, kind, case):
    path = tmp_path / "f.txt"
    path.write_text(malformed_files(kind)[case], encoding="utf-8")
    argvs = ([["rank", str(path)], ["cylinders", str(path), "--radius", "1"]]
             if kind == "subgroup" else
             [["realize", str(path), "--outdir", str(tmp_path / "out")],
              ["approx", str(path)]])
    for argv in argvs:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


# int() and Fraction() read Arabic-Indic and full-width digits and '_'
# separators as numbers; every number the CLI reads is ASCII digits only.
NON_ASCII_NUMBERS = {"arabic": "\u0661\u0666", "fullwidth": "\uff11\uff16",
                     "underscore": "1_6"}


@pytest.mark.parametrize("case", NON_ASCII_NUMBERS)
def test_a_table_value_is_an_ascii_number(tmp_path, monkeypatch, case):
    # Refused as a format error (exit 2), before any Fraction is built;
    # floats such as 1.0000001e-05 are still read.
    line = "e,x,X,y,Y = {}\n"
    assert table_from_text("rank 2\nradius 1\n" + line.format(
        "1.0000001e-05")).total() == Fraction("1.0000001e-05")
    text = "rank 2\nradius 1\n" + line.format(NON_ASCII_NUMBERS[case])

    def unreachable(*args):
        raise AssertionError("Fraction read a number that is not ASCII")

    monkeypatch.setattr("subsetcurrents.stallings.Fraction", unreachable)
    with pytest.raises(FileFormatError, match="bad rational"):
        table_from_text(text)
    path = tmp_path / "t.txt"
    path.write_text(text, encoding="utf-8")
    for argv in (["realize", str(path), "--outdir", str(tmp_path / "out")],
                 ["approx", str(path)]):
        assert main(argv) == 2


# int() reads a sign and spaces, but an integer is spelled as in a file
# header: '+2' and ' 2' are no integers.  An --ns item is stripped first.
SIGNED_OR_SPACED = {"plus": "+2", "space": " 2"}


@pytest.mark.parametrize("flag, case", [
    (flag, case) for flag in ("--coeffs", "--epsilon", "--ns", "--radius",
                              "--rank")
    for case in NON_ASCII_NUMBERS] + [
    (flag, case) for flag in ("--radius", "--rank")
    for case in SIGNED_OR_SPACED] + [("--ns", "plus")])
def test_a_number_flag_is_an_ascii_number(tmp_path, capsys, flag, case):
    # Refused as a non-number in its place is: a value of --coeffs,
    # --epsilon or --ns exits 1, and an argparse type error exits 2.
    sub = write_sub(tmp_path, "x.txt", ["x"])
    table = tmp_path / "t.txt"
    table.write_text("rank 2\nradius 1\ne,x,X,y,Y = 1\n")
    argvs = {"--coeffs": ["cylinders", str(sub), "--radius", "1"],
             "--epsilon": ["approx", str(table)],
             "--ns": ["converge", "--radius", "1"],
             "--radius": ["converge", "--ns", "2"],
             "--rank": ["enumerate", "--radius", "1"]}

    def exit_code(value):
        try:
            return main(argvs[flag] + [flag, value])
        except SystemExit as exc:
            return exc.code

    code = 2 if flag in ("--radius", "--rank") else 1
    value = {**NON_ASCII_NUMBERS, **SIGNED_OR_SPACED}[case]
    assert exit_code(value) == exit_code("q") == code
    assert capsys.readouterr().out == ""
    # A plain integer is read, and an --ns item is stripped.
    assert exit_code("2, 4" if flag == "--ns" else "2") == 0


def test_realize_refuses_a_total_past_the_digit_cap(tmp_path, capsys):
    # Each weight has 4,300 digits and the two make 2 atoms over their
    # gcd, but the total, printed in the report, has 4,301: it is refused
    # before the output directory is made.
    table = tmp_path / "table.txt"
    table.write_text("rank 2\nradius 1\ne,x,X,y,Y = 9e4299\ne,x,X = 9e4299\n")
    outdir = tmp_path / "out"
    assert main(["realize", str(table), "--outdir", str(outdir)]) == 1
    assert "the cap of 4300 digits" in one_line_refusal(capsys)
    assert not outdir.exists()


def test_computed_values_past_the_digit_cap_are_refused(tmp_path, capsys):
    # Each number read has at most 4,300 digits, but a value computed from
    # them can have one more: the subgroup <xx> has two hull vertices with
    # one ball, and a table may list one round-graph twice.
    sub = write_sub(tmp_path, "xx.txt", ["xx"])
    assert main(["cylinders", str(sub), "--radius", "1",
                 "--coeffs", "9e4299"]) == 1
    assert "cap of 4300 digits" in one_line_refusal(capsys)
    table = tmp_path / "table.txt"
    table.write_text("rank 2\nradius 1\n" + "e,x,X,y,Y = 9e4299\n" * 2)
    assert main(["approx", str(table)]) == 1
    assert "cap of 4300 digits" in one_line_refusal(capsys)
    # One digit fewer is printed in full.
    assert main(["cylinders", str(sub), "--radius", "1",
                 "--coeffs", "4e4299"]) == 0
    assert "= 8" + "0" * 4299 + "\n" in capsys.readouterr().out


def test_a_kernel_gap_past_the_digit_cap_is_a_named_error(tmp_path, capsys):
    # Both weights are read, but the gap between the table and its nearest
    # kernel point has more digits than str() prints: the message names
    # the tolerance, not the gap.
    table = tmp_path / "table.txt"
    table.write_text("rank 2\nradius 1\ne,x,Y = 9e4299\ne,X,y = 0.5\n")
    start = time.perf_counter()
    assert main(["approx", str(table)]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: no kernel point within 1/1000 of the target\n"


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # A round-graph hashes its key bytes, whose hash is seeded per
    # process, so a set of round-graphs iterates in a different order
    # under each seed; `cylinders`, `realize` and `approx` must print the
    # same bytes, and `realize` write the same files, under any seed.
    subs = [write_sub(tmp_path, f"s{k}.txt", gens) for k, gens in
            enumerate((["xy", "xY"], ["xxy", "yX"], ["xyxY", "yy"]))]
    current = RationalCurrent([(1, subgroup_from_text(path.read_text()))
                               for path in subs])
    table = tmp_path / "table.txt"
    table.write_text(table_to_text(cylinder_table(current, 2)))
    noisy = tmp_path / "noisy.txt"
    exact = cylinder_table(current.scale(Fraction(1, 3)), 2)
    noisy.write_text("rank 2\nradius 2\n" + "".join(
        f"{round_graph_to_text(t)} = {value!r}\n"
        for t, value in noised_floats(exact, random.Random(1)).items()))
    src = str(Path(subsetcurrents.__file__).parents[1])
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"out{seed}"
        script = (
            "import sys\n"
            "from subsetcurrents.cli import main\n"
            f"main(['cylinders', *{[str(p) for p in subs]!r}, "
            "'--radius', '2'])\n"
            f"main(['realize', {str(table)!r}, '--outdir', {str(out)!r}])\n"
            f"main(['approx', {str(noisy)!r}, '--epsilon', '1/100'])\n")
        run = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, check=True,
                             env={**os.environ, "PYTHONPATH": src,
                                  "PYTHONHASHSEED": seed})
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert b"# matching: ok" in run.stdout and len(files) > 2
        outputs.append((run.stdout, files))
    assert outputs[0] == outputs[1]


# Pieces a mutation splices into a valid file: letters in and out of the
# basis, exponents, header names, rational and integer syntax, numbers
# past the digit cap, and digits int() reads but the readers refuse.
PIECES = ["x", "Y", "z", "e", "^", "^-", "^9", "-", "0", "1", "9", "/", ".",
          ",", "=", " = ", "#", " ", "\n", "\t", "g", "g3", "rank ",
          "radius ", "vertices ", "basepoint ", "none", "edge ", "e,x,X",
          "1/0", "1e-9", "9e99", "9" * 4301, "\u00b2", "\u0661", "_"]


@st.composite
def mutated(draw, kind: str) -> str:
    """The valid `kind` file of FILES under one to three mutations: a
    piece spliced in, a few characters cut, or a line dropped or
    repeated."""
    header, body = FILES[kind]
    text = "\n".join(header + body) + "\n"
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["splice", "cut", "drop", "repeat"]))
        if op == "splice":
            text = text[:i] + draw(st.sampled_from(PIECES)) + text[i:]
        elif op == "cut":
            text = text[:i] + text[i + draw(st.integers(1, 3)):]
        else:
            lines = text.splitlines(keepends=True) or [""]
            k = i % len(lines)
            lines[k:k + 1] = [] if op == "drop" else [lines[k]] * 2
            text = "".join(lines)
    return text


def flag(*valid: str):
    """A flag value: one of `valid`, or a value that is no number in
    range, too long to read, or not ASCII."""
    return st.sampled_from([*valid, "-1", "q", "", "1/0", "9" * 4301,
                            "\u00b2", "\u0661", "1_0"])


# A failure is shrunk and reported alone: shrinking every distinct one
# through fresh `main` calls took minutes.
@settings(deadline=None, max_examples=250, report_multiple_bugs=False,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sub=mutated("subgroup"), table=mutated("table"),
       graph=mutated("graph"), data=st.data())
def test_every_subcommand_ends_in_an_exit_code_and_one_error_line(
        tmp_path, sub, table, graph, data):
    # Bad input ends in a named error with its exit code, never a
    # traceback: 0 prints no error, and 1 or 2 exactly one `error:` line.
    # argparse refuses a flag value of the wrong type itself, with its
    # usage and one `subcur <command>: error:` line, by SystemExit(2).
    s, t = str(tmp_path / "sub.txt"), str(tmp_path / "table.txt")
    Path(s).write_text(sub, encoding="utf-8")
    Path(t).write_text(table, encoding="utf-8")
    out, graph_out = tmp_path / "out", str(tmp_path / "graph.txt")
    radius = flag("0", "1", "2")
    argv = data.draw(st.one_of(
        st.tuples(st.sampled_from(["rank", "index"]), st.just(s)),
        st.tuples(st.just("member"), st.just(s), st.just("--word"),
                  flag("xy", "x^-3", "z", "x^99999999")),
        st.tuples(st.just("intersect"), st.just(s), st.just(s),
                  st.just("--export"), st.just(str(out / "comp"))),
        st.tuples(st.just("cylinders"), st.just(s), st.just(s),
                  st.just("--radius"), radius, st.just("--coeffs"),
                  flag("1,1", "1/2,3", "1e-9,0")),
        st.tuples(st.just("enumerate"), st.just("--radius"), radius,
                  st.just("--rank"), flag("1", "2", "3", "26")),
        st.tuples(st.just("realize"), st.just(t), st.just("--outdir"),
                  st.just(str(out))),
        st.tuples(st.just("approx"), st.just(t), st.just("--epsilon"),
                  flag("1/1000", "0", "1/2")),
        st.tuples(st.just("converge"), st.just("--radius"), radius,
                  st.just("--ns"), flag("2,4", "3", "0", "96")),
        st.sampled_from([("export", s, "--out", graph_out),
                         ("export", s, "--out", graph_out, "--hull")])))
    out.mkdir(exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            assert exc.code == 2
            assert stderr.getvalue().startswith("usage: subcur")
            code = None
    lines = stderr.getvalue().splitlines()
    if code is None:
        assert [line for line in lines if "error: " in line] == [
            lines[-1]] and lines[-1].startswith(f"subcur {argv[0]}: error: ")
    elif code == 0:
        assert lines == []
    else:
        assert code in (1, 2)
        assert len(lines) == 1 and lines[0].startswith("error: ")
    # A graph file is read by the library alone: its only error is a
    # format error.
    try:
        graph_from_text(graph)
    except FileFormatError:
        pass
