import csv
import json
import math
import shutil
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from favardlab import intervals, projection, serialize
from favardlab.cli import build_parser, main
from favardlab.dimension import cover_stats
from favardlab.favard import check_convexity
from favardlab.ifs import (IFS2D, Similitude2D, dump_config, four_corner,
                           sierpinski_gasket)
from favardlab.intervals import rational_str
from favardlab.projection import Direction, iter_generations

from oracles import reference_generations_csv, reference_interval_csv


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def strict_json(text):
    """Parse JSON text, refusing the non-standard NaN, Infinity and
    -Infinity that ``json.dumps`` writes unless ``allow_nan=False``."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture(autouse=True)
def json_is_strict(tmp_path):
    """Every JSON file a test writes under its tmp_path is strict JSON."""
    yield
    for path in tmp_path.rglob("*.json"):
        strict_json(path.read_text())


@pytest.fixture
def overlap_config(tmp_path):
    # ratio sum 1 and nesting hold, but alpha decays too fast for the
    # n=3 window bound: the one honest exit-3 certificate input
    pair = IFS2D("overlap-pair",
                 (Similitude2D.of(Fraction(1, 2), 0, 0),
                  Similitude2D.of(Fraction(1, 2), Fraction(1, 4), 0)),
                 (0, 0, 1, 1))
    path = tmp_path / "pair.cfg"
    dump_config(pair, path)
    return str(path)


@pytest.fixture
def off_base_config(tmp_path):
    # ratio sum 1, but the first and last images leave the unit square, so
    # the convexity theorem does not cover this system
    ifs = IFS2D("off-base", tuple(
        Similitude2D.of(Fraction(1, 3), dx, dy)
        for dx, dy in ((Fraction(-1, 4), 1), (Fraction(-1, 8), 0),
                       (Fraction(7, 8), Fraction(-1, 4)))),
        (0, 0, 1, 1))
    path = tmp_path / "off-base.cfg"
    dump_config(ifs, path)
    return str(path)


class TestExitCodes:
    def test_usage_no_subcommand(self, capsys):
        assert run() == 2
        capsys.readouterr()

    def test_usage_missing_source(self, capsys):
        assert run("alpha", "--slope", "1/2") == 2
        capsys.readouterr()

    def test_usage_bad_slope(self, capsys):
        assert run("alpha", "--preset", "four-corner",
                   "--slope", "not-a-slope") == 2
        assert "error:" in capsys.readouterr().err

    def test_usage_unknown_preset(self, capsys):
        assert run("validate", "--preset", "no-such-set") == 2
        capsys.readouterr()

    def test_usage_missing_config_file(self, capsys):
        assert run("validate", "--config", "/nonexistent/x.cfg") == 2
        capsys.readouterr()

    def test_usage_malformed_config_writes_manifest(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("name = x\nbase = [0, 0, 1]\n")
        out = tmp_path / "out"
        assert run("validate", "--config", str(path), "--out", str(out)) == 2
        assert "line 2: base needs" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 2
        assert manifest["error"] == "line 2: base needs [x0, y0, x1, y1]"
        assert manifest["parameters"]["config"] == str(path)

    @pytest.mark.parametrize("maps", [
        (Similitude2D.of(Fraction(1, 4), 0, 0),
         Similitude2D.of(Fraction(1, 4), Fraction(3, 4), Fraction(3, 4))),
        sierpinski_gasket().maps,
    ], ids=["diagonal-pair", "gasket"])
    def test_usage_false_dihedral_claim(self, maps, tmp_path, capsys):
        # symmetry is detected from the maps; the old claim line is an
        # unknown key, reported with its line number
        path = tmp_path / "claim.cfg"
        dump_config(IFS2D("claim", maps, (0, 0, 1, 1)), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + ["symmetry = dihedral"]) + "\n")
        assert run("favard", "--config", str(path), "--n", "2") == 2
        assert (f"line {len(lines) + 1}: unknown key 'symmetry'"
                in capsys.readouterr().err)

    def test_usage_points_file_with_seesaw(self, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        pts.write_text("0\n1/2\n")
        assert run("counterexample", "--points-file", str(pts),
                   "--seesaw", "0,1/4,5") == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_usage_certificate_gasket(self, capsys):
        # ratio sum 3/2 violates the certificate precondition
        assert run("certificate", "--preset", "sierpinski-gasket",
                   "--n", "1") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["alpha", "convexity", "cover"])
    def test_usage_angle_with_chart(self, command, capsys):
        extra = ["--radius", "1/64"] if command == "cover" else []
        assert run(command, "--preset", "four-corner", "--angle", "1.2",
                   "--chart", "x", *extra) == 2
        assert "--chart" in capsys.readouterr().err

    def test_usage_needle_nan_strip(self, capsys):
        assert run("needle", "--preset", "four-corner", "--n", "1",
                   "--strip-halfwidth", "nan") == 2
        assert "error:" in capsys.readouterr().err

    def test_usage_alpha_float_backend(self, capsys):
        # a Direction is answered exactly; float angles are favard's,
        # lipschitz's and dimension's
        assert run("alpha", "--preset", "four-corner", "--slope", "1/3",
                   "--backend", "float") == 2
        assert "invalid choice: 'float'" in capsys.readouterr().err

    def test_usage_needle_has_no_backend(self, capsys):
        # the needle is float geometry only; --backend used to be ignored
        assert run("needle", "--preset", "four-corner", "--n", "1",
                   "--trials", "10", "--backend", "exact") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("favard", "--n", "1"),
        ("convexity", "--slope", "2/7"),
        ("certificate", "--n", "1"),
        ("special-angle", "--slope", "1/2"),
        ("cover", "--slope", "0", "--radius", "1/16"),
        ("validate",),
        ("lipschitz", "--nodes", "10"),
        ("dimension",),
    ], ids=lambda argv: argv[0])
    def test_usage_backend_rejected(self, argv, capsys):
        # every subcommand but alpha runs on one backend; favard's exact mode
        # certified nothing, and float convexity margins failed the exact
        # claim at 2/7 on rounding alone
        assert run(*argv, "--preset", "four-corner",
                   "--backend", "exact") == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["nan,1", "0,inf", "-inf,0.5"])
    def test_usage_dimension_non_finite_window(self, window, capsys):
        # "=" keeps argparse from reading "-inf,0.5" as an option
        assert run("dimension", "--preset", "four-corner",
                   f"--window={window}") == 2
        assert "window must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("alpha", "--angle", "inf"),
        ("alpha", "--angle", "nan"),
        ("dimension", "--window", "1"),
        ("dimension", "--window=0,1,2"),
        ("dimension", "--scale-base", "0"),
        ("dimension", "--scale-base", "1"),
        ("dimension", "--scale-base", "1/0"),
    ], ids=" ".join)
    def test_usage_error_names_the_flag(self, argv, capsys):
        # no numpy RuntimeWarning either: the checks run before any numpy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv[0], "--preset", "four-corner", *argv[1:]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {argv[1].split('=')[0]}")

    @pytest.mark.parametrize("argv", [
        ("alpha", "--preset", "four-corner", "--slope", "x"),
        ("special-angle", "--preset", "four-corner", "--slope", "x"),
        ("certificate", "--preset", "four-corner", "--n", "1",
         "--slope", "1/0"),
        ("cover", "--preset", "four-corner", "--slope", "0",
         "--radius", "1/0"),
        ("cover", "--preset", "four-corner", "--slope", "0",
         "--radius", "1/64", "--exponents", "x"),
        ("cover", "--preset", "four-corner", "--slope", "0",
         "--radius", "1/64", "--exponents", ","),
        ("dimension", "--preset", "four-corner", "--scales", "1/0"),
        ("dimension", "--preset", "four-corner", "--scales", ","),
        ("dimension", "--preset", "four-corner", "--scale-base", "x"),
        ("counterexample", "--base", "x"),
        ("counterexample", "--seesaw", "0,x,5"),
        ("counterexample", "--seesaw", "0,1/4"),
    ], ids=lambda argv: " ".join((argv[0], *argv[-2:])))
    def test_usage_malformed_rational_names_the_flag(self, argv, tmp_path,
                                                     capsys):
        # these used to fail with the bare Fraction message, such as
        # "Fraction(1, 0)", which names no flag; an empty list or a seesaw
        # stage of two values names the flag and the form
        flag, value = argv[-2:]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {flag} must be rational")
        assert captured.out == ""
        # the manifest keeps the option as given, next to the error
        assert run(*argv, "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.splitlines() == err
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == 2
        assert manifest["error"] == err[0].removeprefix("error: ")
        assert manifest["parameters"][flag[2:].replace("-", "_")] == value

    def test_dimension_negative_window(self, capsys):
        # "--window -0.5,0.5" would read as an option; the help says "="
        assert run("dimension", "--preset", "four-corner",
                   "--window=-0.5,0.5", "--scale-base", "4",
                   "--depth-min", "2", "--depth-max", "4",
                   "--panels", "2", "--order", "8") == 0
        assert "fitted dim estimate" in capsys.readouterr().out

    def test_claim_certificate_fails(self, overlap_config, tmp_path, capsys):
        assert run("certificate", "--config", overlap_config, "--n", "3",
                   "--grid", "16", "--out", str(tmp_path)) == 3
        assert "FAIL" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == 3
        assert manifest["error"] is None

    def test_certificate_passes_small_n(self, overlap_config, capsys):
        assert run("certificate", "--config", overlap_config, "--n", "1",
                   "--grid", "16") == 0
        capsys.readouterr()

    def test_claim_convexity_gate(self, monkeypatch, capsys):
        broken = check_convexity([0, 2, 0])
        assert not broken.convex
        monkeypatch.setattr("favardlab.cli.check_convexity",
                            lambda seq: broken)
        assert run("convexity", "--preset", "four-corner",
                   "--slope", "1/2", "--depth", "3") == 3
        assert "NOT convex" in capsys.readouterr().out

    def test_gasket_convexity_exploratory_exit_zero(self, capsys):
        # hypothesis fails, so non-convexity would not be a broken claim
        assert run("convexity", "--preset", "sierpinski-gasket",
                   "--slope", "1/3", "--depth", "4") == 0
        assert "exploratory" in capsys.readouterr().out

    def test_off_base_convexity_is_exploratory(self, off_base_config, capsys):
        # ratio sum 1 alone used to count as the hypothesis and exit 3 here
        assert run("convexity", "--config", off_base_config,
                   "--slope", "0", "--depth", "7") == 0
        assert "(exploratory: nesting fails)" in capsys.readouterr().out

    def test_off_base_validate(self, off_base_config, capsys):
        assert run("validate", "--config", off_base_config) == 0
        out = capsys.readouterr().out
        assert "ratio sum 1 (convexity hypothesis fails), nesting FAILS" in out

    def test_off_base_certificate_refused(self, off_base_config, capsys):
        assert run("certificate", "--config", off_base_config, "--n", "2") == 2
        assert "nesting fails" in capsys.readouterr().err

    def test_computation_unconverged_favard(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("favard", "--preset", "four-corner", "--n", "1",
                   "--tol", "1e-30", "--refinements", "1",
                   "--out", str(out)) == 1
        payload = json.loads((out / "favard.json").read_text())
        assert payload["status"] == "unconverged"
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 1
        capsys.readouterr()

    def test_no_refinement_error_bar_is_strict_json(self, tmp_path, capsys):
        # with no refinement there is no error estimate: the bar is inf,
        # written as the text "inf" the CSVs get, not as bare Infinity
        out = tmp_path / "o"
        assert run("favard", "--preset", "four-corner", "--n", "1",
                   "--refinements", "0", "--out", str(out)) == 1
        payload = strict_json((out / "favard.json").read_text())
        assert (payload["error"], payload["status"]) == ("inf", "unconverged")
        assert "+- inf" in capsys.readouterr().out

    def test_json_writes_non_finite_floats_as_text(self, tmp_path):
        payload = {"a": [math.inf, -math.inf], "b": math.nan, "c": 0.5}
        serialize.write_json(tmp_path / "x.json", payload)
        assert strict_json((tmp_path / "x.json").read_text()) == {
            "a": ["inf", "-inf"], "b": "nan", "c": 0.5}

    def test_computation_size_cap(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(projection, "MAX_COUNT", 10)
        argv = ("alpha", "--preset", "four-corner", "--slope", "355/452",
                "--depth", "8")
        assert run(*argv, "--out", str(tmp_path)) == 1
        assert "exceeds cap" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == 1
        assert "exceeds cap" in manifest["error"]
        # a manifest that cannot be written keeps the exit code of the run
        blocked = tmp_path / "manifest.json"
        assert run(*argv, "--out", str(blocked)) == 1
        capsys.readouterr()

    def test_usage_error_writes_manifest(self, tmp_path, capsys):
        assert run("alpha", "--preset", "four-corner", "--slope", "1/3",
                   "--depth", "-1", "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert "generation index" in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == 2
        assert "generation index" in manifest["error"]
        assert manifest["parameters"]["depth"] == -1

    @pytest.mark.parametrize("argv", [
        ("favard", "--n", "1"),
        ("lipschitz", "--nodes", "101"),
        ("dimension",),
    ], ids=lambda argv: argv[0])
    def test_usage_threads_rejected(self, argv, capsys):
        assert run(*argv, "--preset", "four-corner", "--threads", "2") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("favard", "--n", "-1"),
        ("alpha", "--slope", "1/3", "--depth", "-1"),
        ("favard", "--n", "1", "--panels", "0"),
        ("dimension", "--panels", "0"),
    ], ids=["favard-n", "alpha-depth", "favard-panels", "dimension-panels"])
    def test_usage_empty_index_or_rule(self, argv, capsys):
        # a negative generation or an empty quadrature rule used to run and
        # print generation 0, or a false "converged" at 0 panels
        assert run(*argv, "--preset", "four-corner") == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ("alpha", "--slope", "1/3", "--depth", "3", "--generations"),
        ("cover", "--slope", "1/3", "--radius", "1/64", "--intervals"),
    ], ids=lambda argv: argv[0])
    def test_usage_file_flag_without_out(self, argv, monkeypatch, capsys):
        # the flag only adds a file, so without --out it would do nothing;
        # the run stops before computing anything
        def boom(*args, **kwargs):
            raise AssertionError("computed despite the usage error")

        monkeypatch.setattr("favardlab.cli.preset", boom)
        assert run(*argv, "--preset", "four-corner") == 2
        captured = capsys.readouterr()
        assert f"{argv[-1]} writes a file, so it needs --out" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("option", [
        ("--tol", "-1"), ("--tol", "nan"), ("--tol", "0"), ("--tol", "inf"),
        ("--refinements", "-1"),
    ], ids=["tol-negative", "tol-nan", "tol-zero", "tol-inf", "refinements-negative"])
    def test_usage_bad_quadrature_settings(self, option, capsys):
        # these used to run every refinement and exit 1 "unconverged", or
        # print "+- inf" for a negative refinement count; an infinite tol
        # passed any error bar and exited 0 "converged"
        assert run("favard", "--preset", "four-corner", "--n", "1", *option) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_version_exits_zero(self, capsys):
        assert run("--version") == 0
        capsys.readouterr()


# Each JSON file is its report's fields, some left out or renamed, plus a
# few extras; a report field added later changes these only on purpose.
JSON_KEYS = {
    "favard.json": (
        ("favard", "--preset", "four-corner", "--n", "0"),
        {"n", "value", "error", "status", "nodes", "panels",
         "tol", "panel_order"}),
    "certificate.json": (
        ("certificate", "--preset", "four-corner", "--n", "1", "--grid", "8"),
        {"n", "special_slope", "window_center", "window_halfwidth",
         "claimed_bound", "status", "witness", "grid_count"}),
    "special_angle.json": (
        ("special-angle", "--preset", "four-corner", "--slope", "1/2"),
        {"chart", "slope", "tiles", "defect", "pieces", "base_measure"}),
    "lipschitz.json": (
        ("lipschitz", "--preset", "four-corner", "--nodes", "11"),
        {"nodes", "spacing", "sup_slope", "argmin_theta", "min_value",
         "zeros", "nonnegative"}),
    "fit.json": (
        ("dimension", "--preset", "four-corner", "--depth-max", "5",
         "--panels", "2", "--order", "8"),
        {"s", "C", "residual", "dim_bound", "records"}),
    "cover.json": (
        ("cover", "--preset", "four-corner", "--slope", "0",
         "--radius", "1/64"),
        {"r", "depth", "count", "min_length", "min_length_sheared",
         "measure", "holder_sums", "q_values", "floor_ok",
         "count_ceiling_ok"}),
    "needle.json": (
        ("needle", "--preset", "four-corner", "--n", "1", "--trials", "10"),
        {"estimate", "se", "hits", "trials", "tests", "seed", "generation",
         "strip_halfwidth"}),
    "validate.json": (
        ("validate", "--preset", "four-corner"),
        {"ratio_sum", "ratio_sum_is_one", "convexity_applies", "nesting",
         "branching", "cylinder_counts"}),
}


class TestOutputs:
    def test_alpha_files_and_schema(self, tmp_path, capsys):
        out = tmp_path / "alpha"
        assert run("alpha", "--preset", "four-corner", "--slope", "1/2",
                   "--depth", "4", "--generations", "--backend", "exact",
                   "--out", str(out)) == 0
        header, rows = read_csv(out / "alpha.csv")
        assert header == ["n", "slope", "sheared", "true"]
        assert len(rows) == 5
        assert rows[0][1] == "1/2"
        assert Fraction(rows[0][2]) == Fraction(3, 2)
        # t=1/2 tiles, so every sheared measure stays 3/2
        assert all(Fraction(r[2]) == Fraction(3, 2) for r in rows)
        scale = 1 / math.sqrt(1.25)
        assert float(rows[0][3]) == pytest.approx(1.5 * scale)

        gheader, grows = read_csv(out / "generations.csv")
        assert gheader == ["n", "chart", "slope", "lo", "hi"]
        assert grows[0] == ["0", "x", "1/2", "0", "3/2"]
        by_n = {}
        for r in grows:
            by_n.setdefault(int(r[0]), []).append(
                (Fraction(r[3]), Fraction(r[4])))
        assert set(by_n) == {0, 1, 2, 3, 4}
        for n, pairs in by_n.items():
            assert sum(hi - lo for lo, hi in pairs) == Fraction(3, 2)

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "alpha"
        assert manifest["parameters"]["snapped_slope"] == "1/2"
        assert manifest["backend"] == "exact"
        assert manifest["wall_time_s"] >= 0
        capsys.readouterr()

    def test_angle_is_snapped_to_rational(self, tmp_path, capsys):
        out = tmp_path / "snap"
        theta = math.atan(0.5)
        assert run("alpha", "--preset", "four-corner",
                   "--angle", str(theta), "--depth", "2",
                   "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["snapped_slope"] == "1/2"
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["alpha", "convexity", "cover"])
    def test_angle_keeps_requested_chart(self, command, tmp_path, capsys):
        # 1.2 rad lies past pi/4, so the direction used is in chart y
        out = tmp_path / command
        extra = ["--radius", "1/64"] if command == "cover" else []
        assert run(command, "--preset", "four-corner", "--angle", "1.2",
                   *extra, "--out", str(out)) == 0
        params = json.loads((out / "manifest.json").read_text())["parameters"]
        assert params["chart"] is None
        assert params["angle"] == 1.2
        assert params["direction"].startswith("y:")
        assert params["direction"] == "y:" + params["snapped_slope"]
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ("alpha", "--preset", "four-corner", "--slope", "1/3", "--depth", "3",
         "--backend", "exact"),
        ("convexity", "--preset", "four-corner", "--angle", "0.3",
         "--depth", "4"),
        ("favard", "--preset", "four-corner", "--n", "1"),
        ("certificate", "--preset", "four-corner", "--n", "1", "--grid", "8"),
        ("special-angle", "--preset", "four-corner", "--slope", "1/2"),
        ("lipschitz", "--preset", "four-corner", "--nodes", "101"),
        ("dimension", "--preset", "sparse-corner(8)", "--depth-max", "5",
         "--panels", "2", "--order", "8"),
        ("cover", "--preset", "four-corner", "--slope", "1/3",
         "--radius", "1/64", "--intervals"),
        ("counterexample", "--seesaw", "0,1/4,5;20,1/64,3"),
        ("needle", "--preset", "four-corner", "--n", "1", "--trials", "100"),
        ("validate", "--preset", "sierpinski-gasket"),
    ], ids=lambda argv: argv[0])
    def test_manifests_repeat_but_for_wall_time(self, argv, tmp_path, capsys):
        manifests = []
        for _ in range(2):
            assert run(*argv, "--out", str(tmp_path)) == 0
            manifest = json.loads((tmp_path / "manifest.json").read_text())
            assert not {"handler", "spec"} & manifest["parameters"].keys()
            assert manifest["subcommand"] == argv[0]
            assert (manifest["exit_code"], manifest["error"]) == (0, None)
            assert manifest.pop("wall_time_s") >= 0
            manifests.append(manifest)
        assert manifests[0] == manifests[1]
        capsys.readouterr()

    def test_convexity_files(self, tmp_path, capsys):
        out = tmp_path / "cvx"
        assert run("convexity", "--preset", "four-corner", "--slope", "1/3",
                   "--depth", "5", "--out", str(out)) == 0
        header, rows = read_csv(out / "convexity.csv")
        assert header == ["k", "margin"]
        assert len(rows) == 4
        assert all(Fraction(r[1]) >= 0 for r in rows)
        capsys.readouterr()

    def test_favard_json(self, tmp_path, capsys):
        out = tmp_path / "fav"
        assert run("favard", "--preset", "four-corner", "--n", "0",
                   "--out", str(out)) == 0
        payload = json.loads((out / "favard.json").read_text())
        assert payload["status"] == "converged"
        assert payload["value"] == pytest.approx(8.0, abs=1e-4)
        assert payload["error"] < 1e-6
        capsys.readouterr()

    def test_certificate_files(self, tmp_path, capsys):
        out = tmp_path / "cert"
        assert run("certificate", "--preset", "four-corner", "--n", "2",
                   "--grid", "32", "--out", str(out)) == 0
        header, rows = read_csv(out / "certificate.csv")
        assert header == ["slope", "alpha0", "alpha1", "L", "pass"]
        assert len(rows) == 32
        assert all(r[4] == "true" for r in rows)
        payload = json.loads((out / "certificate.json").read_text())
        assert payload["status"] == "pass"
        assert payload["claimed_bound"] == pytest.approx(1 / 80)
        assert payload["witness"] is None
        capsys.readouterr()

    def test_special_angle(self, tmp_path, capsys):
        out = tmp_path / "sp"
        assert run("special-angle", "--preset", "four-corner",
                   "--slope", "1/2", "--out", str(out)) == 0
        payload = json.loads((out / "special_angle.json").read_text())
        assert payload["tiles"] is True
        assert payload["defect"] == "0"
        assert "special angle x:1/2: generation 1 tiles" in capsys.readouterr().out

    def test_special_angle_names_its_chart(self, tmp_path, capsys):
        """Slope 5 is measured as slope 1/5 in chart y, and the printed
        line and special_angle.json say so: their defect and base measure
        are the sheared lengths of generations 0 and 1 at y:1/5."""
        out = tmp_path / "sp"
        assert run("special-angle", "--preset", "four-corner",
                   "--slope", "5", "--out", str(out)) == 0
        g0, g1 = iter_generations(four_corner(), Direction("y", Fraction(1, 5)), 1)
        payload = json.loads((out / "special_angle.json").read_text())
        assert payload == {"chart": "y", "slope": "1/5", "tiles": False,
                           "defect": rational_str(g0.measure - g1.measure),
                           "pieces": g1.count,
                           "base_measure": rational_str(g0.measure)}
        assert (payload["defect"], payload["base_measure"]) == ("3/10", "6/5")
        assert capsys.readouterr().out.startswith(
            "special angle y:1/5: generation 1 does not tile, defect 3/10")

    def test_lipschitz_files(self, tmp_path, capsys):
        out = tmp_path / "lip"
        assert run("lipschitz", "--preset", "four-corner",
                   "--nodes", "401", "--out", str(out)) == 0
        header, rows = read_csv(out / "lipschitz.csv")
        assert header == ["theta", "g"]
        assert len(rows) == 401
        payload = json.loads((out / "lipschitz.json").read_text())
        assert payload["nonnegative"] is True
        assert payload["sup_slope"] < 10.5
        capsys.readouterr()

    def test_dimension_files(self, tmp_path, capsys):
        out = tmp_path / "dim"
        assert run("dimension", "--preset", "sparse-corner(8)",
                   "--depth-min", "3", "--depth-max", "5",
                   "--panels", "2", "--order", "8",
                   "--out", str(out)) == 0
        header, rows = read_csv(out / "decay.csv")
        assert header == ["r", "total", "slope_so_far"]
        assert len(rows) == 3
        assert rows[0][2] == "" and rows[2][2] != ""
        payload = json.loads((out / "fit.json").read_text())
        assert len(payload["records"]) == 3
        assert all(rec.keys() == {"r", "total", "depth", "total_shallower",
                                  "total_deeper"} for rec in payload["records"])
        assert payload["dim_bound"] == pytest.approx(1 - payload["s"])
        assert 0 < payload["s"] < 1
        capsys.readouterr()

    def test_cover_files(self, tmp_path, capsys):
        out = tmp_path / "cov"
        assert run("cover", "--preset", "four-corner", "--slope", "0",
                   "--radius", "1/128", "--exponents", "1/2,3/4",
                   "--intervals", "--out", str(out)) == 0
        header, rows = read_csv(out / "cover.csv")
        assert header == ["r", "count", "min_length", "p", "holder_sum"]
        assert [r[3] for r in rows] == ["1/2", "3/4"]
        payload = json.loads((out / "cover.json").read_text())
        assert payload["floor_ok"] is True
        iheader, irows = read_csv(out / "intervals.csv")
        assert iheader == ["lo", "hi"]
        assert int(payload["count"]) == len(irows)
        capsys.readouterr()

    def test_counterexample_default_lattice(self, tmp_path, capsys):
        out = tmp_path / "ce"
        assert run("counterexample", "--out", str(out)) == 0
        header, rows = read_csv(out / "neighborhood.csv")
        assert header == ["n", "measure"]
        assert [r[1] for r in rows] == \
            ["102", "201/2", "401/8", "401/32", "401/128"]
        payload = json.loads((out / "counterexample.json").read_text())
        assert payload["convex"] is False
        assert payload["first_violation"] == 1
        assert "NOT convex" in capsys.readouterr().out

    def test_counterexample_too_short_for_a_verdict(self, tmp_path, capsys):
        out = tmp_path / "short"
        assert run("counterexample", "--n-max", "1", "--out", str(out)) == 0
        assert "sequence too short for a verdict" in capsys.readouterr().out
        assert not (out / "convexity.csv").exists()
        payload = json.loads((out / "counterexample.json").read_text())
        assert payload["convex"] is None
        assert payload["first_violation"] is None
        assert len(payload["sequence"]) == 2

    def test_counterexample_seesaw(self, tmp_path, capsys):
        out = tmp_path / "ss"
        assert run("counterexample", "--seesaw", "0,1/4,5;20,1/64,3",
                   "--n-max", "5", "--out", str(out)) == 0
        header, rows = read_csv(out / "convexity.csv")
        signs = [1 if Fraction(r[1]) > 0 else -1 for r in rows]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes >= 2
        capsys.readouterr()

    def test_counterexample_points_file(self, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        pts.write_text("# two points\n0\n1/2\n")
        out = tmp_path / "pf"
        assert run("counterexample", "--points-file", str(pts),
                   "--base", "2", "--n-max", "3", "--out", str(out)) == 0
        _, rows = read_csv(out / "neighborhood.csv")
        # n=0 radius is 1: [-1, 1] u [-1/2, 3/2] has measure 5/2
        assert Fraction(rows[0][1]) == Fraction(5, 2)
        # n=1 radius 1/2: [-1/2, 1] exactly
        assert Fraction(rows[1][1]) == Fraction(3, 2)
        capsys.readouterr()

    def test_needle_json(self, tmp_path, capsys):
        payloads = []
        for name in ("ndl", "ndl-replay"):
            out = tmp_path / name
            assert run("needle", "--preset", "four-corner", "--n", "1",
                       "--trials", "20000", "--seed", "7",
                       "--out", str(out)) == 0
            payloads.append(json.loads((out / "needle.json").read_text()))
        payload, replay = payloads
        assert payload["trials"] == 20000
        assert payload["seed"] == 7
        assert payload["hits"] > 0
        assert payload["estimate"] == pytest.approx(6.6, abs=0.5)
        assert payload["tests"] >= payload["trials"]
        assert replay["tests"] == payload["tests"]
        assert replay["hits"] == payload["hits"]
        capsys.readouterr()

    def test_validate_json(self, tmp_path, capsys):
        out = tmp_path / "val"
        assert run("validate", "--preset", "four-corner",
                   "--out", str(out)) == 0
        payload = json.loads((out / "validate.json").read_text())
        assert payload["ratio_sum"] == "1"
        assert payload["nesting"] == "pass"
        assert payload["convexity_applies"] is True
        assert "nesting_checks" not in payload
        capsys.readouterr()

    @pytest.mark.parametrize("name", JSON_KEYS)
    def test_json_key_sets(self, name, tmp_path, capsys):
        argv, keys = JSON_KEYS[name]
        assert run(*argv, "--out", str(tmp_path)) == 0
        assert json.loads((tmp_path / name).read_text()).keys() == keys
        capsys.readouterr()

    def test_presets_listing(self, capsys):
        assert run("presets") == 0
        out = capsys.readouterr().out
        assert "four-corner" in out
        assert "sierpinski-gasket" in out


class TestParserReuse:
    @pytest.mark.parametrize("first, second", [
        (("alpha", "--preset", "four-corner", "--slope", "1/3", "--depth",
          "3", "--backend", "exact", "--generations"),
         ("alpha", "--preset", "four-corner", "--slope", "1/3")),
        (("dimension", "--preset", "four-corner", "--depth-min", "2",
          "--depth-max", "4", "--sensitivity"),
         ("dimension", "--preset", "four-corner", "--depth-min", "2",
          "--depth-max", "4")),
    ], ids=["alpha", "dimension"])
    def test_no_option_leaks_between_calls(self, first, second, tmp_path,
                                           capsys):
        # the second call on the shared parser writes what it writes as
        # the first call of a fresh parser
        def outputs(argv, name):
            out = tmp_path / name
            assert run(*argv, "--out", str(out)) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            manifest = json.loads(files.pop("manifest.json"))
            assert manifest.pop("wall_time_s") >= 0
            shutil.rmtree(out)
            return files, manifest, capsys.readouterr().out

        fresh = []
        for name, argv in (("a", first), ("b", second)):
            build_parser.cache_clear()
            fresh.append(outputs(argv, name))
        parser = build_parser()
        shared = [outputs(first, "a"), outputs(second, "b")]
        assert build_parser() is parser
        assert shared == fresh
        assert fresh[0][0] != fresh[1][0]


class TestRoundTrip:
    def test_dumped_preset_reproduces_alpha(self, tmp_path, capsys):
        assert run("presets", "--dump", "four-corner") == 0
        cfg_text = capsys.readouterr().out
        cfg = tmp_path / "fc.cfg"
        cfg.write_text(cfg_text)

        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ("--slope", "2/5", "--depth", "5", "--backend", "exact")
        assert run("alpha", "--preset", "four-corner", *args,
                   "--out", str(out_a)) == 0
        assert run("alpha", "--config", str(cfg), *args,
                   "--out", str(out_b)) == 0
        assert (out_a / "alpha.csv").read_bytes() == \
            (out_b / "alpha.csv").read_bytes()
        capsys.readouterr()

    def test_steep_slope_switches_chart(self, tmp_path, capsys):
        out = tmp_path / "steep"
        assert run("alpha", "--preset", "four-corner", "--slope", "5/2",
                   "--depth", "2", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["chart"] is None
        assert manifest["parameters"]["direction"] == "y:2/5"
        assert manifest["parameters"]["snapped_slope"] == "2/5"
        capsys.readouterr()

    def test_steep_slope_in_chart_y(self, tmp_path, capsys):
        # y + 2x = 2(x + y/2): slope 2 in chart y is slope 1/2 in chart x
        out_y = tmp_path / "y"
        out_x = tmp_path / "x"
        assert run("alpha", "--preset", "sierpinski-gasket", "--chart", "y",
                   "--slope", "2", "--depth", "3", "--out", str(out_y)) == 0
        assert run("alpha", "--preset", "sierpinski-gasket", "--chart", "x",
                   "--slope", "1/2", "--depth", "3", "--out", str(out_x)) == 0
        assert (out_y / "alpha.csv").read_bytes() == \
            (out_x / "alpha.csv").read_bytes()
        manifest = json.loads((out_y / "manifest.json").read_text())
        assert manifest["parameters"]["chart"] == "y"
        assert manifest["parameters"]["direction"] == "x:1/2"
        assert manifest["parameters"]["snapped_slope"] == "1/2"
        _, rows = read_csv(out_y / "alpha.csv")
        assert float(rows[-1][3]) == pytest.approx(0.950329, abs=1e-6)
        capsys.readouterr()


# Slope 3/10 + 2^-63 puts every denominator past 2^62: the object-array path.
BIG_SLOPE = Fraction(3, 10) + Fraction(1, 2 ** 63)


class TestIntervalCsvBytes:
    """The interval CSVs match a writer that formats one Fraction per
    endpoint, byte for byte, on the int64 and on the object path."""

    # 3041/9973 at depth 9 is the size of the benchmark's generations.csv:
    # 27 487 rows, 10-digit numerators over 2614362112.
    @pytest.mark.parametrize("chart, slope, depth, big", [
        ("y", Fraction(-2, 7), 6, False),
        ("x", Fraction(3, 10), 6, False),
        ("x", BIG_SLOPE, 4, True),
        ("x", Fraction(3041, 9973), 9, False),
    ])
    def test_generations(self, tmp_path, capsys, chart, slope, depth, big):
        out = tmp_path / "gen"
        assert run("alpha", "--preset", "four-corner", "--chart", chart,
                   f"--slope={rational_str(slope)}", "--depth", str(depth),
                   "--generations", "--out", str(out)) == 0
        sets = list(iter_generations(four_corner(), Direction(chart, slope), depth))
        assert (sets[-1].denominator >= 2 ** 62) == big
        assert (out / "generations.csv").read_bytes() == \
            reference_generations_csv(chart, slope, sets)
        capsys.readouterr()

    @pytest.mark.parametrize("slope, radius, big", [
        (Fraction(-3117, 10000), Fraction(1, 65536), False),
        (BIG_SLOPE, Fraction(1, 1000), True),
    ])
    def test_cover_intervals(self, tmp_path, capsys, slope, radius, big):
        out = tmp_path / "cov"
        assert run("cover", "--preset", "four-corner",
                   f"--slope={rational_str(slope)}",
                   f"--radius={rational_str(radius)}",
                   "--intervals", "--out", str(out)) == 0
        cover = cover_stats(four_corner(), Direction("x", slope), radius).intervals
        assert (cover.denominator >= 2 ** 62) == big
        assert (out / "intervals.csv").read_bytes() == reference_interval_csv(cover)
        capsys.readouterr()

    # Blocks of 1 and 3 intervals: the last block of most generations is
    # short, and the next generation's text starts a new block after it.
    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("slope, depth, big", [
        (Fraction(3, 10), 5, False),
        (BIG_SLOPE, 3, True),
    ])
    def test_generations_small_blocks(self, tmp_path, capsys, monkeypatch,
                                      block, slope, depth, big):
        monkeypatch.setattr(intervals, "_TEXT_BLOCK", block)
        out = tmp_path / "gen"
        assert run("alpha", "--preset", "four-corner",
                   f"--slope={rational_str(slope)}", "--depth", str(depth),
                   "--generations", "--out", str(out)) == 0
        sets = list(iter_generations(four_corner(), Direction("x", slope), depth))
        assert (sets[-1].denominator >= 2 ** 62) == big
        assert any(s.count % block for s in sets) == (block > 1)
        assert (out / "generations.csv").read_bytes() == \
            reference_generations_csv("x", slope, sets)
        capsys.readouterr()

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("slope, big", [(Fraction(-3117, 10000), False),
                                            (BIG_SLOPE, True)])
    def test_cover_intervals_small_blocks(self, tmp_path, capsys, monkeypatch,
                                          block, slope, big):
        monkeypatch.setattr(intervals, "_TEXT_BLOCK", block)
        out = tmp_path / "cov"
        assert run("cover", "--preset", "four-corner",
                   f"--slope={rational_str(slope)}", "--radius=1/1000",
                   "--intervals", "--out", str(out)) == 0
        cover = cover_stats(four_corner(), Direction("x", slope),
                            Fraction(1, 1000)).intervals
        assert (cover.denominator >= 2 ** 62) == big
        assert (out / "intervals.csv").read_bytes() == reference_interval_csv(cover)
        capsys.readouterr()


class _LineCounter:
    """A text file that counts the line ends written through it."""

    def __init__(self, fh, lines):
        self.fh = fh
        self.lines = lines

    def write(self, text):
        self.lines[0] += text.count("\n")
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        self.lines.clear()


class TestGenerationsStream:
    def test_next_generation_waits_for_written_blocks(self, tmp_path, capsys,
                                                      monkeypatch):
        """``alpha --generations`` steps the engine to generation n + 1 only
        once every block of generation n is written to generations.csv, so
        the file never holds two generations in memory."""
        d = Direction("x", Fraction(3, 10))
        depth = 5
        counts = [s.count for s in iter_generations(four_corner(), d, depth)]
        monkeypatch.setattr(intervals, "_TEXT_BLOCK", 3)
        lines = []       # [lines written to generations.csv] while it is open
        at_step = []     # those lines when each engine step starts
        step = projection._ExactEngine.step

        def spy_step(self):
            if lines:
                at_step.append(lines[0])
            step(self)

        class SpyPath(type(Path())):
            def open(self, *args, **kwargs):
                fh = super().open(*args, **kwargs)
                if self.name != "generations.csv":
                    return fh
                lines.append(0)
                return _LineCounter(fh, lines)

        monkeypatch.setattr(projection._ExactEngine, "step", spy_step)
        monkeypatch.setattr(serialize, "Path", SpyPath)
        out = tmp_path / "gen"
        assert run("alpha", "--preset", "four-corner", "--slope=3/10",
                   "--depth", str(depth), "--generations", "--out", str(out)) == 0
        # the header, then all of generations 0..n-1, before step n
        assert at_step == [1 + sum(counts[:n]) for n in range(1, depth + 1)]
        capsys.readouterr()
