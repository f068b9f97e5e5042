import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import tokenize
from pathlib import Path

import numpy as np
import pytest

import alphabezier
from alphabezier import cli, make_curve, preset_polygon
from alphabezier.approx import MAX_FIT_DEGREE
from alphabezier.basis import MAX_DEGREE, BasisSpec
from alphabezier.cli import (
    DISPATCH,
    FIT_TARGETS,
    MAX_COORDINATE,
    MAX_FIT_ENDPOINT,
    MAX_OUTPUT_NUMBERS,
    MAX_SAMPLES,
    build_parser,
    cmd_fit,
    main,
    parse_config,
)
from alphabezier.curve import MAX_SUBDIVISION_DEPTH
from alphabezier.errors import ValidationError
from alphabezier.homography import HomographyMap
from helpers import GOLDEN_POLYGONS, random_jobs, rows_per_point


def run(tmp_path, name, *args):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out


# ------------------------------------------------------------ happy paths


def test_basis_svg_is_deterministic(tmp_path):
    args = ["--command", "basis", "--degree", "2", "--format", "svg"]
    code1, out1 = run(tmp_path, "one.svg", *args)
    code2, out2 = run(tmp_path, "two.svg", *args)
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().count("<polyline") == 4 * 3  # four panels, three functions


def test_basis_csv_values(tmp_path):
    code, out = run(tmp_path, "basis.csv",
                    "--command", "basis", "--degree", "3", "--alpha", "2",
                    "--samples", "33", "--format", "csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,B0,B1,B2,B3"
    assert [float(v) for v in lines[1].split(",")] == [0.0, 1.0, 0.0, 0.0, 0.0]
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")[1:]]
        assert abs(sum(values) - 1.0) <= 1e-12


def test_basis_csv_panel_list_adds_alpha_column(tmp_path):
    code, out = run(tmp_path, "panels.csv",
                    "--command", "basis", "--degree", "1", "--alpha=2,inf",
                    "--samples", "3", "--format", "csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,x,B0,B1"
    assert len(lines) == 1 + 2 * 3
    assert lines[1].split(",")[0] == "2.0"
    assert lines[4].split(",")[0] == "inf"


def test_csv_and_json_are_deterministic(tmp_path):
    for fmt in ("csv", "json"):
        args = ["--command", "curve", "--polygon", "h", "--alpha", "5",
                "--samples", "33", "--format", fmt]
        _, out1 = run(tmp_path, f"a.{fmt}", *args)
        _, out2 = run(tmp_path, f"b.{fmt}", *args)
        assert out1.read_bytes() == out2.read_bytes()


def test_basis_json_round_trips(tmp_path):
    for spelling in ("inf", " INF ", "Infinity", "-inf"):  # float reads them all
        code, out = run(tmp_path, "basis.json",
                        "--command", "basis", "--degree", "2", f"--alpha=-1,{spelling}",
                        "--samples", "9", "--format", "json")
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"params", "samples", "polygons"}
        assert payload["params"]["alpha"] == [-1.0, "inf"]
        assert json.dumps(payload, indent=2) + "\n" == out.read_text()
        assert len(payload["samples"]) == 18


def test_curve_json_matches_library(tmp_path):
    code, out = run(tmp_path, "curve.json",
                    "--command", "curve", "--polygon", "g", "--alpha", "5",
                    "--samples", "17", "--format", "json")
    assert code == 0
    payload = json.loads(out.read_text())
    curve = make_curve(preset_polygon("g"), 5.0)
    for entry in payload["samples"]:
        assert entry["values"] == list(curve.point(entry["x"]))
    assert payload["polygons"] == [[[0.0, 3.5], [4.0, 0.5], [4.5, 2.5], [0.0, 0.0]]]


def test_subdivide_depth_zero_keeps_polygon(tmp_path):
    code, out = run(tmp_path, "sub.json",
                    "--command", "subdivide", "--polygon", "a", "--alpha", "2",
                    "--depth", "0", "--samples", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["polygons"] == [[[0.0, 2.0], [3.5, 0.0], [3.5, 4.0], [0.0, 0.0]]]
    assert payload["params"]["depth"] == 0


def test_subdivide_csv_counts(tmp_path):
    code, out = run(tmp_path, "sub.csv",
                    "--command", "subdivide", "--polygon", "a", "--alpha", "2",
                    "--depth", "3", "--samples", "5", "--format", "csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "polygon,point,p0,p1"
    assert len(lines) == 1 + 8 * 4


def test_elevate_json(tmp_path):
    code, out = run(tmp_path, "elev.json",
                    "--command", "elevate", "--polygon", "b", "--alpha", "-1",
                    "--samples", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out.read_text())
    original, lifted = payload["polygons"]
    assert len(original) == 4 and len(lifted) == 5
    assert lifted[0] == original[0] and lifted[-1] == original[-1]


def test_fit_json_reports_errors(tmp_path):
    code, out = run(tmp_path, "fit.json",
                    "--command", "fit", "--degree", "6", "--alpha", "2",
                    "--target", "rational1", "--samples", "64")
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"params", "samples", "polygons", "results"}
    assert len(payload["polygons"][0]) == 7
    assert payload["results"]["least_squares"]["max_error"] > 1e-12


def test_fit_svg(tmp_path):
    code, out = run(tmp_path, "fit.svg",
                    "--command", "fit", "--degree", "4", "--alpha", "2",
                    "--samples", "65", "--format", "svg")
    assert code == 0
    assert out.read_text().startswith("<?xml")


def test_curve_svg_and_subdivide_svg(tmp_path):
    code, out = run(tmp_path, "curve.svg",
                    "--command", "curve", "--polygon", "c", "--alpha", "2",
                    "--samples", "65")
    assert code == 0 and out.read_text().count("<polyline") == 2
    code, out = run(tmp_path, "sub.svg",
                    "--command", "subdivide", "--polygon", "c", "--alpha", "2",
                    "--depth", "2", "--samples", "65")
    assert code == 0 and out.read_text().count("<polyline") == 5


def test_polygon_from_files(tmp_path):
    as_json = tmp_path / "poly.json"
    as_json.write_text("[[0, 0], [1, 2], [3, 1]]")
    as_text = tmp_path / "poly.txt"
    as_text.write_text("# a comment\n0,0\n1,2\n3,1\n")
    outputs = []
    for token in (str(as_json), str(as_text)):
        code, out = run(tmp_path, f"c{len(outputs)}.json",
                        "--command", "curve", "--polygon", token,
                        "--samples", "9", "--format", "json")
        assert code == 0
        outputs.append(json.loads(out.read_text())["samples"])
    assert outputs[0] == outputs[1]


def test_selftest_honors_seed_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ALPHABEZIER_SEED", "123")
    code, out = run(tmp_path, "self.json", "--command", "selftest")
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 123
    assert payload["pass"] is True
    assert {c["name"] for c in payload["checks"]} >= {
        "partition_of_unity", "decasteljau_matches_direct"}
    # without --out the report goes to stdout
    assert main(["--command", "selftest"]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["seed"] == 123


# ------------------------------------------------------------- validation


@pytest.mark.parametrize("args", [
    ["--command", "curve"],                                        # polygon missing
    ["--command", "curve", "--polygon", "zz"],                     # unknown preset
    ["--command", "basis", "--alpha", "0.5"],                      # invalid index
    ["--command", "basis", "--alpha", "oops"],                     # unparseable index
    ["--command", "basis", "--interval", "1,0"],                   # backwards interval
    ["--command", "subdivide", "--polygon", "a", "--depth", "25"], # depth cap
    ["--command", "curve", "--polygon", "a", "--degree", "7"],     # degree conflict
    ["--command", "curve", "--polygon", "a", "--alpha", "2,5"],    # panel list misuse
    ["--command", "basis", "--samples", "1"],                      # too few samples
])
def test_validation_failures_exit_2(tmp_path, args):
    code = main([*args, "--out", str(tmp_path / "x.svg")])
    assert code == 2


def test_unparseable_alpha_names_alpha_and_the_token(tmp_path):
    for token in ("oops", "", "in f"):
        with pytest.raises(ValidationError, match=f"{token!r}$") as info:
            parse_config(["--command", "basis", f"--alpha=2,{token}", "--out", str(tmp_path / "x.svg")])
        assert info.value.field == "alpha"


@pytest.mark.parametrize("interval", ["0,inf", "-1e308,1e308", "0,5e-324"])
def test_unusable_interval_exits_2_naming_interval(interval, tmp_path):
    argv = ["--command", "basis", f"--interval={interval}", "--alpha=-1", "--samples", "2",
            "--format", "csv", "--out", str(tmp_path / "x.csv")]
    with pytest.raises(ValidationError) as info:
        parse_config(argv)
    assert info.value.field == "interval"
    assert main(argv) == 2


@pytest.mark.parametrize("interval", ["0,1e300", "-1e151,0", "-1.0000000000000002e150,1"])
def test_fit_interval_beyond_the_target_range_exits_2_naming_interval(interval, tmp_path, capsys):
    # t * t inside the targets would overflow and the fit would write nan
    out = tmp_path / "fit.csv"
    argv = ["--command", "fit", f"--interval={interval}", "--target", "rational2",
            "--format", "csv", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: interval:")
    assert not out.exists()
    assert f"{MAX_FIT_ENDPOINT:g}" in build_parser().format_help()


@pytest.mark.parametrize("target", sorted(FIT_TARGETS))
def test_fit_interval_at_the_limit_writes_finite_numbers(target, tmp_path):
    out = tmp_path / "fit.csv"
    assert main(["--command", "fit", f"--interval=-{MAX_FIT_ENDPOINT!r},{MAX_FIT_ENDPOINT!r}",
                 "--target", target, "--samples", "9", "--format", "csv",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 9
    assert all(np.isfinite([float(v) for row in rows for v in row.split(",")]))


def test_malformed_seed_exits_2_naming_seed(monkeypatch, capsys):
    monkeypatch.setenv("ALPHABEZIER_SEED", "abc")
    with pytest.raises(ValidationError) as info:
        parse_config(["--command", "selftest"])
    assert info.value.field == "seed"
    assert main(["--command", "selftest"]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["basis", "curve", "subdivide", "elevate", "fit"])
def test_grid_finer_than_float_spacing_exits_2_naming_samples(command, tmp_path, capsys):
    # consecutive floats near 1e16 are 2 apart, so 8 samples repeat points
    polygon = [] if command in ("basis", "fit") else ["--polygon", "a"]
    argv = ["--command", command, *polygon, "--interval=1e16,1.000000000000001e16",
            "--out", str(tmp_path / "x.csv")]
    assert len(parse_config([*argv, "--samples", "2"]).xs) == 2
    with pytest.raises(ValidationError) as info:
        parse_config([*argv, "--samples", "8"])
    assert info.value.field == "samples"
    assert main([*argv, "--samples", "8"]) == 2
    assert "samples" in capsys.readouterr().err


def test_lost_fit_rank_exits_2_naming_degree_and_index(tmp_path, capsys):
    # near alpha = 1 the degree-17 design has numerical rank 13
    argv = ["--command", "fit", "--format", "json", "--interval=-0.091,1.985", "--alpha=1.01",
            "--samples", "42", "--degree", "17", "--target", "sine",
            "--out", str(tmp_path / "fit.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degree:") and "17" in err and "1.01" in err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("args", [
    ["--command", "basis", "--alpha=1e308", "--interval=0,10"],
    ["--command", "curve", "--polygon", "a", "--alpha=-1e300", "--interval=0,1e10"],
])
def test_huge_indices_write_finite_numbers(args, tmp_path):
    out = tmp_path / "job.csv"
    assert main([*args, "--samples", "4", "--format", "csv", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    values = [float(v) for row in rows for v in row.split(",")]
    assert len(rows) == 4 and all(np.isfinite(values))


def test_depth_bound_is_the_curve_limit():
    argv = ["--command", "subdivide", "--polygon", "a", "--out", "x.svg", "--depth"]
    config = parse_config([*argv, str(MAX_SUBDIVISION_DEPTH)])
    assert config.params["depth"] == MAX_SUBDIVISION_DEPTH
    with pytest.raises(ValidationError) as info:
        parse_config([*argv, str(MAX_SUBDIVISION_DEPTH + 1)])
    assert info.value.field == "depth"
    assert f"max {MAX_SUBDIVISION_DEPTH}" in build_parser().format_help()


def test_samples_bound():
    # checked before any grid is built, so an oversized value costs nothing
    argv = ["--command", "basis", "--out", "x.svg", "--samples"]
    assert len(parse_config([*argv, str(MAX_SAMPLES)]).xs) == MAX_SAMPLES
    with pytest.raises(ValidationError) as info:
        parse_config([*argv, str(MAX_SAMPLES + 1)])
    assert info.value.field == "samples"
    assert f"max {MAX_SAMPLES}" in build_parser().format_help()


@pytest.mark.parametrize("coordinate",
                         ["1.7976931348623157e308", "1.7e308", "1.0000000000000002e300"])
def test_control_points_beyond_the_limit_exit_2_naming_polygon(coordinate, tmp_path, capsys):
    # the largest double overflows the curve samples; +-1.7e308 the SVG bbox span
    path = tmp_path / "huge.txt"
    path.write_text(f"{coordinate} {coordinate}\n-{coordinate} 0\n0 {coordinate}\n1 1\n")
    argv = ["--command", "curve", "--polygon", str(path), "--alpha", "5", "--samples", "33",
            "--format", "svg", "--out", str(tmp_path / "x.svg")]
    with pytest.raises(ValidationError) as info:
        parse_config(argv)
    assert info.value.field == "polygon"
    assert main(argv) == 2
    assert "polygon" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("token", ["<dir>", "", "objects.json", "deep.json"])
def test_unreadable_polygon_inputs_exit_2_naming_polygon(token, tmp_path, monkeypatch, capsys):
    # a directory, the empty path (it resolves to "."), a JSON list of objects,
    # and JSON nested past the decoder's recursion limit
    monkeypatch.chdir(tmp_path)
    (tmp_path / "objects.json").write_text('[{"x": 1}]')
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    token = str(tmp_path) if token == "<dir>" else token
    argv = ["--command", "curve", f"--polygon={token}", "--out", "x.svg"]
    with pytest.raises(ValidationError) as info:
        parse_config(argv)
    assert info.value.field == "polygon"
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: polygon:")
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("args", [
    ["--command", "basis", "--degree", str(MAX_DEGREE + 1)],
    ["--command", "curve", "--polygon", "long.txt"],                # MAX_DEGREE + 2 points
    ["--command", "fit", "--degree", str(MAX_FIT_DEGREE + 1)],
])
def test_degree_over_the_library_limit_exits_2_naming_degree(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "long.txt").write_text("".join(f"{k} {k % 3}\n" for k in range(MAX_DEGREE + 2)))
    argv = [*args, "--out", "x.svg"]
    with pytest.raises(ValidationError) as info:
        parse_config(argv)
    assert info.value.field == "degree"
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: degree:")
    assert not (tmp_path / "x.svg").exists()


def test_degree_at_the_library_limit_parses():
    for command, cap in (("basis", MAX_DEGREE), ("fit", MAX_FIT_DEGREE)):
        assert parse_config(["--command", command, "--degree", str(cap), "--out", "x"]).degree == cap


@pytest.mark.parametrize("command", ["curve", "subdivide", "elevate"])
@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
def test_control_points_at_the_limit_write_finite_numbers(command, fmt, tmp_path):
    big = repr(MAX_COORDINATE)
    path = tmp_path / "big.txt"
    path.write_text(f"{big} {big}\n-{big} -{big}\n{big} -{big}\n-{big} {big}\n")
    out = tmp_path / f"x.{fmt}"
    assert main(["--command", command, "--polygon", str(path), "--alpha", "5", "--samples", "33",
                 "--depth", "2", "--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    if fmt == "json":
        doc = json.loads(text)
        numbers = [v for row in doc["samples"] for v in [row["x"], *row["values"]]]
        numbers += [v for poly in doc["polygons"] for point in poly for v in point]
    elif fmt == "csv":
        numbers = [float(v) for row in text.splitlines()[1:] for v in row.split(",")]
    else:
        numbers = [float(v) for attr in re.findall(r'(?:points|cx|cy)="([^"]*)"', text)
                   for v in attr.replace(",", " ").split()]
    assert numbers and np.all(np.isfinite(numbers))


@pytest.mark.parametrize("target", sorted(FIT_TARGETS))
def test_fit_columns_match_per_row_oracle(target):
    f = FIT_TARGETS[target]
    for degree in (1, 4, 8, 13):
        for alpha in ("-1", "2", "inf", "1.01", "-0.01"):
            config = parse_config(["--command", "fit", "--degree", str(degree), "--alpha", alpha,
                                   "--interval=-1,2", "--target", target, "--samples", "77",
                                   "--out", "x.json"])
            result = cmd_fit(config)
            spec = BasisSpec(degree, HomographyMap(-1.0, 2.0, config.maps[0].alpha))
            colloc, lsq = (poly[:, 0] for poly in result.polygons)
            xs = np.linspace(-1.0, 2.0, 77)
            expected = np.array([(f(x), row @ colloc, row @ lsq)
                                 for x, row in zip(xs, rows_per_point(spec, xs))])
            assert np.array_equal(result.tables[0][1], expected)


def test_missing_out_exits_2():
    assert main(["--command", "basis"]) == 2


def test_unwritable_out_exits_1(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = main(["--command", "basis", "--out", str(blocker / "sub" / "x.svg")])
    assert code == 1


LONG_CSV_JOB = ["--command", "basis", "--degree", "6", "--samples", "200", "--format", "csv"]
SHORT_CSV_JOB = ["--command", "curve", "--polygon", "g", "--samples", "5", "--format", "csv"]


def test_rewrite_leaves_no_stale_tail(tmp_path):
    # the output is written in place and cut to the new length
    fresh, out = tmp_path / "fresh.csv", tmp_path / "out.csv"
    assert main([*SHORT_CSV_JOB, "--out", str(fresh)]) == 0
    assert main([*LONG_CSV_JOB, "--out", str(out)]) == 0
    assert out.stat().st_size > 4 * fresh.stat().st_size
    assert main([*SHORT_CSV_JOB, "--out", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not hasattr(os, "symlink") or sys.platform == "win32",
                    reason="symlinks need privileges on Windows")
def test_symlinked_out_writes_through_to_its_target(tmp_path):
    fresh, target, link = tmp_path / "fresh.csv", tmp_path / "target.csv", tmp_path / "link.csv"
    assert main([*SHORT_CSV_JOB, "--out", str(fresh)]) == 0
    assert main([*LONG_CSV_JOB, "--out", str(target)]) == 0
    link.symlink_to(target)
    assert main([*SHORT_CSV_JOB, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()


def test_devnull_out_exits_0():
    # a character device is written but never truncated
    assert main([*SHORT_CSV_JOB, "--out", os.devnull]) == 0


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX permission bits")
@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_new_out_mode_follows_the_umask(umask, tmp_path):
    out = tmp_path / "new.csv"
    old = os.umask(umask)
    try:
        assert main([*SHORT_CSV_JOB, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.skipif(sys.platform == "win32" or os.geteuid() == 0,
                    reason="POSIX permission bits, which root bypasses")
def test_read_only_out_exits_1(tmp_path, capsys):
    out = tmp_path / "read-only.csv"
    out.write_text("kept\n")
    out.chmod(0o444)
    assert main([*SHORT_CSV_JOB, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("internal error:")
    assert out.read_text() == "kept\n"


def test_missing_out_directories_are_created(tmp_path):
    out = tmp_path / "a" / "b" / "out.csv"
    assert main([*SHORT_CSV_JOB, "--out", str(out)]) == 0
    assert out.is_file()


def test_console_script_runs(tmp_path):
    out = tmp_path / "script.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "alphabezier.cli", "--command", "basis", "--degree", "1",
         "--alpha", "2", "--samples", "3", "--format", "csv", "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert out.exists()


# ------------------------------------------------------------ golden bytes

GOLDEN_JOBS = {
    "basis-panel": ["--command", "basis", "--degree", "3", "--alpha=-1,2,5,inf",
                    "--samples", "17"],
    "basis-single": ["--command", "basis", "--degree", "4", "--alpha", "2",
                     "--interval=-1,2", "--samples", "17"],
    "curve": ["--command", "curve", "--polygon", "g", "--alpha", "5", "--samples", "17"],
    "subdivide": ["--command", "subdivide", "--polygon", "a", "--alpha", "2",
                  "--depth", "2", "--samples", "17"],
    "elevate": ["--command", "elevate", "--polygon", "b", "--alpha", "-1",
                "--samples", "17"],
    "fit-rational": ["--command", "fit", "--degree", "6", "--alpha", "2",
                     "--target", "rational1", "--samples", "33"],
    "fit-sine": ["--command", "fit", "--degree", "7", "--alpha", "inf",
                 "--interval=-1,1.5", "--target", "sine", "--samples", "33"],
    "curve-1d-file": ["--command", "curve", "--polygon", "line1d.txt", "--alpha", "-1",
                      "--samples", "17"],
    "elevate-3d-file": ["--command", "elevate", "--polygon", "space3d.json", "--alpha", "5",
                        "--samples", "17"],
    "selftest": ["--command", "selftest"],
}

# sha256 of each job's output per format.  The bytes pass through BLAS and
# libm (`@`, `solve`, `lstsq`, `sin`), so these digests belong to one
# numpy/OpenBLAS build; selftest writes JSON whatever --format says.
GOLDEN_DIGESTS = {
    "basis-panel.csv": "229b025a3f2ac52b4848ad1166c5f4285a542b9134e6c9f95cf14dc3f8c2f91c",
    "basis-panel.json": "aca2637873bb6def81e87f6ae7f938127f14e7dc0995ee00b255c72ce721801f",
    "basis-panel.svg": "971f72c5dff6d8e54ae953b920ec5685aa6ce1fd3e28362626479aa4e94f0f80",
    "basis-single.csv": "18b37e7b45a80fb3a267386f21bb22f91d84cb4c1a19213e9c4cacf5c5c0c6c8",
    "basis-single.json": "d27785f2d0e893df46956605d19e6ee3b8853884f8c44c19ce26e8469ba18851",
    "basis-single.svg": "821c16a0229100712bb1b83fd6ce201ae9a07d321caff9ee6e1c4cb5f527de4b",
    "curve.csv": "35051cf40029eb816630686bf31085b19696f1a734a75605eb2e6481734c098c",
    "curve.json": "71ff63a9bd1b07c1770366b1ec3fbd55e87c132e87f2e5c1592cb8195ef21cb1",
    "curve.svg": "3155a7ed1424c5efc5f4b1aba6d4a6dad6e775f7e0b05be57b443d6194588319",
    "subdivide.csv": "020377b4db89269d3ed1eb10cfef1380da627f916b25a1280ee2a68c695df45e",
    "subdivide.json": "973ff76f7b08925640987f7cf0cb7824412746cceffa87d7383c25779ef1e3a6",
    "subdivide.svg": "804ad4aad6880d055d35ef037482ae11b97e66d083569407186c3b194c280e3c",
    "elevate.csv": "363eeb1305af76bf7343e8799ab024fe1dfef3ffdb8f5cd6e779e16eeebcd8c2",
    "elevate.json": "8c3f6cc404cb269d83c189f4ca29f7e7841a1138fec21ae3bb4599a6f6f8f2cd",
    "elevate.svg": "d627d36cae9689b3c5932d0299404d9c5152c42d1e2c4f2efcb1e24855bfee0d",
    "fit-rational.csv": "ee339b4a363f2cb535a2de0fae2943cc6357b8a7fabf33ce55d6675aa163818d",
    "fit-rational.json": "8718332fa30f916f2be3ce5472e34eeeccb987c9d0288a283bad394ff34d81be",
    "fit-rational.svg": "123db3a9c146c68c2b64275c70a8f83fb7b3b332ee343f3d96a64a2ab2c1dac2",
    "fit-sine.csv": "726baae3e95577a5d56ce7f1264a5c2ec07e0476a32a8e85407c56e03d76e27c",
    "fit-sine.json": "76d15bfced799257a7698ed2a3ad329f97bdaf41b523223b6baff66d56257ea1",
    "fit-sine.svg": "a1cc5297777cf937cf9daa4c60c6b27445b6b27248a4175bf04299eb047ad48c",
    "curve-1d-file.csv": "220db855eb647068fca790b5b9c945207523c3708332db5c613e514855aeabd4",
    "curve-1d-file.json": "b69babdbcaf793f7f69386413168141b70adaf10f8d86329afdc1b5a93980294",
    "curve-1d-file.svg": "045a14327087fe7e0dda39f79ee1b51f47f6df974d4b8ba95e1a42f2c685aca8",
    "elevate-3d-file.csv": "1cde3835bacd5388b12b26520a7577c99c2d579063572a42f346d26b9a90e6a6",
    "elevate-3d-file.json": "50cb85ec7560d07bc2e1b1bbafca7a65deded10ddc89b2356c1c76f812543729",
    "elevate-3d-file.svg": "2d436118ace3a35f9c22ddc6dd126bcbb1fa5aae302d726d8eb53023e6ef8f6e",
    "selftest.csv": "10e9f5a8b1739031e2553cb99cddc9f2f567b9c7e0f09104d189101aeb14d041",
    "selftest.json": "10e9f5a8b1739031e2553cb99cddc9f2f567b9c7e0f09104d189101aeb14d041",
    "selftest.svg": "10e9f5a8b1739031e2553cb99cddc9f2f567b9c7e0f09104d189101aeb14d041",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_output_bytes_match_golden_digest(key, tmp_path, monkeypatch):
    job, fmt = key.rsplit(".", 1)
    monkeypatch.chdir(tmp_path)  # polygon paths are echoed into params, keep them relative
    monkeypatch.setenv("ALPHABEZIER_SEED", "4711")
    for name, text in GOLDEN_POLYGONS.items():
        (tmp_path / name).write_text(text)
    assert main([*GOLDEN_JOBS[job], "--format", fmt, "--out", f"out.{fmt}"]) == 0
    digest = hashlib.sha256((tmp_path / f"out.{fmt}").read_bytes()).hexdigest()
    assert digest == GOLDEN_DIGESTS[key]


def _golden_digests(tmp_path, keys, prefix=""):
    """Run the golden jobs ``keys`` in order; the sha256 of each job's file by key."""
    digests = {}
    for key in keys:
        job, fmt = key.rsplit(".", 1)
        out = f"{prefix}{key}"
        assert main([*GOLDEN_JOBS[job], "--format", fmt, "--out", out]) == 0
        digests[key] = hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
    return digests


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    """tmp_path as the working directory, holding the golden polygon files."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ALPHABEZIER_SEED", "4711")
    for name, text in GOLDEN_POLYGONS.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def test_reused_parser_leaks_no_state(golden_dir, capsys):
    assert build_parser() is build_parser()
    keys = sorted(GOLDEN_DIGESTS)
    assert _golden_digests(golden_dir, keys) == GOLDEN_DIGESTS
    # a job that fails validation, then one argparse rejects
    assert main(["--command", "curve", "--polygon", "zz", "--out", "x.svg"]) == 2
    with pytest.raises(SystemExit) as info:
        main(["--command", "curve", "--depth", "deep", "--out", "x.svg"])
    assert info.value.code == 2
    assert "invalid int value: 'deep'" in capsys.readouterr().err
    assert _golden_digests(golden_dir, keys[::-1]) == GOLDEN_DIGESTS


def test_threads_share_the_parser(golden_dir):
    # the library is safe to share between threads, the CLI's parser included
    keys = sorted(GOLDEN_DIGESTS)
    results = [None] * 4

    def work(k):  # each thread starts at another job and writes its own files
        order = keys[8 * k:] + keys[:8 * k]
        results[k] = _golden_digests(golden_dir, order, prefix=f"t{k}-")

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [GOLDEN_DIGESTS] * 4


def test_output_budget_is_checked_before_compute(tmp_path):
    # parse_config only: an oversized job is never run
    panel = ["--command", "basis", "--alpha=-1,2,5,inf", "--samples", str(MAX_SAMPLES),
             "--out", "x.json", "--degree"]
    assert parse_config([*panel, "36"]).degree == 36
    with pytest.raises(ValidationError) as info:
        parse_config([*panel, "37"])
    assert info.value.field == "output"
    assert str(MAX_OUTPUT_NUMBERS) in str(info.value)
    cubic3d = tmp_path / "space3d.json"
    cubic3d.write_text(GOLDEN_POLYGONS["space3d.json"])
    deep = ["--command", "subdivide", "--polygon", str(cubic3d), "--depth", "20", "--out", "x"]
    with pytest.raises(ValidationError) as info:
        parse_config(deep)
    assert info.value.field == "output"
    assert str(MAX_OUTPUT_NUMBERS) in build_parser().format_help()


def _counted_and_written(argv):
    """What the command's size rule counts for a job, and the numbers its result holds."""
    config = parse_config([*argv, "--out", "x"])
    result = DISPATCH[config.command](config)
    written = (len(result.tables) * result.xs.size + sum(m.size for _, m in result.tables)
               + sum(poly.size for poly in result.polygons))
    _, _, _, size_rule = cli.COMMANDS[config.command]
    dim = 0 if config.polygon is None else config.polygon.dim
    depth = config.params.get("depth", 0)  # only subdivide reads --depth
    return size_rule(config.degree, len(config.maps), dim, len(config.xs), depth), written


@pytest.mark.parametrize("job", sorted(set(GOLDEN_JOBS) - {"selftest"}))
def test_output_budget_counts_the_result(job, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN_POLYGONS.items():
        (tmp_path / name).write_text(text)
    counted, written = _counted_and_written(GOLDEN_JOBS[job])
    assert counted == written
    assert written <= MAX_OUTPUT_NUMBERS // 1000


@pytest.mark.parametrize("seed", [20261018, 4711])
def test_output_budget_counts_the_result_of_random_jobs(seed, tmp_path):
    # the writer tests' jobs: 1-D, 2-D and 3-D polygon files, panel lists, depths 0-6
    for argv in random_jobs(tmp_path, seed, 60):
        counted, written = _counted_and_written(argv)
        assert counted == written, argv


@pytest.mark.parametrize("command, degree, fmt, cap", [
    ("basis", 3, "svg", MAX_DEGREE),
    ("curve", "polygon", "svg", MAX_DEGREE),
    ("subdivide", "polygon", "svg", MAX_DEGREE),
    ("elevate", "polygon", "svg", MAX_DEGREE),
    ("fit", 8, "json", MAX_FIT_DEGREE),
])
def test_each_command_has_its_own_defaults_and_degree_cap(command, degree, fmt, cap, tmp_path):
    def polygon(points):  # a 1-D polygon file of degree points - 1
        path = tmp_path / f"line{points}.txt"
        path.write_text("".join(f"{k % 3}\n" for k in range(points)))
        return ["--polygon", str(path)]

    argv = ["--command", command, "--out", "x"]
    config = parse_config([*argv, *polygon(5)] if degree == "polygon" else argv)
    assert config.degree == (4 if degree == "polygon" else degree)
    assert config.fmt == config.params["format"] == fmt
    assert [h.alpha for h in config.maps] == ([-1.0, 2.0, 5.0, np.inf] if command == "basis"
                                              else [2.0])
    at, over = ((polygon(cap + 1), polygon(cap + 2)) if degree == "polygon" else
                (["--degree", str(cap)], ["--degree", str(cap + 1)]))
    assert parse_config([*argv, *at]).degree == cap
    with pytest.raises(ValidationError) as info:
        parse_config([*argv, *over])
    assert info.value.field == "degree"


def test_degree_help_lists_the_five_table_commands():
    # selftest reads no --degree, so it has no row and no entry
    assert [*cli.COMMANDS] == ["basis", "curve", "subdivide", "elevate", "fit"]
    assert build_parser()._option_string_actions["--degree"].help == (
        "default/max: basis 3/60, curve polygon/60, subdivide polygon/60, "
        "elevate polygon/60, fit 8/30")


def test_every_module_stays_below_the_parser_token_step():
    # CPython 3.11's parser doubles its token array at 4,096 tokens; a synthetic
    # module stepped between 4,081 and 4,161 tokens, and compiling a module past
    # the step (as without cached bytecode) raises the peak RSS of every process
    # that imports the library
    for path in sorted(Path(alphabezier.__file__).parent.glob("*.py")):
        with tokenize.open(path) as fh:
            tokens = sum(1 for _ in tokenize.generate_tokens(fh.readline))
        assert tokens < 4081, f"{path.name} has {tokens} tokens"


def test_interval_with_three_ends_exits_2_naming_interval(tmp_path, capsys):
    with pytest.raises(ValidationError) as info:
        parse_config(["--command", "basis", "--interval", "0,1,2", "--out", "x"])
    assert info.value.field == "interval"
    code, out = run(tmp_path, "basis.svg", "--command", "basis", "--interval", "0,1,2")
    assert code == 2 and not out.exists()
    assert "interval: expected 'a,b', got '0,1,2'" in capsys.readouterr().err


def test_only_selftest_reads_the_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("ALPHABEZIER_SEED", "abc")
    code, out = run(tmp_path, "basis.svg", "--command", "basis")
    monkeypatch.delenv("ALPHABEZIER_SEED")
    assert code == 0
    assert main(["--command", "basis", "--out", str(tmp_path / "plain.svg")]) == 0
    assert out.read_bytes() == (tmp_path / "plain.svg").read_bytes()
    monkeypatch.setenv("ALPHABEZIER_SEED", "7")
    assert parse_config(["--command", "curve", "--polygon", "a", "--out", "x"]).seed == 0
    assert parse_config(["--command", "selftest"]).seed == 7


@pytest.mark.parametrize("argv, unread", [
    (["--command", "selftest"], ["--degree", "61", "--samples", "1", "--depth", "99",
                                 "--alpha", "0.5", "--interval", "1,0",
                                 "--polygon", "no-such-file"]),
    (["--command", "basis", "--samples", "9"], ["--polygon", "no-such-file", "--depth", "99"]),
    (["--command", "fit", "--samples", "9"], ["--polygon", "no-such-file", "--depth", "99"]),
    (["--command", "curve", "--polygon", "a", "--samples", "9"], ["--depth", "99"]),
    (["--command", "elevate", "--polygon", "a", "--samples", "9"], ["--depth", "99"]),
], ids=["selftest", "basis", "fit", "curve", "elevate"])
def test_a_flag_the_command_does_not_read_changes_neither_its_file_nor_its_exit_code(
        argv, unread, tmp_path):
    argv = [*argv, "--format", "json"]
    assert main([*argv, "--out", str(tmp_path / "plain.json")]) == 0
    assert main([*argv, *unread, "--out", str(tmp_path / "unread.json")]) == 0
    written = (tmp_path / "unread.json").read_bytes()
    assert written == (tmp_path / "plain.json").read_bytes()
    if argv[1] in ("basis", "fit"):  # a table that draws no curve records no polygon
        assert "polygon" not in json.loads(written)["params"]


def test_failing_self_test_writes_its_report_and_exits_1(tmp_path, monkeypatch, capsys):
    checks = list(cli.SELFTEST_CHECKS)
    name, draws, residual, _ = checks[0]
    checks[0] = (name, draws, residual, -1.0)  # no residual is below a negative tolerance
    monkeypatch.setattr(cli, "SELFTEST_CHECKS", tuple(checks))
    code, out = run(tmp_path, "self.json", "--command", "selftest")
    assert code == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert [check["pass"] for check in report["checks"]] == [False, True, True, True]
    assert "self test failed" in capsys.readouterr().err


class _CountingGenerator:
    """A numpy Generator that counts the method calls made on it."""

    def __init__(self, rng):
        self._rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


def test_self_test_makes_the_same_few_generator_calls_per_check_for_any_draws(
        tmp_path, monkeypatch):
    # one call per drawn parameter, however many draws: a per-draw call would
    # make the count grow with draws
    made = []
    real = np.random.default_rng

    def counting_rng(seed):
        made.append(_CountingGenerator(real(seed)))
        return made[-1]
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    config = parse_config(["--command", "selftest", "--out", str(tmp_path / "self.json")])
    counts = set()
    for name, _, residual, tol in cli.SELFTEST_CHECKS:
        for draws in (1, 7, 200):
            monkeypatch.setattr(cli, "SELFTEST_CHECKS", ((name, draws, residual, tol),))
            cli.cmd_selftest(config)
            counts.add(made[-1].calls)
    assert len(counts) == 1 and counts.pop() <= 8


def test_batched_self_test_draws_pass_for_64_seeds(tmp_path, monkeypatch):
    out = tmp_path / "self.json"
    for seed in range(64):
        monkeypatch.setenv("ALPHABEZIER_SEED", str(seed))
        assert main(["--command", "selftest", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [(c["name"], c["tolerance"]) for c in report["checks"]] == [
            (name, tol) for name, _, _, tol in cli.SELFTEST_CHECKS]
        assert all(c["pass"] and c["max_residual"] <= c["tolerance"] for c in report["checks"])

        draws = cli._selftest_draws(np.random.default_rng(seed), 200)
        alphas = [spec.homography.alpha for spec, _, _ in draws]
        assert all(-6.0 <= al <= -1.0 or 2.0 <= al <= 7.0 or al == np.inf for al in alphas)
        assert {"negative" if al < 0.0 else "positive" if al < np.inf else "inf"
                for al in alphas} == {"negative", "positive", "inf"}
        assert {spec.degree for spec, _, _ in draws} == set(range(1, 9))
        assert all(spec.a <= x <= spec.b for spec, x, _ in draws)
        assert all(polygon.shape == (9, 2) and np.isfinite(polygon).all()
                   for _, _, polygon in draws)
