import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from alphabezier import make_curve, preset_polygon
from alphabezier.basis import BasisSpec
from alphabezier.cli import FIT_TARGETS, MAX_SAMPLES, build_parser, cmd_fit, main, parse_config
from alphabezier.curve import MAX_SUBDIVISION_DEPTH
from alphabezier.errors import ValidationError
from alphabezier.homography import HomographyMap
from helpers import rows_per_point


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
    code, out = run(tmp_path, "basis.json",
                    "--command", "basis", "--degree", "2", "--alpha=-1,inf",
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


@pytest.mark.parametrize("interval", ["0,inf", "-1e308,1e308", "0,5e-324"])
def test_unusable_interval_exits_2_naming_interval(interval, tmp_path):
    argv = ["--command", "basis", f"--interval={interval}", "--alpha=-1", "--samples", "2",
            "--format", "csv", "--out", str(tmp_path / "x.csv")]
    with pytest.raises(ValidationError) as info:
        parse_config(argv)
    assert info.value.field == "interval"
    assert main(argv) == 2


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
    assert parse_config([*argv, "--samples", "2"]).samples == 2
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
    assert parse_config([*argv, str(MAX_SUBDIVISION_DEPTH)]).depth == MAX_SUBDIVISION_DEPTH
    with pytest.raises(ValidationError) as info:
        parse_config([*argv, str(MAX_SUBDIVISION_DEPTH + 1)])
    assert info.value.field == "depth"
    assert f"max {MAX_SUBDIVISION_DEPTH}" in build_parser().format_help()


def test_samples_bound():
    # checked before any grid is built, so an oversized value costs nothing
    argv = ["--command", "basis", "--out", "x.svg", "--samples"]
    assert parse_config([*argv, str(MAX_SAMPLES)]).samples == MAX_SAMPLES
    with pytest.raises(ValidationError) as info:
        parse_config([*argv, str(MAX_SAMPLES + 1)])
    assert info.value.field == "samples"
    assert f"max {MAX_SAMPLES}" in build_parser().format_help()


@pytest.mark.parametrize("target", sorted(FIT_TARGETS))
def test_fit_columns_match_per_row_oracle(target):
    f = FIT_TARGETS[target]
    for degree in (1, 4, 8, 13):
        for alpha in ("-1", "2", "inf", "1.01", "-0.01"):
            config = parse_config(["--command", "fit", "--degree", str(degree), "--alpha", alpha,
                                   "--interval=-1,2", "--target", target, "--samples", "77",
                                   "--out", "x.json"])
            result = cmd_fit(config)
            spec = BasisSpec(degree, HomographyMap(-1.0, 2.0, config.alphas[0]))
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

GOLDEN_POLYGONS = {
    "line1d.txt": "# a 1-D graph\n0\n2\n-1\n3\n",
    "space3d.json": "[[0, 0, 0], [1, 2, 0.5], [3, 1, -1], [4, 0, 2]]",
}

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
    "selftest.csv": "6a73e2a9fadc1389d4f3172d07d7a64c41b689204ccd2e566b1881905ed6c176",
    "selftest.json": "6a73e2a9fadc1389d4f3172d07d7a64c41b689204ccd2e566b1881905ed6c176",
    "selftest.svg": "6a73e2a9fadc1389d4f3172d07d7a64c41b689204ccd2e566b1881905ed6c176",
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
