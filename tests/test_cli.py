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
from helpers import reference_table


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
                                 for x, row in zip(xs, reference_table(spec, xs))])
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
    "basis-panel.csv": "65f85d5201c9daa949974949aed01ba681949a0b7046648d822e575872028342",
    "basis-panel.json": "61631c7b5832ea8758431dcc9d64dc5a181695d65fcefa4fbc0d6e9302624795",
    "basis-panel.svg": "971f72c5dff6d8e54ae953b920ec5685aa6ce1fd3e28362626479aa4e94f0f80",
    "basis-single.csv": "5947c13e2bc6313c9b4ee5119362c9b70d703ab1b0c03f3de5f43bc3920107db",
    "basis-single.json": "e35abf8477d2e050c81567d60a44f12a9da0af4138c0eeb3ff73b80b0b3a3fd1",
    "basis-single.svg": "821c16a0229100712bb1b83fd6ce201ae9a07d321caff9ee6e1c4cb5f527de4b",
    "curve.csv": "45350ba8e398b5844f0a8b05e1a0dcea90642560eb55a7d77d10d538a37e4cac",
    "curve.json": "f1328fb632fbb3c84c294b52173c3ba5d2324b1284e872f66118060c115cab61",
    "curve.svg": "3155a7ed1424c5efc5f4b1aba6d4a6dad6e775f7e0b05be57b443d6194588319",
    "subdivide.csv": "20e76cf461b67e0edfb190ec90f6fd530e4e073b40dd9e1c37c0dc85cf204428",
    "subdivide.json": "b081c45c9c43e9799f21c133bbc3db3e460c6b2d62a002226147c8c9d93b5a8d",
    "subdivide.svg": "804ad4aad6880d055d35ef037482ae11b97e66d083569407186c3b194c280e3c",
    "elevate.csv": "363eeb1305af76bf7343e8799ab024fe1dfef3ffdb8f5cd6e779e16eeebcd8c2",
    "elevate.json": "347e2b6d7df3fcb395d4b7e8115881e87b93c0af694f91ee0531f4fa32cd71c2",
    "elevate.svg": "d627d36cae9689b3c5932d0299404d9c5152c42d1e2c4f2efcb1e24855bfee0d",
    "fit-rational.csv": "d15eaa60ecb1949d9ee05e0af09ad0da9e64856d0a7777fddbc6a1127768afac",
    "fit-rational.json": "674767f046b303ac165929ed011e1652b23e05b1a91629d9b88f46d24cdab055",
    "fit-rational.svg": "123db3a9c146c68c2b64275c70a8f83fb7b3b332ee343f3d96a64a2ab2c1dac2",
    "fit-sine.csv": "3279fecc5c14ec77fa81bf359817032e09b0f5b269a5efad6aa8df7010bc2421",
    "fit-sine.json": "e1bbb3187204799afade78a5249dbf49ba6779125e8e163b918018fe9ddfe254",
    "fit-sine.svg": "a1cc5297777cf937cf9daa4c60c6b27445b6b27248a4175bf04299eb047ad48c",
    "curve-1d-file.csv": "7cf6ec60f69e3892b98a5745080950d6f26c174280d2abeb11b150f5c346b3f2",
    "curve-1d-file.json": "a8c42f1cb3dd6c71c232b3511b3871fcab10a903cebe59a231e6fa8d96e48fe2",
    "curve-1d-file.svg": "045a14327087fe7e0dda39f79ee1b51f47f6df974d4b8ba95e1a42f2c685aca8",
    "elevate-3d-file.csv": "1cde3835bacd5388b12b26520a7577c99c2d579063572a42f346d26b9a90e6a6",
    "elevate-3d-file.json": "568eb1f901ffdf36e0afbe13c71a8c9cc58c05d4375d375b5713f583b2abf6d6",
    "elevate-3d-file.svg": "2d436118ace3a35f9c22ddc6dd126bcbb1fa5aae302d726d8eb53023e6ef8f6e",
    "selftest.csv": "757e2e808fa8035f367e8f07c634ab26fd741a28ed94e897447d7da7c6d0975a",
    "selftest.json": "757e2e808fa8035f367e8f07c634ab26fd741a28ed94e897447d7da7c6d0975a",
    "selftest.svg": "757e2e808fa8035f367e8f07c634ab26fd741a28ed94e897447d7da7c6d0975a",
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
