"""End-to-end checks of the batch driver: exit codes, formats, determinism."""

import contextlib
import json
import os
import struct
import subprocess
import sys
import types
import zlib

import numpy as np
import pytest

import spectralcurves
from spectralcurves import cli
from spectralcurves.cli import _scan_columns, main
from spectralcurves.curve import build_curve, curve_to_dict, curve_to_json
from spectralcurves.grassmann import plane_to_json

from conftest import shared_plane


@pytest.fixture
def g1_spec(tmp_path):
    path = tmp_path / "g1.json"
    path.write_text(curve_to_json(build_curve([0.5])))
    return str(path)


@pytest.fixture
def g2_spec(tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(curve_to_json(build_curve([0.41 + 0.2j, -0.33 - 0.41j])))
    return str(path)


# ------------------------------------------------------------- classify


def test_classify_report(g1_spec, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["classify", "--spec", g1_spec, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == 1
    assert data["genus"] == 1
    assert data["deg_f"] == 2
    assert data["winding_arg"] == data["winding_roots"] == 0
    assert data["stratum"] == "V_0"
    assert data["kernel_gap"] > 1e6


def test_classify_csv_row(g1_spec, capsys):
    assert main(["classify", "--spec", g1_spec, "--format", "csv"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
    header, row = lines[0], lines[1]
    assert "stratum" in header.split(",")
    assert "V_0" in row.split(",")


def test_classify_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"eta": [[1.0, 0.0]]}))
    rc = main(["classify", "--spec", str(bad)])
    assert rc == 2
    assert "unit circle" in capsys.readouterr().err


def test_classify_names_missing_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"roots": [[0.5, 0.0]]}))
    rc = main(["classify", "--spec", str(bad)])
    assert rc == 2
    assert "eta" in capsys.readouterr().err


@pytest.mark.parametrize("kind, message", [
    ("missing", "cannot read --spec"),
    ("directory", "cannot read --spec"),
    ("broken", "is not JSON"),
    ("empty", "missing --spec: a curve record file is needed"),
])
def test_classify_unreadable_spec_exits_2(kind, message, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    if kind == "directory":
        spec.mkdir()
    elif kind == "broken":
        spec.write_text("{not json")
    assert main(["classify", "--spec", "" if kind == "empty" else str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: ") and message in err


def test_classify_rational_proximity(g1_spec, tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["classify", "--spec", g1_spec, "--maxden", "6", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert "rational_plane_angle" in data
    assert data["rational_plane_angle"] >= 0.0


def test_classify_proximity_marks_pi_when_no_cut_crosses(tmp_path):
    # genus 0 has no cut: the default marker is the angle pi
    spec = tmp_path / "g0.json"
    spec.write_text(json.dumps({"eta": []}))
    reports = []
    for extra in ([], ["--alpha-angle", repr(np.pi)], ["--alpha-angle", "0.5"]):
        out = tmp_path / "rep.json"
        assert main(["classify", "--spec", str(spec), "--maxden", "3", "--format", "json",
                     "--out", str(out)] + extra) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0] == reports[1]
    assert reports[0]["phi"] != reports[2]["phi"]


@pytest.mark.parametrize("angle", ["nan", "inf"])
def test_classify_refuses_a_non_finite_alpha_angle_at_once(angle, g2_spec, tmp_path,
                                                           capsys):
    # the marker exp(i angle) is NaN, which must fail the unit-circle check
    # of the gamma leg, not reach quadrature
    out = tmp_path / "rep.json"
    with np.errstate(invalid="ignore"):         # exp(i inf) warns as it makes NaN
        assert main(["classify", "--spec", g2_spec, "--maxden", "12", "--format", "json",
                     "--alpha-angle", angle, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: ") and "unit circle" in err


@pytest.mark.parametrize("extra, flag", [
    (["--maxden", "12", "--format", "csv"], "--maxden"),
    (["--alpha-angle", "0.9"], "--alpha-angle"),
    (["--alpha-angle", "0.9", "--format", "csv"], "--alpha-angle"),
])
def test_classify_refuses_proximity_flags_it_would_ignore(extra, flag, g1_spec,
                                                          tmp_path, capsys):
    out = tmp_path / "rep.out"
    assert main(["classify", "--spec", g1_spec, "--out", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: ") and flag in err
    assert not out.exists()


@pytest.mark.parametrize("maxden", ["-3", "0", "40000"])
def test_classify_refuses_probe_bounds_it_cannot_honour(maxden, g1_spec, tmp_path, capsys):
    # -3 used to report pi/2, 0 to drop the report, 40000 to overflow int16
    out = tmp_path / "rep.json"
    assert main(["classify", "--spec", g1_spec, "--maxden", maxden, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: ") and "max_denominator" in err
    assert not out.exists()


def test_classify_refuses_maxden_zero_with_csv(g1_spec, tmp_path, capsys):
    out = tmp_path / "rep.csv"
    assert main(["classify", "--spec", g1_spec, "--maxden", "0", "--format", "csv",
                 "--out", str(out)]) == 2
    assert "--maxden" in capsys.readouterr().err


# ----------------------------------------------------------------- scan


def scan_to(path, *extra):
    return main(["scan", "--genus", "2", "--samples", "8", "--seed", "3",
                 "--out", str(path), *extra])


def test_scan_versioned_delimited_output(tmp_path):
    out = tmp_path / "scan.csv"
    assert scan_to(out) == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "# spectral-scan v1 genus=2 seed=3 samples=8"
    assert lines[1].startswith("# columns: ")
    header = lines[2].split(",")
    assert {"index", "genus", "stratum", "winding_arg", "gcd_degree"} <= set(header)
    rows = [l for l in lines[3:] if l and not l.startswith("#")]
    assert len(rows) == 8
    assert lines[-1].startswith("# summary")
    # figures land next to the delimited output
    assert (tmp_path / "scan.png").exists()


def test_scan_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert scan_to(a) == 0
    assert scan_to(b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_workers_preserve_order_and_bytes(tmp_path):
    # the quadrature settings cross the process boundary as a QuadConfig
    for k, extra in enumerate([(), ("--quad-nodes", "32", "--quad-tol", "1e-9")]):
        a, b = tmp_path / ("a%d.csv" % k), tmp_path / ("b%d.csv" % k)
        assert scan_to(a, *extra) == 0
        assert scan_to(b, "--workers", "2", *extra) == 0
        assert a.read_bytes() == b.read_bytes()


def test_scan_pool_is_capped_by_samples_and_cores(tmp_path, monkeypatch):
    # the stand-in pool records the size it is asked for and maps in this
    # process, so no worker is ever started
    sizes = []

    @contextlib.contextmanager
    def serial_pool(max_workers):
        sizes.append(max_workers)
        yield types.SimpleNamespace(map=lambda fn, jobs, chunksize: map(fn, jobs))

    monkeypatch.setattr(cli, "ProcessPoolExecutor", serial_pool)
    argv = ["scan", "--genus", "1", "--samples", "3", "--workers", "100000",
            "--out", str(tmp_path / "scan.csv")]
    for cores in (64, 2):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        assert main(argv) == 0
    assert sizes == [3, 2]


@pytest.mark.parametrize("arg", ["--samples=0", "--samples=-3", "--workers=0"])
def test_scan_rejects_invalid_sample_and_worker_counts(arg, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--genus", "2", arg, "--out", str(out)]) == 2
    assert "ValidationError" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_scan_exits_on_an_annulus_too_crowded_to_draw_from(monkeypatch, tmp_path, capsys):
    # a generator that repeats one point never clears the separation
    class Stuck:
        def uniform(self, low=0.0, high=1.0):
            return 0.5 * (low + high)

    monkeypatch.setattr(cli.np.random, "default_rng", lambda seed: Stuck())
    out = tmp_path / "scan.csv"
    argv = ["scan", "--genus", "2", "--samples", "1", "--workers", "1", "--out", str(out)]
    assert main(argv) == 2
    assert "annulus too crowded at genus 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def collinear_draw(monkeypatch):
    # two roots on one ray: homology_cycles cannot route the cuts
    monkeypatch.setattr(cli, "_sample_eta", lambda genus, rng: [0.3, 0.6])
    return ["scan", "--genus", "2", "--samples", "2", "--workers", "1"]


def test_scan_failure_rows_csv(monkeypatch, tmp_path):
    out = tmp_path / "scan.csv"
    assert main(collinear_draw(monkeypatch) + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    cols = lines[2].split(",")
    assert cols == _scan_columns(2)
    cells = [l.split(",") for l in lines[3:-1]]
    assert [len(c) for c in cells] == [len(cols)] * 2  # no comma in the error
    for row in (dict(zip(cols, c)) for c in cells):
        assert row["status"].startswith("ResolutionError: ")
        for c in ("deg_f", "winding_arg", "winding_roots", "gcd_degree",
                  "stratum", "v_index", "kernel_gap"):
            assert row[c] == ""
        assert [row[c] for c in cols[2:6]] == ["%.17g" % x for x in (0.3, 0, 0.6, 0)]
    assert lines[-1].endswith(" flagged=2")


def test_scan_failure_rows_json(monkeypatch, tmp_path):
    out = tmp_path / "scan.json"
    assert main(collinear_draw(monkeypatch) + ["--format", "json",
                                               "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [list(row) for row in data["rows"]] == [_scan_columns(2)] * 2
    assert data["flagged"] == 2
    assert data["occupancy"] == {}


def test_scan_and_classify_give_one_row_at_tol(monkeypatch, tmp_path):
    # a handle at t = 1e-4 leaves the pencil roots ~3e-9 apart: the gcd
    # tolerance decides the stratum, so scan must apply --tol as classify does
    from conftest import random_curve
    from spectralcurves.whitham import attach_handle

    curve = attach_handle(random_curve(1, 0), None, np.exp(-3j), 1e-4).basis.curve
    spec, scan_out, rep_out = (tmp_path / n for n in ("c.json", "scan.csv", "rep.csv"))
    spec.write_text(curve_to_json(curve))
    monkeypatch.setattr(cli, "_sample_eta", lambda genus, rng: list(curve.eta))
    tol = ["--tol", "1e-10", "--format", "csv"]
    assert main(["scan", "--genus", "2", "--samples", "1", "--out", str(scan_out)] + tol) == 0
    assert main(["classify", "--spec", str(spec), "--out", str(rep_out)] + tol) == 0
    scan_row, rep_row = (p.read_text().splitlines()[3] for p in (scan_out, rep_out))
    assert scan_row == rep_row
    row = dict(zip(_scan_columns(2), scan_row.split(",")))
    assert (row["stratum"], row["deg_f"]) == ("V_-1", "3")


def test_scan_genus_out_of_range(capsys):
    assert main(["scan", "--genus", "9", "--samples", "2"]) == 2
    assert "genus" in capsys.readouterr().err


def test_scan_json_format(tmp_path):
    out = tmp_path / "scan.json"
    assert scan_to(out, "--format", "json") == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == 1
    assert len(data["rows"]) == 8


# ----------------------------------------------------------------- flow


def test_flow_trajectory_csv(g2_spec, tmp_path):
    out = tmp_path / "flow.csv"
    rc = main(["flow", "--spec", g2_spec, "--dt", "1e-2", "--steps", "5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = lines[2].split(",")
    assert header[0] == "step"
    drift_cols = [i for i, c in enumerate(header) if c == "drift"]
    assert drift_cols
    rows = [l.split(",") for l in lines[3:] if l and not l.startswith("#")]
    assert len(rows) == 6
    drifts = [float(r[drift_cols[0]]) for r in rows[1:]]
    assert max(drifts) < 1e-7
    assert (tmp_path / "flow.png").exists()


def test_flow_abort_exit_code_with_partial_trajectory(g2_spec, tmp_path, capsys):
    out = tmp_path / "flow.csv"
    rc = main(["flow", "--spec", g2_spec, "--dt", "2e-2", "--steps", "40",
               "--q", "0.4+0.25i,-0.3,0.4-0.25i", "--out", str(out)])
    assert rc == 3
    assert "abort" in capsys.readouterr().err
    rows = [l for l in out.read_text().splitlines()[3:] if l and not l.startswith("#")]
    assert len(rows) > 1  # partial trajectory still written


def test_flow_that_aborts_at_its_first_step_still_writes_its_png(g2_spec, tmp_path,
                                                                monkeypatch, capsys):
    # every attempt at the first step fails: the trajectory is the initial
    # record alone, and the drift panel has no point to span
    from spectralcurves import whitham
    from spectralcurves.errors import ResolutionError

    def refuse(*args):
        raise ResolutionError("injected stage failure")

    monkeypatch.setattr(whitham, "_state_derivative", refuse)
    out = tmp_path / "flow.csv"
    assert main(["flow", "--spec", g2_spec, "--steps", "1", "--out", str(out)]) == 3
    assert "after 8 step halvings" in capsys.readouterr().err
    rows = [l for l in out.read_text().splitlines()[3:] if l and not l.startswith("#")]
    assert len(rows) == 1
    text, _ = png_pixels((tmp_path / "flow.png").read_bytes())
    assert "x = t from 0 to 1, y = log10 B-period drift from 0 to 1," in text["Axes"]


@pytest.mark.parametrize("arg", ["--dt=-1e-2", "--dt=0", "--dt=nan", "--dt=inf",
                                 "--steps=0", "--steps=-3"])
def test_flow_rejects_invalid_step_and_count(g1_spec, arg, capsys):
    assert main(["flow", "--spec", g1_spec, arg]) == 2
    assert "ValidationError" in capsys.readouterr().err


@pytest.mark.parametrize("q, message", [
    ("abc", "cannot parse --q"),
    ("1,2,3,4", "at most three coefficients"),
    # a NaN Q is not the zero Q, and a Q that is not reversal-real is an
    # input error, refused before any step rather than retried as one
    ("nan,0,nan", "non-finite coefficients"),
    ("1,2,3", "not reversal-real"),
])
def test_flow_rejects_unparsable_q(g1_spec, q, message, capsys):
    assert main(["flow", "--spec", g1_spec, "--q", q]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: ") and message in err


def test_flow_with_the_zero_q_is_the_rotation_flow(g1_spec, capsys):
    # --q 0,0,0 means no Q: the rotation flow, written byte for byte as without --q
    outs = []
    for extra in ([], ["--q", "0,0,0"]):
        assert main(["flow", "--spec", g1_spec, "--steps", "2", "--out", "-"] + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].startswith("# spectral-flow v1 genus=1")


# -------------------------------------------------------------- figures


def png_pixels(data):
    """Check the structure of an 8-bit RGB PNG; return its text chunks and
    its pixels as a (height, width, 3) array."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos, chunks = 8, []
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        kind, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(kind + body), kind
        chunks.append((kind, body))
        pos += 12 + length
    assert chunks[0][0] == b"IHDR" and chunks[-1] == (b"IEND", b"")
    width, height, depth, ctype, comp, filt, lace = struct.unpack(
        ">IIBBBBB", chunks[0][1])
    assert width > 0 and height > 0
    assert (depth, ctype, comp, filt, lace) == (8, 2, 0, 0, 0)
    raw = zlib.decompress(b"".join(b for k, b in chunks if k == b"IDAT"))
    assert len(raw) == height * (1 + 3 * width)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + 3 * width)
    assert set(rows[:, 0].tolist()) <= {0, 1, 2, 3, 4}
    assert not rows[:, 0].any()  # unfiltered rows, so bytes are pixels
    text = dict(b.decode("latin-1").split("\0", 1)
                for k, b in chunks if k == b"tEXt")
    return text, rows[:, 1:].reshape(height, width, 3)


def test_scan_and_flow_pngs_are_valid(g2_spec, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert scan_to(a) == 0
    assert scan_to(b, "--workers", "2") == 0
    scan_png = (tmp_path / "a.png").read_bytes()
    assert scan_png == (tmp_path / "b.png").read_bytes()
    flow = tmp_path / "flow.csv"
    assert main(["flow", "--spec", g2_spec, "--dt", "1e-2", "--steps", "5",
                 "--out", str(flow)]) == 0
    texts = []
    for data in (scan_png, (tmp_path / "flow.png").read_bytes()):
        text, pixels = png_pixels(data)
        assert text["Title"] and text["Legend"]
        assert len(np.unique(pixels.reshape(-1, 3), axis=0)) > 1
        texts.append(text)
    legend = texts[0]["Legend"]
    for entry in a.read_text().splitlines()[-1].split()[2:]:
        stratum, count = entry.split("=")
        assert (stratum + " #" in legend) == (int(count) > 0)


# --------------------------------------------------------------- deform


def test_deform_report(g1_spec, tmp_path):
    out = tmp_path / "deform.json"
    rc = main(["deform", "--spec", g1_spec, "--alpha-angle", "0.9",
               "--t", "1e-2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["t"] == 1e-2
    assert data["deg_f_after"] == data["deg_f_before"] + 1
    assert data["winding_after"] - data["winding_before"] == -data["sign_slope"]
    pts = data["new_circle_critical_points"]
    assert len(pts) == 2
    for re, im in pts:
        assert np.hypot(re, im) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("t", ["0", "nan", "inf", "-1e-2", "1.6", "3"])
def test_deform_rejects_invalid_handle_parameter(g1_spec, t, capsys):
    assert main(["deform", "--spec", g1_spec, "--alpha-angle", "0.9",
                 "--t=" + t]) == 2
    assert "ValidationError" in capsys.readouterr().err


def test_deform_near_the_common_root_stratum_exits_3(tmp_path, capsys):
    # the whitham benchmark input of test_handle_near_the_common_root_stratum_collapses
    spec = tmp_path / "collapse.json"
    spec.write_text(json.dumps({"eta": [[-0.16526390132706809, -0.21011795351346307],
                                        [0.46555348358128235, -0.5148181138842565]]}))
    assert main(["deform", "--spec", str(spec), "--alpha-angle", "-1.2372787010193307",
                 "--t", "3e-3"]) == 3
    assert capsys.readouterr().err.startswith("ResolutionError: deformed pencil")


# ------------------------------------------------------------------- gr


def test_gr_probe_from_plane_spec(tmp_path):
    spec = tmp_path / "plane.json"
    spec.write_text(json.dumps({"genus": 1, "M": [[-2.0, 0.0]]}))
    out = tmp_path / "gr.json"
    assert main(["gr", "--spec", str(spec), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["classify"]["gcd_degree"] == 1
    assert data["classify"]["in_R"] is True
    assert data["probe"]["dimension"] == 1
    assert data["probe"]["case"] == "S1_simple"


def test_gr_accepts_curve_spec(g1_spec, tmp_path):
    out = tmp_path / "gr.json"
    assert main(["gr", "--spec", g1_spec, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["classify"]["gcd_degree"] == 0
    assert data["probe"] is None
    assert data["plane"]["M"][0][0] == pytest.approx(-2.24631994, abs=1e-6)


def test_gr_seed_zero_is_not_the_default_seed(tmp_path):
    spec = tmp_path / "plane.json"
    spec.write_text(plane_to_json(shared_plane([np.exp(1.1j)], [], [0.3, -0.4j])))
    outs = {}
    for name, extra in (("default", []), ("0", ["--seed", "0"]), ("11", ["--seed", "11"])):
        out = tmp_path / ("gr-%s.json" % name)
        assert main(["gr", "--spec", str(spec), "--out", str(out)] + extra) == 0
        outs[name] = out.read_bytes()
    assert outs["default"] == outs["11"]
    assert outs["0"] != outs["11"]
    # gr's own default leaves every other subcommand's seed default at 0
    assert cli._build_parser().parse_args(["scan", "--genus", "1"]).seed == 0


def test_gr_rejects_unknown_record(tmp_path, capsys):
    spec = tmp_path / "odd.json"
    spec.write_text(json.dumps({"planes": []}))
    assert main(["gr", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "M" in err and "eta" in err


@pytest.mark.parametrize("command, record, field", [
    ("gr", {"M": [[-2.0, 0.0]]}, "'genus'"),
    ("gr", {"genus": 1, "M": "x"}, "'M'"),
    ("gr", {"genus": 2, "M": [[-2.0, 0.0]]}, "'M'"),
    ("classify", {"genus": "x", "eta": [[0.5, 0.0]]}, "'genus'"),
    ("classify", {"eta": [[0.5, 0.0]], "tol": "x"}, "'tol'"),
    ("gr", {"genus": 2, "M": [[-2.0, 0.0, 0.5, 0.1]]}, "'M'"),
    ("gr", {"genus": 1, "M": [[-2.0], [0.0]]}, "'M'"),
])
def test_malformed_record_fields_exit_2(command, record, field, tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(record))
    assert main([command, "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "ValidationError" in err and field in err


@pytest.mark.parametrize("command", [["classify"], ["deform", "--alpha-angle", "0.7"]])
@pytest.mark.parametrize("eta", [[[0.9999, 0]], [[0.9999, 0], [0, 0.9999]]])
def test_near_nodal_curve_exits_3(command, eta, tmp_path, capsys):
    spec = tmp_path / "nodal.json"
    spec.write_text(json.dumps({"eta": eta}))
    assert main(command[:1] + ["--spec", str(spec)] + command[1:]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ResolutionError") and "gcd of degree" in err


@pytest.mark.parametrize("command", ["gr", "classify"])
@pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"x"'])
def test_spec_that_is_not_a_json_object_exits_2(command, text, tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(text)
    assert main([command, "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ValidationError") and "not a JSON object" in err


def test_gr_accepts_the_empty_genus_zero_plane(tmp_path):
    spec, out = tmp_path / "plane.json", tmp_path / "gr.json"
    spec.write_text(json.dumps({"genus": 0, "M": []}))
    assert main(["gr", "--spec", str(spec), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["plane"] == {"genus": 0, "M": []}
    assert data["probe"] is None


def test_gr_rebuilds_a_curve_spec_at_tol(tmp_path, capsys):
    # --tol acts on a curve record as if it were the record's own "tol"
    record = curve_to_dict(build_curve([0.41 + 0.2j, -0.33 - 0.41j]))
    plain, at_tol, out = (tmp_path / n for n in ("plain.json", "at_tol.json", "gr.json"))
    plain.write_text(json.dumps(record))
    at_tol.write_text(json.dumps(dict(record, tol=1e-8)))
    assert main(["gr", "--tol", "1e-8", "--spec", str(plain), "--out", str(out)]) == 0
    plane = json.loads(out.read_text())["plane"]
    assert main(["gr", "--spec", str(at_tol), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["plane"] == plane
    # a tolerance below the curve's own rounding is refused the same way
    at_tol.write_text(json.dumps(dict(record, tol=1e-20)))
    assert main(["gr", "--tol", "1e-20", "--spec", str(plain)]) == 2
    refusal = capsys.readouterr().err
    assert main(["gr", "--spec", str(at_tol)]) == 2
    assert capsys.readouterr().err == refusal
    assert "reversal-reality" in refusal


# ------------------------------------------------ tolerance and quadrature


@pytest.mark.parametrize("argv", [
    ["scan", "--genus", "2", "--samples", "2", "--quad-nodes", "0"],
    ["scan", "--genus", "2", "--samples", "2", "--quad-nodes", "-4"],
    ["scan", "--genus", "2", "--samples", "2", "--quad-tol", "-1"],
    ["scan", "--genus", "2", "--samples", "2", "--quad-tol", "nan"],
    ["scan", "--genus", "2", "--samples", "2", "--tol", "0"],
    ["scan", "--genus", "2", "--samples", "2", "--tol", "-1"],
    ["classify", "--tol", "0"],
    ["classify", "--tol", "nan"],
    ["classify", "--quad-nodes", "0"],
    ["classify", "--quad-tol", "nan"],
    ["gr", "--tol", "-1"],
])
def test_bad_tolerance_and_quadrature_flags_exit_2(argv, g1_spec, tmp_path, capsys):
    out = tmp_path / "out.csv"
    spec = [] if argv[0] == "scan" else ["--spec", g1_spec]
    assert main(argv + spec + ["--out", str(out)]) == 2
    assert "ValidationError" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "g1.json"]


@pytest.mark.parametrize("command", ["scan", "classify", "flow", "deform", "gr"])
def test_negative_seed_exits_2_before_any_work(command, g1_spec, tmp_path, capsys):
    out = tmp_path / "out.csv"
    args = {"scan": ["--genus", "2", "--samples", "2"],
            "deform": ["--spec", g1_spec, "--alpha-angle", "0.9"]}
    argv = [command] + args.get(command, ["--spec", g1_spec])
    assert main(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert "ValidationError: --seed must be non-negative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "g1.json"]


@pytest.mark.parametrize("root", [["NaN", 0.0], [0.3, "NaN"]])
def test_non_finite_root_is_refused_by_name(root, tmp_path, capsys):
    import warnings

    spec = tmp_path / "nan.json"
    spec.write_text('{"eta": [[%s, %s]]}' % tuple(root))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classify", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: root (") and "is not finite" in err


# ---------------------------------------------------------------- --format


@pytest.mark.parametrize("argv", [
    ["flow", "--steps", "1"],
    ["deform", "--alpha-angle", "0.9"],
    ["gr"],
])
def test_single_format_commands_refuse_format(argv, g1_spec, tmp_path, capsys):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--spec", g1_spec, "--format", "json", "--out", str(out)])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "g1.json"]


# ------------------------------------------------------------ entrypoint


def test_console_script_smoke(g1_spec):
    # the child imports the same package as this process, however pytest
    # put it on sys.path (an exported PYTHONPATH or pyproject's pythonpath)
    pkg_root = os.path.dirname(os.path.dirname(spectralcurves.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from spectralcurves.cli import main; sys.exit(main(sys.argv[1:]))",
         "classify", "--spec", g1_spec],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert '"stratum": "V_0"' in proc.stdout
