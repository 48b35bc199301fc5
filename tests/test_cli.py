"""End-to-end checks of the batch driver: exit codes, formats, determinism."""

import json
import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

import spectralcurves
from spectralcurves.cli import main
from spectralcurves.curve import build_curve, curve_to_json


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


def test_classify_rational_proximity(g1_spec, tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["classify", "--spec", g1_spec, "--maxden", "6", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert "rational_plane_angle" in data
    assert data["rational_plane_angle"] >= 0.0


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
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert scan_to(a) == 0
    assert scan_to(b, "--workers", "2") == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_gr_rejects_unknown_record(tmp_path, capsys):
    spec = tmp_path / "odd.json"
    spec.write_text(json.dumps({"planes": []}))
    assert main(["gr", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "M" in err and "eta" in err


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
