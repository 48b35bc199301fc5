"""CLI outputs against a recorded snapshot, exactly.

``data/cli_snapshot.json`` holds, for a fixed list of runs, the exit code
and every line the run writes to standard output, floats with all their
digits.  A run must reproduce them byte for byte: a record that gains,
loses or reorders a field, a changed stratum or exit code, and a change
in the last digit of a float all fail here.  The structure is compared
first, with every float replaced by ``"<float>"``, so a failure says
whether the layout or only the digits moved.  A change that moves floats
on purpose records the snapshot again, and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

import contextlib
import io
import json
import os
import re

import pytest

from spectralcurves.cli import main

from conftest import LOCUS_A, LOCUS_B, LOCUS_C

SNAPSHOT = os.path.join(os.path.dirname(__file__), "data", "cli_snapshot.json")
FLOAT = "<float>"
# CSV columns written with "%.17g": root coordinates, kernel gap, flow
# time, B-periods and drifts
FLOAT_COLUMN = re.compile(r"eta\d+_(re|im)|kernel_gap|t|B[12]_\d+_im|drift(\d_\d+)?")

SPECS = {
    "g1": {"eta": [[0.5, 0.0]]},
    "g2": {"eta": [[0.41, 0.2], [-0.33, -0.41]]},
    # random_curve(3, 11) of conftest
    "g3": {"eta": [[-0.10934877733070321, -0.06012717829593939],
                   [0.05253503112156976, -0.3379061468715635],
                   [0.22634037513192742, 0.37637671242840465]]},
    "plane": {"genus": 1, "M": [[-2.0, 0.0]]},
    # the common-root curves of conftest: gcd degree 2 off S^1 (A, B), a
    # root on S^1 (C)
    **{name: {"eta": [[z.real, z.imag] for z in eta]}
       for name, eta in (("locus_a", LOCUS_A), ("locus_b", LOCUS_B), ("locus_c", LOCUS_C))},
}

RUNS = (
    [["scan", "--genus", str(g), "--samples", "40", "--seed", "3"] + fmt
     for g in range(1, 5) for fmt in ([], ["--format", "json"])]
    + [["classify", "--spec", k] + extra for k in ("g1", "g2", "g3")
       for extra in ([], ["--maxden", "12", "--format", "json"])]
    + [["classify", "--spec", k] for k in ("locus_a", "locus_c")]
    + [["deform", "--spec", k, "--alpha-angle", a] for k in ("g1", "g2", "g3")
       for a in ("0.7", "2.2")]
    + [["gr", "--spec", k] for k in ("g2", "plane", "locus_b")]
    + [["flow", "--spec", "g2", "--dt", "1e-2", "--steps", "10"]]
)


def _floats_out(value):
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, list):
        return [_floats_out(v) for v in value]
    if isinstance(value, dict):
        return {k: _floats_out(v) for k, v in value.items()}
    return value


def skeleton(lines):
    """The output with its floats replaced: a JSON value, or for CSV the
    list of lines with float cells replaced."""
    if lines is None:
        return None
    text = "\n".join(lines)
    if text.startswith("{"):
        return _floats_out(json.loads(text))
    lines = text.splitlines()
    header = next(line for line in lines if not line.startswith("#"))
    floats = [bool(FLOAT_COLUMN.fullmatch(c)) for c in header.split(",")]
    out = []
    for line in lines:
        if not line.startswith("#") and line != header:
            line = ",".join(FLOAT if f else cell
                            for f, cell in zip(floats, line.split(",")))
        out.append(line)
    return out


def run(argv, spec_dir):
    """(exit code, output lines) of one in-process run."""
    argv = [os.path.join(spec_dir, a + ".json") if a in SPECS else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().split("\n") if buf.getvalue() else None


def _write_specs(spec_dir):
    for name, record in SPECS.items():
        with open(os.path.join(spec_dir, name + ".json"), "w") as fh:
            json.dump(record, fh)


@pytest.fixture(scope="module")
def recorded():
    with open(SNAPSHOT) as fh:
        return json.load(fh)


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: "-".join(argv))
def test_cli_output_matches_snapshot(argv, recorded, tmp_path):
    _write_specs(tmp_path)
    want = recorded[" ".join(argv)]
    code, got = run(argv, str(tmp_path))
    assert code == want["exit"]
    # dict equality ignores order; the dumps compare key order too
    assert json.dumps(skeleton(got)) == json.dumps(skeleton(want["output"]))
    assert got == want["output"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as spec_dir:
        _write_specs(spec_dir)
        snap = {}
        for argv in RUNS:
            code, out = run(argv, spec_dir)
            snap[" ".join(argv)] = {"exit": code, "output": out}
    os.makedirs(os.path.dirname(SNAPSHOT), exist_ok=True)
    with open(SNAPSHOT, "w") as fh:
        json.dump(snap, fh, indent=1)
        fh.write("\n")
