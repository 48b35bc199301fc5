"""Batch driver for the spectral-curve toolkit.

Subcommands validate and build curves, compute pencils and invariants,
scan random moduli samples, run handle deformations and isoperiodic
flows, and probe plane strata; results are written as CSV or JSON that
downstream plotting and regression baselines can consume unchanged.
Scan and flow outputs also render a PNG figure next to the delimited
file so a run leaves something a human can look at.

Everything is deterministic given (inputs, seed, tolerances): sample
index ``i`` of a scan draws from ``SeedSequence(seed, spawn_key=(i,))``
no matter how many workers are used, and no output contains timestamps.

Exit codes: 0 success, 2 input/validation, 3 numerical resolution
failure, 4 internal invariant violation (always a bug).
"""

import argparse
import json
import logging
import os
import struct
import sys
import zlib
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .curve import build_curve, curve_from_dict, curve_to_dict
from .errors import SpectralError, ValidationError
from .grassmann import (B_map, gr_classify, plane_from_dict, plane_to_dict,
                        probe_to_dict, stratum_dimension_probe)
from .invariants import GCD_TOL, classify
from .periods import QuadConfig, phi_map, rational_plane_distance, solve_Ba
from .polyring import CPoly
from .whitham import (FlowAbort, constant_Q_selector, flow,
                      handle_invariant_check, rotation_selector)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
MAX_SCAN_GENUS = 4
ANNULUS = (0.05, 0.95)
MIN_SEPARATION = 0.05

__all__ = ["main", "cmd_classify", "cmd_scan", "cmd_flow", "cmd_deform",
           "cmd_gr"]


# ---------------------------------------------------------------------------
# small shared helpers
# ---------------------------------------------------------------------------

def _fmt(x):
    return "%.17g" % float(x)


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)
    log.info("wrote %s", path)


def _write_json(path, data):
    _write_text(path, json.dumps(data, indent=2, sort_keys=False) + "\n")


def _figure_path(out):
    if out in (None, "-"):
        return None
    stem, _ = os.path.splitext(out)
    return stem + ".png"


def _load_spec(cfg, what):
    """The parsed JSON of the --spec file; ``what`` names the record kinds
    it may hold."""
    if not cfg.spec:
        raise ValidationError("missing --spec: %s" % what)
    try:
        with open(cfg.spec) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError("cannot read --spec %s: %s" % (cfg.spec, exc))
    except ValueError as exc:
        raise ValidationError("--spec %s is not JSON: %s" % (cfg.spec, exc))


def _load_curve(cfg):
    curve = curve_from_dict(_load_spec(cfg, "a curve record file is needed"))
    if cfg.tol is not None:
        curve = build_curve(curve.eta, tol=cfg.tol)
    return curve


def _pairs(values):
    return [[z.real, z.imag] for z in np.atleast_1d(np.asarray(values))]


def _eta_columns(genus):
    return [c for j in range(genus) for c in ("eta%d_re" % j, "eta%d_im" % j)]


def _eta_cells(eta):
    cells = {}
    for j, z in enumerate(eta):
        cells["eta%d_re" % j] = _fmt(z.real)
        cells["eta%d_im" % j] = _fmt(z.imag)
    return cells


def _table(kind, genus, seed, cols, rows):
    """The versioned CSV table: two comment lines, the header, one line per
    row."""
    lines = ["# spectral-%s v%d genus=%d seed=%d samples=%d"
             % (kind, SCHEMA_VERSION, genus, seed, len(rows)),
             "# columns: " + ",".join(cols), ",".join(cols)]
    lines += [",".join(row[c] for c in cols) for row in rows]
    return "\n".join(lines) + "\n"


def _report_dict(rep):
    return {
        "genus": rep.genus,
        "deg_f": rep.deg_f,
        "gcd_degree": rep.gcd_degree,
        "gcd_roots": _pairs(rep.gcd_roots),
        "winding_arg": rep.winding_arg,
        "winding_roots": rep.winding_roots,
        "stratum": rep.stratum,
        "v_index": rep.v_index,
        "lambda0": _pairs(rep.lambda0),
        "genus0_flags": list(rep.genus0_flags),
    }


# ---------------------------------------------------------------------------
# figures: numpy raster written as a stdlib PNG
# ---------------------------------------------------------------------------

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")
_BLACK, _GREY = "#000000", "#c0c0c0"
_DISC = (-1.05, 1.05, -1.05, 1.05)   # data window around the unit disc


def _span(values):
    """Padded (lo, hi) of the finite values, (0, 1) when there are none."""
    vals = np.asarray(values, dtype=float).ravel()
    vals = vals[np.isfinite(vals)]
    if not len(vals):
        return 0.0, 1.0
    lo, hi = float(vals.min()), float(vals.max())
    pad = 0.05 * (hi - lo) or 0.5
    return lo - pad, hi + pad


class _Panel:
    """Data window ``limits = (x0, x1, y0, y1)`` drawn into the pixel box
    ``box = (left, top, width, height)`` of an RGB image; y points up.
    Marks outside the box and non-finite points are dropped."""

    def __init__(self, img, box, limits):
        self.img, self.box, self.limits = img, box, limits

    def _px(self, xs, ys):
        left, top, w, h = self.box
        x0, x1, y0, y1 = self.limits
        cols = left + (np.asarray(xs, dtype=float) - x0) / (x1 - x0) * (w - 1)
        rows = top + (y1 - np.asarray(ys, dtype=float)) / (y1 - y0) * (h - 1)
        return cols, rows

    def _put(self, cols, rows, color):
        left, top, w, h = self.box
        cols, rows = np.rint(cols), np.rint(rows)
        keep = ((cols >= left) & (cols < left + w)
                & (rows >= top) & (rows < top + h))
        rgb = [int(color[k:k + 2], 16) for k in (1, 3, 5)]
        self.img[rows[keep].astype(int), cols[keep].astype(int)] = rgb

    def line(self, xs, ys, color, dash=0):
        """Polyline sampled once per pixel step; ``dash`` > 0 draws every
        other run of that many samples."""
        c, r = self._px(xs, ys)
        seg = np.isfinite(c) & np.isfinite(r)
        seg = seg[:-1] & seg[1:]
        c0, r0 = c[:-1][seg], r[:-1][seg]
        dc, dr = np.diff(c)[seg], np.diff(r)[seg]
        n = np.ceil(np.maximum(abs(dc), abs(dr))).astype(int) + 1
        idx = np.repeat(np.arange(len(n)), n)
        frac = ((np.arange(len(idx)) - np.repeat(np.cumsum(n) - n, n))
                / np.repeat(np.maximum(n - 1, 1), n))
        cs, rs = c0[idx] + frac * dc[idx], r0[idx] + frac * dr[idx]
        if dash:
            on = (np.arange(len(cs)) // dash) % 2 == 0
            cs, rs = cs[on], rs[on]
        self._put(cs, rs, color)

    def dots(self, xs, ys, color, radius):
        c, r = self._px(xs, ys)
        d = np.arange(-radius, radius + 1)
        dx, dy = np.meshgrid(d, d)
        disc = dx ** 2 + dy ** 2 <= radius ** 2
        self._put((c[:, None] + dx[disc]).ravel(),
                  (r[:, None] + dy[disc]).ravel(), color)

    def circle(self, radius, color, dash=0):
        th = np.linspace(0, 2 * np.pi, 256)
        self.line(radius * np.cos(th), radius * np.sin(th), color, dash)


def _png_chunk(kind, data):
    return (struct.pack(">I", len(data)) + kind + data
            + struct.pack(">I", zlib.crc32(kind + data)))


def _write_png(path, img, text):
    """8-bit RGB PNG of ``img`` (height, width, 3) with ``text`` pairs as
    tEXt chunks.  No tIME chunk and a fixed zlib level, so equal images
    give equal bytes."""
    h, w, _ = img.shape
    raw = np.zeros((h, 1 + 3 * w), dtype=np.uint8)   # filter byte 0: None
    raw[:, 1:] = img.reshape(h, 3 * w)
    chunks = [_png_chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))]
    chunks += [_png_chunk(b"tEXt", (k + "\0" + v).encode("latin-1"))
               for k, v in text]
    chunks += [_png_chunk(b"IDAT", zlib.compress(raw.tobytes(), 6)),
               _png_chunk(b"IEND", b"")]
    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n" + b"".join(chunks))
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(cfg):
    curve = _load_curve(cfg)
    quad = cfg.quad
    basis = solve_Ba(curve, quad=quad)
    rep = classify(curve, basis=basis, tol=cfg.tol or GCD_TOL, quad=quad)
    gap = float(basis.kernel_gap)
    data = {"schema_version": SCHEMA_VERSION,
            "curve": curve_to_dict(curve),
            "kernel_gap": gap if np.isfinite(gap) else None}
    data.update(_report_dict(rep))
    if cfg.maxden:
        angle = cfg.alpha_angle
        if angle is None:
            # farthest point on S^1 from every branch-cut crossing
            cuts = np.asarray(curve.cut_angles, dtype=float)
            if len(cuts):
                grid = np.linspace(-np.pi, np.pi, 720, endpoint=False)
                dist = np.min(np.abs(np.angle(
                    np.exp(1j * (grid[:, None] - cuts[None, :])))), axis=1)
                angle = float(grid[int(np.argmax(dist))])
            else:
                angle = np.pi
        lam0 = complex(np.exp(1j * angle))
        mat = phi_map(curve, basis, lam0, quad=quad)
        data["phi"] = [list(map(float, row)) for row in mat]
        data["rational_plane_angle"] = float(
            rational_plane_distance(mat, max_denominator=cfg.maxden))
        data["maxden"] = cfg.maxden
    if cfg.fmt == "csv":
        row = _scan_row_from_report(0, curve, rep, float(basis.kernel_gap))
        _write_text(cfg.out, _table("classify", curve.genus, cfg.seed,
                                    _scan_columns(curve.genus), [row]))
    else:
        _write_json(cfg.out, data)
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _scan_columns(genus):
    return (["index", "genus"] + _eta_columns(genus)
            + ["status", "deg_f", "winding_arg", "winding_roots",
               "gcd_degree", "stratum", "v_index", "kernel_gap"])


def _sample_eta(genus, rng):
    """Uniform (by area) draw from the annulus with min-separation rejection."""
    lo2, hi2 = ANNULUS[0] ** 2, ANNULUS[1] ** 2
    eta = []
    for _ in range(genus):
        for _attempt in range(1000):
            r = float(np.sqrt(rng.uniform(lo2, hi2)))
            z = r * np.exp(2j * np.pi * rng.uniform())
            if all(abs(z - w) >= MIN_SEPARATION for w in eta):
                eta.append(complex(z))
                break
        else:  # pragma: no cover - astronomically unlikely at genus <= 4
            raise ValidationError("annulus too crowded at genus %d" % genus)
    return eta


def _scan_row_from_report(index, curve, rep, kernel_gap):
    row = {"index": str(index), "genus": str(curve.genus), "status": "ok",
           "deg_f": str(rep.deg_f), "winding_arg": str(rep.winding_arg),
           "winding_roots": str(rep.winding_roots),
           "gcd_degree": str(rep.gcd_degree), "stratum": rep.stratum,
           "v_index": "" if rep.v_index is None else str(rep.v_index),
           "kernel_gap": _fmt(kernel_gap)}
    row.update(_eta_cells(curve.eta))
    return row


def _scan_one(args):
    genus, seed, index, tol, quad = args
    rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                       spawn_key=(index,)))
    eta = _sample_eta(genus, rng)
    try:
        curve = build_curve(eta, tol=tol) if tol else build_curve(eta)
        basis = solve_Ba(curve, quad=quad)
        rep = classify(curve, basis=basis, quad=quad)
    except SpectralError as exc:
        row = dict.fromkeys(_scan_columns(genus), "")
        row.update(_eta_cells(eta), index=str(index), genus=str(genus),
                   status="%s: %s" % (type(exc).__name__,
                                      str(exc).replace(",", ";")))
        return row
    return _scan_row_from_report(index, curve, rep, float(basis.kernel_gap))


def _render_scan_figure(path, genus, rows):
    img = np.full((720, 720, 3), 255, dtype=np.uint8)
    ax = _Panel(img, (40, 40, 640, 640), _DISC)
    ax.circle(1.0, _BLACK)
    for r in ANNULUS:
        ax.circle(r, _BLACK, dash=3)
    groups = {}
    for row in rows:
        pts = groups.setdefault(row["stratum"] or "flagged", [])
        pts += [complex(float(row["eta%d_re" % j]), float(row["eta%d_im" % j]))
                for j in range(genus)]
    legend = []
    for i, key in enumerate(sorted(groups)):
        color = PALETTE[i % len(PALETTE)]
        pts = np.asarray(groups[key], dtype=complex)
        ax.dots(pts.real, pts.imag, color, radius=2)
        legend.append("%s %s" % (key, color))
    _write_png(path, img, [
        ("Title", "genus %d scan: root samples by stratum" % genus),
        ("Legend", "; ".join(legend))])


def cmd_scan(cfg):
    if not 0 <= cfg.genus <= MAX_SCAN_GENUS:
        raise ValidationError("scan genus %d outside 0..%d"
                              % (cfg.genus, MAX_SCAN_GENUS))
    if cfg.samples < 1 or cfg.workers < 1:
        raise ValidationError("scan needs --samples >= 1 and --workers >= 1, "
                              "got samples=%d, workers=%d"
                              % (cfg.samples, cfg.workers))
    jobs = [(cfg.genus, cfg.seed, i, cfg.tol, cfg.quad)
            for i in range(cfg.samples)]
    # a fork pool starts all its workers at once: no more than needed
    workers = min(cfg.workers, cfg.samples, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scan_one, jobs, chunksize=8))
    else:
        rows = [_scan_one(j) for j in jobs]

    occupancy = Counter(row["stratum"] for row in rows
                        if row["status"] == "ok")
    flagged = len(rows) - sum(occupancy.values())
    summary = " ".join("%s=%d" % (k, occupancy[k]) for k in sorted(occupancy))

    if cfg.fmt == "json":
        _write_json(cfg.out, {"schema_version": SCHEMA_VERSION,
                              "genus": cfg.genus, "seed": cfg.seed,
                              "rows": rows,
                              "occupancy": occupancy, "flagged": flagged})
    else:
        _write_text(cfg.out, _table("scan", cfg.genus, cfg.seed,
                                    _scan_columns(cfg.genus), rows)
                    + "# summary %s flagged=%d\n" % (summary, flagged))
        fig = _figure_path(cfg.out)
        if fig:
            _render_scan_figure(fig, cfg.genus, rows)
    log.info("scan occupancy: %s flagged=%d", summary or "(none)", flagged)
    return 0


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def _parse_Q(text):
    if text is None:
        return None
    parts = [p.strip().replace("i", "j") for p in text.split(",")]
    try:
        coeffs = [complex(p) for p in parts if p]
    except ValueError as exc:
        raise ValidationError("cannot parse --q %r: %s" % (text, exc))
    if len(coeffs) > 3:
        raise ValidationError("--q takes at most three coefficients")
    if not any(abs(c) > 0 for c in coeffs):
        return None
    return CPoly(coeffs, degree=2)


def _flow_columns(genus):
    cols = ["step", "t"] + _eta_columns(genus)
    for j in range(genus):
        cols += ["B1_%d_im" % j, "B2_%d_im" % j]
    for j in range(genus):
        cols += ["drift1_%d" % j, "drift2_%d" % j]
    cols.append("drift")
    return cols


def _flow_rows(records):
    base = records[0]
    rows = []
    for k, rec in enumerate(records):
        row = {"step": str(k), "t": _fmt(rec.t), "drift": _fmt(rec.drift)}
        row.update(_eta_cells(rec.curve.eta))
        for j in range(rec.curve.genus):
            row["B1_%d_im" % j] = _fmt(rec.periods_b1[j].imag)
            row["B2_%d_im" % j] = _fmt(rec.periods_b2[j].imag)
            row["drift1_%d" % j] = _fmt(abs(rec.periods_b1[j]
                                            - base.periods_b1[j]))
            row["drift2_%d" % j] = _fmt(abs(rec.periods_b2[j]
                                            - base.periods_b2[j]))
        rows.append(row)
    return rows


def _render_flow_figure(path, genus, rows):
    img = np.full((600, 1320, 3), 255, dtype=np.uint8)
    ax1 = _Panel(img, (40, 40, 520, 520), _DISC)
    ax1.circle(1.0, _BLACK)
    legend = []
    for j in range(genus):
        color = PALETTE[j % len(PALETTE)]
        xs = [float(r["eta%d_re" % j]) for r in rows]
        ys = [float(r["eta%d_im" % j]) for r in rows]
        ax1.line(xs, ys, color)
        ax1.dots(xs[:1], ys[:1], color, radius=3)
        legend.append("eta%d %s" % (j, color))

    ts = [float(r["t"]) for r in rows[1:]]
    names = ["drift%d_%d" % (k, j) for j in range(genus) for k in (1, 2)]
    logs = [np.log10(np.maximum([float(r[name]) for r in rows[1:]], 1e-17))
            for name in names]
    (x0, x1), (y0, y1) = _span(ts), _span(logs)
    ax2 = _Panel(img, (640, 40, 640, 520), (x0, x1, y0, y1))
    for decade in range(int(np.ceil(y0)), int(np.floor(y1)) + 1):
        ax2.line([x0, x1], [decade, decade], _GREY, dash=2)
    ax2.line([x0, x1, x1, x0, x0], [y0, y0, y1, y1, y0], _BLACK)
    for i, (name, ys) in enumerate(zip(names, logs)):
        color = PALETTE[i % len(PALETTE)]
        ax2.line(ts, ys, color)
        legend.append("%s %s" % (name, color))
    _write_png(path, img, [
        ("Title", "root trajectories (dot = start); B-period drift"),
        ("Axes", "left: roots in the unit disc; right: x = t from %.6g to "
                 "%.6g, y = log10 B-period drift from %.6g to %.6g, grey "
                 "lines at integer decades" % (x0, x1, y0, y1)),
        ("Legend", "; ".join(legend))])


def cmd_flow(cfg):
    curve = _load_curve(cfg)
    Q = _parse_Q(cfg.q)
    if Q is None:
        log.info("Q = 0: using the rotation direction")
        selector = rotation_selector
    else:
        selector = constant_Q_selector(Q)
    code = 0
    try:
        records = flow(curve, selector, cfg.dt, cfg.steps, quad=cfg.quad,
                       tol=cfg.tol)
    except FlowAbort as exc:
        log.error("%s", exc)
        print("flow aborted: %s" % exc, file=sys.stderr)
        records = exc.trajectory
        code = exc.exit_code
    if not records:
        return code or 3
    rows = _flow_rows(records)
    _write_text(cfg.out, _table("flow", curve.genus, cfg.seed,
                                _flow_columns(curve.genus), rows))
    fig = _figure_path(cfg.out)
    if fig:
        _render_flow_figure(fig, curve.genus, rows)
    return code


# ---------------------------------------------------------------------------
# deform
# ---------------------------------------------------------------------------

def cmd_deform(cfg):
    curve = _load_curve(cfg)
    alpha = complex(np.exp(1j * cfg.alpha_angle))
    check = handle_invariant_check(curve, alpha, cfg.t,
                                   tol=cfg.tol or GCD_TOL, quad=cfg.quad)
    data = {
        "schema_version": SCHEMA_VERSION,
        "curve": curve_to_dict(curve),
        "alpha": [alpha.real, alpha.imag],
        "t": check.t,
        "deg_f_before": check.deg_f_before,
        "deg_f_after": check.deg_f_after,
        "winding_before": check.winding_before,
        "winding_after": check.winding_after,
        "sign_slope": check.sign_slope,
        "new_circle_critical_points": _pairs(check.new_circle_critical_points),
    }
    _write_json(cfg.out, data)
    return 0


# ---------------------------------------------------------------------------
# plane probe
# ---------------------------------------------------------------------------

def cmd_gr(cfg):
    data = _load_spec(cfg, "a plane or curve record file")
    if "M" in data:
        plane = plane_from_dict(data)
    elif "eta" in data:
        curve = curve_from_dict(data)
        plane = B_map(curve, quad=cfg.quad)
    else:
        raise ValidationError(
            "record needs either an 'M' matrix (plane) or an 'eta' list "
            "(curve); got keys %s" % sorted(data))
    rep = gr_classify(plane, tol=cfg.tol or GCD_TOL)
    out = {"schema_version": SCHEMA_VERSION,
           "plane": plane_to_dict(plane),
           "classify": {"gcd_degree": rep["gcd_degree"],
                        "in_R": rep["in_R"],
                        "S1_roots": _pairs(rep["S1_roots"])}}
    if rep["gcd_degree"] > 0 and plane.genus > 0:
        probe = stratum_dimension_probe(plane, tol=cfg.tol or GCD_TOL,
                                        seed=cfg.seed or 11)
        out["probe"] = probe_to_dict(probe)
    else:
        out["probe"] = None
    _write_json(cfg.out, out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="-", metavar="PATH",
                        help="output file ('-' for stdout)")
    common.add_argument("--tol", type=float, default=None,
                        help="tolerance override")
    common.add_argument("--quad-nodes", type=int, default=None,
                        help="starting quadrature node count")
    common.add_argument("--quad-tol", type=float, default=None,
                        help="quadrature doubling tolerance")
    common.add_argument("--seed", type=int, default=0, help="RNG seed")

    ap = argparse.ArgumentParser(
        prog="spectral",
        description="spectral curve pencils, invariants, deformations")
    sub = ap.add_subparsers(dest="command", required=True)
    # only classify and scan have two output formats
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", dest="fmt", choices=("csv", "json"),
                     default=None, help="output format")

    p = sub.add_parser("classify", parents=[common, fmt],
                       help="invariant report for one curve")
    p.add_argument("--spec", required=True, metavar="PATH")
    p.add_argument("--maxden", type=int, default=None,
                   help="also report rational-plane proximity up to this "
                        "denominator bound")
    p.add_argument("--alpha-angle", type=float, default=None,
                   help="unit-circle marker angle for the proximity report "
                        "(default: farthest from the branch cuts)")

    p = sub.add_parser("scan", parents=[common, fmt],
                       help="random moduli scan at fixed genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("flow", parents=[common],
                       help="isoperiodic RK4 flow")
    p.add_argument("--spec", required=True, metavar="PATH")
    p.add_argument("--q", default=None, metavar="c0,c1,c2",
                   help="constant direction polynomial (omit or zeros for "
                        "the rotation direction)")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=100)

    p = sub.add_parser("deform", parents=[common],
                       help="handle attachment with invariant checks")
    p.add_argument("--spec", required=True, metavar="PATH")
    p.add_argument("--alpha-angle", type=float, required=True,
                   help="angle of the attachment point on the unit circle")
    p.add_argument("--t", type=float, default=1e-2,
                   help="smoothing parameter (halved on retry)")

    p = sub.add_parser("gr", parents=[common],
                       help="classify a plane and probe its stratum")
    p.add_argument("--spec", required=True, metavar="PATH",
                   help="plane record {genus, M} or curve record {eta}")
    return ap


_COMMANDS = {"classify": cmd_classify, "scan": cmd_scan, "flow": cmd_flow,
             "deform": cmd_deform, "gr": cmd_gr}


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("SPECTRAL_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    cfg = _build_parser().parse_args(argv)
    cfg.quad = None
    if cfg.quad_nodes is not None or cfg.quad_tol is not None:
        cfg.quad = QuadConfig(nodes=cfg.quad_nodes or QuadConfig.nodes,
                              tol=cfg.quad_tol or QuadConfig.tol)
    try:
        return _COMMANDS[cfg.command](cfg)
    except SpectralError as exc:
        log.debug("traceback", exc_info=True)
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
