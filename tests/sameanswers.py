"""Same-answers harness: every output of in-process benchmark ops, stored so
that two trees can be compared bit for bit.  Run by hand, not collected by
pytest:

    PYTHONPATH=src python tests/sameanswers.py record OUT --workload probe --seed 1 --ops 1400
    PYTHONPATH=src python tests/sameanswers.py compare A B

``record`` draws the first N op inputs of the timed stream of one workload
of ``perfbench/workloads.py`` (which it only reads) and runs the library
calls of each op untimed, storing one JSON line per op:

* ``scan``: the basis coefficient bytes, ``kernel_gap``, the
  ``InvariantReport`` and the ``gr_classify`` dict;
* ``whitham``: the ``HandleCheck``, the last flow record's basis, frame
  (b1, b2), period bytes, drift and t, the first flow record's period
  bytes, and the constant-Q tangent's bytes;
* ``probe``: the ``ProbeReport``, and for each proximity op the basis, the
  phi matrix bytes and the rational-plane distance;
* a refusal (a ``SpectralError``) as its type and message.

Each answered op also stores the accepted rule sizes (``a_nodes`` and
``b_nodes``) of every period engine it read, in the order it first read
them, so a change that reaches the same moments through other rules shows.

Floats are stored by ``float.hex`` and arrays by dtype, shape and bytes, so
equal lines mean identical bits.  ``compare`` names the first op whose line
differs and exits 1, or prints the op count and exits 0.  Import
``spectralcurves`` from the tree under test (``PYTHONPATH``); BLAS runs on
one thread, as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import spectralcurves as sc  # noqa: E402
from spectralcurves import periods  # noqa: E402
from spectralcurves.polyring import CPoly  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_read_engines = []
_real_engine = periods._engine


def _recording_engine(curve, quad):
    """``periods._engine``, noting each engine an op reads."""
    eng = _real_engine(curve, quad)
    _read_engines.append(eng)
    return eng


periods._engine = _recording_engine


def rule_sizes():
    """The ``a_nodes`` and ``b_nodes`` of each engine read since the last
    call, once each, in the order first read."""
    engines = list({id(e): e for e in _read_engines}.values())
    _read_engines.clear()
    return [[e.a_nodes, e.b_nodes] for e in engines]


def encode(x):
    """A JSON value that is equal for two outputs exactly when their bits are."""
    if isinstance(x, CPoly):
        return encode(x.coeffs)
    if isinstance(x, np.ndarray):
        return ["array", x.dtype.str, list(x.shape), x.tobytes().hex()]
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return [type(x).__name__] + [[f.name, encode(getattr(x, f.name))]
                                     for f in dataclasses.fields(x) if f.name != "curve"]
    if isinstance(x, dict):
        return [[k, encode(v)] for k, v in sorted(x.items())]
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    if isinstance(x, (bool, np.bool_, str)) or x is None:
        return x if not isinstance(x, np.bool_) else bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (complex, np.complexfloating)):
        return [complex(x).real.hex(), complex(x).imag.hex()]
    raise TypeError("no encoding for %r" % type(x))


def scan_op(wl, eta):
    curve = sc.build_curve(eta)
    basis = sc.solve_Ba(curve)
    return [basis, sc.classify(curve, basis), sc.gr_classify(sc.B_map(curve))]


def whitham_op(wl, inp):
    eta, u_alpha, q, t = inp
    curve = sc.build_curve(eta)
    records = sc.flow(curve, sc.rotation_selector, dt=wl.dt, steps=1)
    tangent = sc.whitham_tangent(curve, records[0].basis, q)
    alpha = wl.handle_point(records[0].basis, u_alpha)
    chk = sc.handle_invariant_check(records[0].curve, alpha, t)
    return [chk, records[-1], [records[0].periods_b1, records[0].periods_b2],
            [tangent.a_dot, tangent.b1_dot, tangent.b2_dot]]


def probe_op(wl, inp):
    kind, data = inp
    if kind != "proximity":
        return [sc.stratum_dimension_probe(sc.GrPlane(len(data), data), wl.radius)]
    # lam0 as the workload's proximity op picks it: the point of S^1
    # farthest from the cuts on a 720-point grid
    cuts = np.angle(np.asarray(data))
    grid = np.linspace(-np.pi, np.pi, 720, endpoint=False)
    dist = np.min(np.abs(np.angle(np.exp(1j * (grid[:, None] - cuts[None, :])))), axis=1)
    lam0 = complex(np.exp(1j * grid[int(np.argmax(dist))]))
    curve = sc.build_curve(data)
    basis = sc.solve_Ba(curve)
    mat = sc.phi_map(curve, basis, lam0)
    return [basis, mat, sc.rational_plane_distance(mat, max_denominator=wl.maxden,
                                                   shortlist=wl.shortlist)]


OPS = {"scan": scan_op, "whitham": whitham_op, "probe": probe_op}


def record(out, workload, seed, ops):
    wl = WORKLOADS[workload](seed)
    gen = wl.inputs(1)
    refused = 0
    with open(out, "w") as fh:
        for _ in range(ops):
            try:
                line = ["ok", encode(OPS[workload](wl, next(gen))), encode(rule_sizes())]
            except sc.SpectralError as exc:
                line = ["refused", type(exc).__name__, str(exc)]
                refused += 1
                rule_sizes()
            fh.write(json.dumps(line) + "\n")
    print("%s seed %d: %d ops recorded, %d refused" % (workload, seed, ops, refused))


def compare(a, b):
    with open(a) as fa, open(b) as fb:
        la, lb = fa.read().splitlines(), fb.read().splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            print("op %d differs:\n  %s\n  %s" % (i, x[:400], y[:400]))
            return 1
    if len(la) != len(lb):
        print("op counts differ: %d and %d" % (len(la), len(lb)))
        return 1
    print("%d ops identical" % len(la))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("out")
    rec.add_argument("--workload", choices=sorted(OPS), required=True)
    rec.add_argument("--seed", type=int, required=True)
    rec.add_argument("--ops", type=int, required=True)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    if args.cmd == "record":
        record(args.out, args.workload, args.seed, args.ops)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
