"""spectralcurves benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it also replays the same ops in a child process with
timing spans around every layer and prints the per-layer metrics.  The
last line of standard output is the JSON result; the lines before it
are the same figures for people, plus the run record.  It exits 1 when
an output check fails and 2 when no package is found.  See README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# Single-threaded BLAS: the matrices are at most a few dozen wide, and
# one thread keeps runs on a shared 2-core machine comparable.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import speed  # noqa: E402  (imports numpy, so after the BLAS setting)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")
SETUP_CHILDREN = 4
CHILD_TIMEOUT = 170


def load_program():
    """Import spectralcurves from the checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "spectralcurves", "__init__.py")):
        print("perfbench: no spectralcurves package under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import spectralcurves
    if os.path.dirname(os.path.dirname(os.path.abspath(spectralcurves.__file__))) != SRC:
        print("perfbench: spectralcurves imported from %s, not %s"
              % (spectralcurves.__file__, SRC), file=sys.stderr)
        sys.exit(2)
    return spectralcurves


def set_up(name, seed):
    """Import and warm-up, timed from the top of this script."""
    load_program()
    from workloads import WORKLOADS
    wl = WORKLOADS[name](seed)
    wl.warm_up()
    return wl, time.perf_counter() - T0


def child(args, *extra):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("perfbench child %s exited %d" % (extra, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values, q):
    """Nearest-rank percentile.  Failed ops sort last as inf; a percentile
    that lands on one reads as the largest float, so the JSON stays valid."""
    value = sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
    return value if math.isfinite(value) else sys.float_info.max


def run_record():
    import numpy
    import scipy
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS, "commit": commit}


def cli_timings(tmp):
    """Wall time of one in-process `spectral` run per subcommand on fixed
    inputs.  Without matplotlib the CLI renders no PNG, and these times
    leave rendering out."""
    from spectralcurves import build_curve, cli, curve_to_json, plane_to_json
    from workloads import shared_plane
    os.makedirs(tmp, exist_ok=True)
    specs = {
        "g1": curve_to_json(build_curve([0.5])),
        "g2": curve_to_json(build_curve([0.41 + 0.2j, -0.33 - 0.41j])),
        "g2b": curve_to_json(build_curve([0.2 - 0.55j, -0.52 + 0.21j])),
        "plane": plane_to_json(shared_plane([complex(math.cos(1.1), -math.sin(1.1))],
                                             [], [0.3, -0.4j])),
    }
    for key, text in specs.items():
        with open(os.path.join(tmp, key + ".json"), "w") as fh:
            fh.write(text)

    def spec(key):
        return os.path.join(tmp, key + ".json")

    runs = {
        "scan": ["scan", "--genus", "3", "--samples", "50", "--seed", "1", "--workers", "1"],
        "flow": ["flow", "--spec", spec("g2"), "--dt", "1e-3", "--steps", "20"],
        "deform": ["deform", "--spec", spec("g1"), "--alpha-angle", "0.9", "--t", "1e-2"],
        "gr": ["gr", "--spec", spec("plane")],
        "classify_maxden": ["classify", "--spec", spec("g2b"), "--maxden", "12"],
    }
    out = {}
    for name, argv in runs.items():
        before = speed.factor()
        t0 = time.perf_counter()
        rc = cli.main(argv + ["--out", os.path.join(tmp, name + ".out")])
        wall = time.perf_counter() - t0
        out["cli.%s.ms" % name] = 1e3 * wall * 0.5 * (before + speed.factor())
        if rc != 0:
            raise RuntimeError("spectral %s exited %d" % (name, rc))
    return out


def role_setup(args):
    _, setup_s = set_up(args.workload, args.seed)
    print(json.dumps({"setup_s": setup_s * speed.factor()}))


def role_traced(args):
    """Replay the first --ops inputs of the timed stream with spans on."""
    wl, _ = set_up(args.workload, args.seed)
    from tracing import Tracer
    gen = wl.inputs(1)
    inputs = [next(gen) for _ in range(args.ops)]
    tracer = Tracer()
    tracer.install()
    clock = speed.ScaledClock()
    for inp in inputs:
        clock.add(wl.op(inp))
    clock.close()
    tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, "spans_%s_seed%d.npz" % (args.workload, args.seed)))
    metrics = tracer.summary(scale=clock.scaled_s / clock.raw_s)

    extra = wl.extra()
    accepted = extra.get("steps_accepted", 0)
    rejected = extra.get("step_rejections", 0)
    metrics["whitham.step_rejections"] = rejected
    metrics["whitham.step_accept_ratio"] = (
        accepted / (accepted + rejected) if accepted + rejected else 1.0)
    metrics["whitham.handle_t_halvings"] = extra.get("handle_t_halvings", 0)
    tmp = os.path.join(OUT, "cli_%s_seed%d" % (args.workload, args.seed))
    try:
        metrics.update(cli_timings(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"wall_s": clock.scaled_s, "ops": len(inputs), "metrics": metrics}))


def role_main(args):
    wl, setup_main = set_up(args.workload, args.seed)
    setups = [setup_main * speed.factor()] + [
        child(args, "--role", "setup")["setup_s"] for _ in range(SETUP_CHILDREN)]

    gen = wl.inputs(1)
    n_inputs = 0
    clock = speed.ScaledClock()
    t_loop = time.perf_counter()
    while time.perf_counter() - t_loop < args.seconds:
        clock.add(wl.op(next(gen)))
        n_inputs += 1
    clock.close()
    latencies, elapsed = clock.latencies, clock.scaled_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digits = wl.period_digits()
    problems = wl.check()
    attempted = len(latencies)
    typed = sum(1 for x in latencies if x == math.inf)
    failed = min(attempted, typed + len(problems))
    lat = sorted(latencies)
    p50, p90 = percentile(lat, 0.5), percentile(lat, 0.9)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((attempted - typed) / elapsed, "1/s"),
        "op_ms.p50": (min(1e3 * p50, sys.float_info.max), "ms"),
        "op_ms.p90": (min(1e3 * p90, sys.float_info.max), "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "period_digits": (digits, "digits"),
    }

    from workloads import REF_QUAD
    record = run_record()
    record.update(workload=wl.name, seed=args.seed, seconds=args.seconds,
                  timed_wall_s=clock.raw_s, timed_scaled_s=elapsed,
                  speed_factor=elapsed / clock.raw_s, inputs=n_inputs, ops=attempted,
                  failed_typed=typed, failed_checks=len(problems),
                  setup_samples_s=setups,
                  ref_quad={"nodes": REF_QUAD.nodes, "tol": REF_QUAD.tol}, **wl.extra())
    print("record %s" % json.dumps(record))
    for line in problems:
        print("CHECK FAILED %s" % line)
    beyond = attempted - math.ceil(0.9 * attempted)
    print("%s: %d ops in %.3f s wall, %.3f s scaled to the reference speed; "
          "latency samples n=%d, %d beyond p90%s"
          % (wl.name, attempted, clock.raw_s, elapsed, attempted, beyond,
             "" if beyond >= 10 else " (fewer than 10: p90 is not resolved)"))
    print("%s: fail_ratio = %d/%d = %.4g (typed errors %d, failed checks %d)"
          % (wl.name, failed, attempted, failed / attempted, typed, len(problems)))
    for key, (value, unit) in e2e.items():
        print("%s: %s = %.6g %s" % (wl.name, key, value, unit))

    if args.trace:
        traced = child(args, "--role", "traced", "--ops", str(n_inputs))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in traced["metrics"].items()}
        overhead = traced["wall_s"] - elapsed
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for key, m in metrics.items():
            print("%s: %s = %.6g %s" % (wl.name, key, m["value"], m["unit"]))
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


def unit_of(key):
    if key.endswith(".calls") or key.endswith("step_rejections") or key.endswith("halvings"):
        return "count"
    if key.endswith("ms"):
        return "ms"
    return "ratio"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan", "whitham", "probe"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "traced"), default="main",
                    help=argparse.SUPPRESS)
    ap.add_argument("--ops", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.role == "setup":
        return role_setup(args)
    if args.role == "traced":
        return role_traced(args)
    return role_main(args)


if __name__ == "__main__":
    sys.exit(main())
