"""The three benchmark workloads: seeded inputs, timed ops, output checks.

Inputs are stratified: a workload cycles through a fixed list of strata
(genus, handle parameter, plane case, ...) and each stratum
draws its points from a randomly shifted low-discrepancy sequence seeded
by ``SeedSequence(seed, spawn_key=(workload, stream, stratum))``.  Every
run therefore covers the input space evenly, so runs on different seeds
differ less than independent draws would, and the seed still picks the
inputs.  Stream 1 feeds the timed phase.  The warm-up draws from stream 0
of a fixed seed, so set-up does the same work on every run; the streams
are disjoint, so no timed curve can hit an engine that the warm-up left
in the ``(curve, quad)`` memo of ``spectralcurves.periods``, and
``Workload.fresh`` asserts it.

An op returns its latency in seconds, ``inf`` when it raised a typed
``SpectralError`` (a failed op misses every latency limit).  Outputs are checked as they arrive and the
failures reported after the timed phase by ``check``; ``period_digits``
recomputes references at ``REF_QUAD`` after the timed phase.
"""

import logging
import math
import time

import numpy as np

import spectralcurves as sc
from spectralcurves.grassmann import plane_from_pencil
from spectralcurves.periods import QuadConfig, get_engine
from spectralcurves.polyring import CPoly, symmetrize_reality

INF = float("inf")

# The reference quadrature for period_digits: 4x the default starting
# nodes and a 1000x tighter doubling tolerance.
REF_QUAD = QuadConfig(nodes=256, tol=1e-13)

WARM_SEED = 0

# The annulus and separation `spectral scan` samples from.
ANNULUS = (0.05, 0.95)
MIN_SEPARATION = 0.05


class Points:
    """Randomly shifted R_d (Kronecker) sequence in [0, 1)^dim."""

    def __init__(self, seed, workload, stream, stratum, dim):
        key = (sum(map(ord, workload)), stream, stratum)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
        phi = 2.0
        for _ in range(64):
            phi = (1.0 + phi) ** (1.0 / (dim + 1))
        self.step = phi ** -np.arange(1.0, dim + 1)
        self.point = rng.uniform(size=dim)

    def draw(self, build):
        """Next point that ``build`` accepts (returns not None)."""
        while True:
            self.point = (self.point + self.step) % 1.0
            out = build(self.point)
            if out is not None:
                return out


def _crowded(points, min_sep, avoid=()):
    pts = list(points) + list(avoid)
    return any(abs(pts[i] - pts[j]) < min_sep
               for i in range(len(points)) for j in range(i + 1, len(pts)))


def annulus_points(u, annulus=ANNULUS, min_sep=MIN_SEPARATION, avoid=()):
    """Area-uniform points of the annulus from pairs of coordinates of u;
    None when two of them (or one and ``avoid``) are closer than min_sep."""
    lo2, hi2 = annulus[0] ** 2, annulus[1] ** 2
    pts = [complex(math.sqrt(lo2 + (hi2 - lo2) * u[k]) * np.exp(2j * np.pi * u[k + 1]))
           for k in range(0, len(u) - 1, 2)]
    return None if _crowded(pts, min_sep, avoid) else pts


# `homology_cycles` lays one radial cut [eta_j, 1/conj(eta_j)] per root and
# refuses the curve (ResolutionError) when another branch point lies within
# 1e-3 of a cut or two cut rays are within 1e-3 rad of each other.  Up to
# about 5e-3 rad the A-cycle around a long cut (a root near 0) squeezes
# past the other root and its quadrature can fail to converge (6 of 2,500
# curves with rays 3e-3 to 1e-2 rad apart; none of 2,500 at 1e-2 to 3e-2).
# Roots keep CUT_CLEARANCE from the other cuts and CUT_ANGLE between rays.
CUT_CLEARANCE = 3e-3
CUT_ANGLE = 1e-2


def _radial_distance(z, eta):
    """Distance from z to the radial segment [eta, 1/conj(eta)]."""
    ray = eta / abs(eta)
    t = min(max((z * ray.conjugate()).real, abs(eta)), 1.0 / abs(eta))
    return abs(z - t * ray)


def cuts_clear(eta):
    """True when every pair of radial cut rays is CUT_ANGLE apart and each
    cut CUT_CLEARANCE from the other roots' branch points."""
    for j, a in enumerate(eta):
        for k, b in enumerate(eta):
            if k == j:
                continue
            if (k > j and abs(np.angle(a / b)) < CUT_ANGLE) or min(
                    _radial_distance(b, a),
                    _radial_distance(1.0 / b.conjugate(), a)) < CUT_CLEARANCE:
                return False
    return True


def a_period_digits(curve, b):
    """-log10 of the largest A-period of b at REF_QUAD, relative to the
    magnitude of the terms that cancel in it."""
    eng = get_engine(curve, REF_QUAD)
    coeffs = np.zeros(curve.genus + 2, dtype=complex)
    coeffs[:len(b.coeffs)] = b.coeffs
    worst = 0.0
    for j in range(curve.genus):
        m = eng.a_moments(j)
        worst = max(worst, abs(eng.period(m, b)) / float(np.sum(np.abs(m * coeffs))))
    return -math.log10(max(worst, 1e-17))


def timed(fn, *args):
    """(latency_s, result) of one call; a typed error gives (inf, error)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except sc.SpectralError as exc:
        return INF, exc
    return time.perf_counter() - t0, out


class Workload:
    name = ""
    strata = ()        # cycled in order, one op input per stratum in turn
    warm = 0           # warm-up ops, drawn from stream 0
    ref_stride = 1     # keep every k-th successful op for the reference pass

    def __init__(self, seed):
        self.seed = seed
        self.seen = set()        # eta keys handed to the program so far
        self.problems = []       # output-check failures, one line each
        self.refs = []           # outputs kept for the reference pass
        self.ops_ok = 0

    def fresh(self, eta):
        key = tuple(complex(z) for z in eta)
        if key in self.seen:
            raise AssertionError("%s: curve %s was handed to the program twice"
                                 % (self.name, key))
        self.seen.add(key)

    def points(self, stream, stratum, dim):
        seed = self.seed if stream else WARM_SEED
        return Points(seed, self.name, stream, stratum, dim)

    def inputs(self, stream):
        """Endless op inputs: the strata in turn, each from its own points."""
        draws = [self.points(stream, i, self.dim(s)) for i, s in enumerate(self.strata)]
        while True:
            for s, pts in zip(self.strata, draws):
                yield pts.draw(lambda u, s=s: self.build(s, u))

    def dim(self, stratum):
        raise NotImplementedError

    def build(self, stratum, u):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def warm_up(self):
        gen = self.inputs(0)
        for _ in range(self.warm):
            self.op(next(gen))
        self.refs.clear()
        self.problems.clear()
        self.ops_ok = 0

    def keep_ref(self, item):
        if self.ops_ok % self.ref_stride == 0:
            self.refs.append(item)
        self.ops_ok += 1

    def check(self):
        """Output-check failures, one line each."""
        return list(self.problems)

    def period_digits(self):
        raise NotImplementedError

    def extra(self):
        """Workload-specific counters for the run record."""
        return {}


class Scan(Workload):
    name = "scan"
    strata = (1, 2, 3, 4)      # genus
    warm = 8
    ref_stride = 16

    def dim(self, genus):
        return 2 * genus

    def build(self, genus, u):
        eta = annulus_points(u)
        return eta if eta is not None and cuts_clear(eta) else None

    def op(self, eta):
        self.fresh(eta)
        t0 = time.perf_counter()
        try:
            curve = sc.build_curve(eta)
            basis = sc.solve_Ba(curve)
            rep = sc.classify(curve, basis)
            gr = sc.gr_classify(sc.B_map(curve))
        except sc.SpectralError:
            return INF
        lat = time.perf_counter() - t0
        if not basis.kernel_gap > 1e6:
            self.problems.append("scan: kernel_gap %.3e <= 1e6 at eta=%s"
                                 % (basis.kernel_gap, eta))
        if gr["gcd_degree"] != rep.gcd_degree:
            self.problems.append("scan: B_map gcd degree %d != classify %d at eta=%s"
                                 % (gr["gcd_degree"], rep.gcd_degree, eta))
        self.keep_ref(basis)
        return lat

    def period_digits(self):
        digits = min(min(a_period_digits(b.curve, b.b1), a_period_digits(b.curve, b.b2))
                     for b in self.refs)
        if digits < 8:
            self.problems.append("scan: reference A-periods only %.2f digits "
                                 "below the period scale (need 8)" % digits)
        return digits


# Roots for the whitham workload.  Nearer the circle or each other, the
# B-cycle quadrature of the flow step can double to 8192-node rules, and
# one such curve costs seconds (see README.md).
FLOW_ANNULUS = (0.15, 0.7)


class Whitham(Workload):
    """One op follows the whitham layer through one fresh curve of genus 1
    or 2: one requested ``dt`` step of a rotation flow, the constant-Q
    tangent ``whitham_tangent(curve, basis, Q)`` at its start, and
    ``handle_invariant_check(curve, alpha, t)`` at t = 1e-2 or 3e-3.

    Constant-Q flows and t = 0.1 handles are left out: their rejected
    steps and halvings are rare but cost up to hundreds of times an op,
    so a run's total would hang on how many it met.  t = 1e-3 is left out
    because about one handle in a thousand there is refused as inside the
    common-root stratum even far from the base map's critical points
    (see README.md)."""

    name = "whitham"
    strata = ((1, 1e-2), (2, 1e-2), (1, 3e-3), (2, 3e-3))    # (genus, handle t)
    warm = 2
    ref_stride = 8
    dt = 1e-3
    fd_move = 1e-4
    cut_margin = 0.12
    crit_margin = 0.1
    grid = np.linspace(-np.pi, np.pi, 4096, endpoint=False)

    def __init__(self, seed):
        super().__init__(seed)
        self.rejections = 0
        self.accepted = 0
        self.halvings = 0
        self.digits = []
        handler = logging.Handler()
        handler.emit = self._on_log
        logging.getLogger("spectralcurves.whitham").addHandler(handler)

    def _on_log(self, record):
        if record.getMessage().startswith("flow step rejected"):
            self.rejections += 1

    def dim(self, stratum):
        return 2 * stratum[0] + 4

    def build(self, stratum, u):
        """Roots from the annulus 0.15-0.7 at separation 0.15; Q = [a, b,
        conj(a)] with |a| <= 0.2 and b in [-0.2, 0.2]; the last coordinate
        picks alpha (see ``handle_point``)."""
        genus, t = stratum
        eta = annulus_points(u[:2 * genus], annulus=FLOW_ANNULUS, min_sep=0.15)
        if eta is None or not cuts_clear(eta):
            return None
        a = complex(0.2 * math.sqrt(u[-4]) * np.exp(2j * np.pi * u[-3]))
        q = CPoly([a, -0.2 + 0.4 * float(u[-2]), a.conjugate()])
        return eta, float(u[-1]), q, t

    def handle_point(self, basis, u):
        """alpha uniform on the part of S^1 at least cut_margin from every
        cut (as c06 does) and crit_margin from every critical point of the
        base circle map, at position u in [0, 1) of that set.

        Within about 0.05 rad of a critical point the deformed pencil at
        small t lies within the gcd tolerance of the common-root stratum
        and ``handle_invariant_check`` refuses with a ResolutionError, as
        its message says (2 % of uniform draws)."""
        dp = sc.derived_pencil(basis)
        d0, dinf = dp.b0.derivative(), dp.binf.derivative()
        lam = np.exp(1j * self.grid)
        slope = np.real(lam * (d0(lam) / dp.b0(lam) - dinf(lam) / dp.binf(lam)))
        crit = self.grid[np.nonzero(np.signbit(slope) != np.roll(np.signbit(slope), -1))[0]]
        cuts = np.angle(np.asarray(basis.curve.eta))

        def dist(points):
            if not len(points):
                return np.full(len(self.grid), np.inf)
            diff = self.grid[:, None] - np.asarray(points)[None, :]
            return np.min(np.abs(np.angle(np.exp(1j * diff))), axis=1)

        allowed = np.nonzero((dist(cuts) >= self.cut_margin)
                             & (dist(crit) >= self.crit_margin))[0]
        pos = u * len(allowed)
        step = self.grid[1] - self.grid[0]
        return complex(np.exp(1j * (self.grid[allowed[int(pos)]] + (pos % 1.0) * step)))

    def op(self, inp):
        eta, u_alpha, q, t = inp
        self.fresh(eta)

        def work():
            curve = sc.build_curve(eta)
            records = sc.flow(curve, sc.rotation_selector, dt=self.dt, steps=1)
            return records, sc.whitham_tangent(curve, records[0].basis, q)

        lat, out = timed(work)
        if lat == INF:
            return INF
        records, tangent = out
        base = records[0]
        alpha = self.handle_point(base.basis, u_alpha)    # not timed
        lat_handle, chk = timed(sc.handle_invariant_check, base.curve, alpha, t)
        if lat_handle == INF:
            return INF
        self.accepted += len(records) - 1
        self._check_rotation(records, eta)
        if chk.t < t:
            self.halvings += 1
        crit = np.asarray(chk.new_circle_critical_points)
        if (chk.deg_f_after != chk.deg_f_before + 1
                or chk.winding_after - chk.winding_before != -chk.sign_slope
                or len(crit) != 2 or np.max(np.abs(np.abs(crit) - 1.0)) > 1e-9):
            self.problems.append("whitham: handle laws fail at eta=%s alpha=%s t=%g: %s"
                                 % (eta, alpha, t, chk))
        self.keep_ref((base, tangent, chk))
        return lat + lat_handle

    def _check_rotation(self, records, eta):
        """The rotation flow has the closed form eta(t) = eta(0) exp(-i t);
        the last record's roots must match it."""
        last = records[-1]
        want = np.asarray(eta) * np.exp(-1j * last.t)
        got = np.asarray(last.curve.eta)
        err = max(float(np.min(np.abs(got - w))) for w in want)
        if abs(last.t - self.dt) > 1e-15 or err > 1e-9:
            self.problems.append("whitham: rotation step from eta=%s reached t=%g "
                                 "with root error %.3e" % (eta, last.t, err))
        scale = max(1.0, float(np.max(np.abs(last.periods_b1))),
                    float(np.max(np.abs(last.periods_b2))))
        self.digits.append(-math.log10(max(last.drift / scale, 1e-17)))

    def _check_tangent(self, rec, tangent):
        """The tangent conserves B-periods: a central difference of them
        along it, moving the roots by at most ``fd_move``, must vanish to
        third order plus quadrature noise, where a wrong direction leaves
        first order.  A correct tangent left below 1e-10 of the period
        scale, a 1 % error in a_dot or b_dot above 4.7e-9."""
        curve = rec.curve
        eta = np.asarray(curve.eta)
        v = -tangent.a_dot(eta) / curve.a.derivative()(eta)
        h = self.fd_move / float(np.max(np.abs(v)))
        ends = []
        for s in (h, -h):
            moved = sc.build_curve(eta + s * v)
            ends.append([np.asarray(sc.b_periods(moved, b + bd * s))
                         for b, bd in ((rec.b1, tangent.b1_dot), (rec.b2, tangent.b2_dot))])
        scale = max(1.0, float(np.max(np.abs(rec.periods_b1))),
                    float(np.max(np.abs(rec.periods_b2))))
        # B-cycle orientation is fixed per curve only up to sign
        diff = max(float(np.max(np.minimum(np.abs(p - m), np.abs(p + m))))
                   for p, m in zip(ends[0], ends[1]))
        if diff > 1e-9 * scale:
            self.problems.append("whitham: B-periods move by %.3e along the Q=%s "
                                 "tangent at eta=%s" % (diff, tangent.Q.coeffs, list(eta)))

    def _check_handle(self, base, chk):
        """The handle curve's A-periods at REF_QUAD, and its winding
        recomputed there."""
        curve = sc.build_curve(list(base.eta) + [chk.alpha * math.exp(-abs(chk.t))])
        basis = sc.solve_Ba(curve, quad=REF_QUAD)
        rep = sc.classify(curve, basis)
        digits = min(a_period_digits(curve, basis.b1), a_period_digits(curve, basis.b2))
        if digits < 6 or rep.winding_arg != chk.winding_after or rep.deg_f != chk.deg_f_after:
            self.problems.append("whitham: handle curve at REF_QUAD has %.2f A-period "
                                 "digits (need 6), winding %d (check said %d), deg f %d "
                                 "(check said %d)" % (digits, rep.winding_arg,
                                                      chk.winding_after, rep.deg_f,
                                                      chk.deg_f_after))

    def warm_up(self):
        super().warm_up()
        self.digits.clear()
        self.rejections = self.accepted = self.halvings = 0

    def period_digits(self):
        """Mean over rotation steps of -log10 of the step's B-period drift
        relative to the period scale; the reference checks run here too."""
        for rec, tangent, chk in self.refs:
            self._check_tangent(rec, tangent)
            self._check_handle(rec.curve, chk)
        return sum(self.digits) / len(self.digits)

    def extra(self):
        return {"step_rejections": self.rejections, "steps_accepted": self.accepted,
                "handle_t_halvings": self.halvings}


def shared_plane(circle, pairs, fill):
    """Plane of the pencil (u, -i u) with u vanishing at the given roots."""
    rts = list(circle)
    for mu in pairs:
        rts += [mu, 1.0 / np.conj(mu)]
    u = CPoly.from_roots(rts + list(fill))
    return plane_from_pencil(symmetrize_reality(u), symmetrize_reality(u * (-1j)))


FILL_DISC = (0.1, 0.6)

# Angle between the two roots of an S^1-double plane.  From about 1.4 rad
# to pi the probe's second-order persistence ratio falls toward its limit
# of 200 and planes are refused (ResolutionError), most of them near pi:
# 2.7 % of them over 0.8-pi at the default radius 1e-3, one in 960 at
# Probe.radius.  Over 0.8-1.4 none of 960 were, the smallest ratio 5,392.
S1_DOUBLE_GAP = (0.8, 1.4)


class Probe(Workload):
    """Stratum probes on shared-root planes of genus 2 and 3, and proximity
    ops on genus-2 curves: the `spectral classify --maxden 12` path with
    the pair shortlist of ``rational_plane_distance`` cut from 256 to 32.
    At 256 one proximity op takes 6-10 s of 32,640 pair tests; a few such
    ops per run, each timed as one stretch, made the run's throughput
    follow the host's speed during them.  At 32 it is 496 pair tests in
    about 0.1 s on the same code; ``cli.classify_maxden.ms`` still times
    the full shortlist."""

    name = "probe"
    strata = tuple((g, c) for c in ("S1_simple", "pair_off_circle", "S1_double")
                   for g in (2, 3)) + ((2, "proximity"),)
    warm = len(strata)
    maxden = 12
    shortlist = 16
    # Probe radius, below the default 1e-3: there 1-2 % of S^1-simple planes
    # of genus 3 fail the second-order persistence test (ratios 84-188
    # against 200) and at 3e-4 every one of them passes, as did 1,920
    # planes of all three cases, the smallest ratio 794.
    radius = 3e-4

    def dim(self, stratum):
        genus, case = stratum
        return 2 * genus + 1 if case == "S1_simple" else 2 * genus

    def build(self, stratum, u):
        """Roots of u: on S^1 for the S^1 cases, a reflection pair for the
        off-circle case, the rest filled from a disc inside it."""
        genus, case = stratum
        if case == "proximity":
            eta = annulus_points(u, annulus=(0.2, 0.8), min_sep=0.2)
            return None if eta is None or not cuts_clear(eta) else (case, eta)
        if case == "S1_simple":
            fill = annulus_points(u[1:], FILL_DISC, 0.15)
            circle, pairs = [np.exp(2j * np.pi * u[0])], []
        elif case == "pair_off_circle":
            mu = annulus_points(u[:2], (0.1, 0.7))
            fill = annulus_points(u[2:], FILL_DISC, 0.15, avoid=mu + [1.0 / np.conj(mu[0])])
            circle, pairs = [], mu
        else:
            a = 2.0 * np.pi * u[0]
            b = a + S1_DOUBLE_GAP[0] + (S1_DOUBLE_GAP[1] - S1_DOUBLE_GAP[0]) * u[1]
            fill = annulus_points(u[2:], FILL_DISC, 0.15)
            circle, pairs = [np.exp(1j * a), np.exp(1j * b)], []
        if fill is None:
            return None
        return case, shared_plane(circle, pairs, fill).M

    def op(self, inp):
        kind, data = inp
        if kind == "proximity":
            return self._proximity(data)
        genus = len(data)
        lat, rep = timed(sc.stratum_dimension_probe, sc.GrPlane(genus, data), self.radius)
        if lat == INF:
            return INF
        if kind == "S1_double":
            ok = rep.singular and rep.sheets == 2 and \
                tuple(rep.sheet_dimensions) == (2 * genus - 1, 2 * genus - 1)
        else:
            want = 2 * genus - 1 if kind == "S1_simple" else 2 * genus - 2
            ok = not rep.singular and rep.dimension == want
        if rep.case != kind or not ok:
            self.problems.append("probe: %s plane of genus %d reported %s"
                                 % (kind, genus, rep))
        return lat

    def _proximity(self, eta):
        """The `spectral classify --maxden` path: basis, phi at the point of
        S^1 farthest from the cuts, rational-plane proximity."""
        self.fresh(eta)
        cuts = np.angle(np.asarray(eta))
        grid = np.linspace(-np.pi, np.pi, 720, endpoint=False)
        dist = np.min(np.abs(np.angle(np.exp(1j * (grid[:, None] - cuts[None, :])))), axis=1)
        lam0 = complex(np.exp(1j * grid[int(np.argmax(dist))]))

        def one():
            curve = sc.build_curve(eta)
            basis = sc.solve_Ba(curve)
            mat = sc.phi_map(curve, basis, lam0)
            return basis, sc.rational_plane_distance(mat, max_denominator=self.maxden,
                                                     shortlist=self.shortlist)

        lat, out = timed(one)
        if lat == INF:
            return INF
        basis, angle = out
        if not 0.0 <= angle <= math.pi / 2:
            self.problems.append("probe: rational-plane angle %r outside [0, pi/2]"
                                 % angle)
        self.refs.append(basis)
        return lat

    def period_digits(self):
        """Reference A-period digits over the proximity curves."""
        return min((min(a_period_digits(b.curve, b.b1), a_period_digits(b.curve, b.b2))
                    for b in self.refs), default=0.0)


WORKLOADS = {w.name: w for w in (Scan, Whitham, Probe)}
