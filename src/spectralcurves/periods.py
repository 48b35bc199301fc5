"""Periods of the differentials Theta_b = b(lambda) dlambda / (lambda y).

All cycle integrals reduce to moment vectors

    m_k = integral over the cycle of lambda^k dlambda / (lambda y),   k = 0..g+1,

so that the period of Theta_b is the dot product of m with the coefficient
vector of b.  Each Gauss rule is built once per (kind, n) per process, and
moments once per (curve, quadrature config), by singularity-adapted rules
with adaptive node doubling:

* A-cycles collapse onto the radial cut; the inverse-square-root endpoint
  behaviour of 1/y is absorbed by Gauss-Chebyshev weights.
* B-cycles are lassos from a branch point to the origin service circle;
  the single square-root endpoint is absorbed by Gauss-Jacobi (0, -1/2)
  weights, the circle part uses Gauss-Legendre with a periodic square-root
  factor tracked explicitly.
* Sym paths gamma(lambda0) use the same lasso shape from a regular point,
  all-Legendre.

On top of the raw periods this module solves for the two-dimensional space
of reversal-real b with vanishing A-periods, derives the distinguished
pencil b0/binf from it, assembles the torus-characterization matrix, and
provides a desk-scale probe for rationality of its row plane.
"""

import functools
import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import roots_jacobi, roots_legendre

from .curve import SpectralCurve, continue_sqrt, homology_cycles
from .errors import ResolutionError, ValidationError
from .polyring import CPoly, real_place, reality_check

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature configuration shared by all period evaluations.

    nodes: starting node count per rule; doubled until two successive
    estimates agree to relative ``tol`` (at most ``max_doublings`` times).
    """

    nodes: int = 64
    tol: float = 1e-10
    max_doublings: int = 8


DEFAULT_QUAD = QuadConfig()


@dataclass(frozen=True)
class PencilBasis:
    """Basis (b1, b2) of the A-period kernel, normalized at lambda = 0.

    b1(0) = 1 and b2(0) = i exactly; kernel_gap certifies that the kernel
    of the A-period map had real dimension exactly two.
    """

    curve: SpectralCurve
    b1: CPoly
    b2: CPoly
    kernel_gap: float


@dataclass(frozen=True)
class DerivedPencil:
    """The distinguished pair b0 = b2 - i b1 (top coefficient -2i) and its
    circle-reflection partner binf, plus the combination coefficients."""

    b0: CPoly
    binf: CPoly
    alpha: complex
    beta: complex


# ---------------------------------------------------------------------------
# moment engine
# ---------------------------------------------------------------------------

def _principal_sqrt(z):
    return complex(np.sqrt(complex(z)))


@functools.lru_cache(maxsize=64)
def _gauss_rule(kind, n):
    """Read-only nodes and weights of the n-point Gauss-Jacobi (0, -1/2)
    ("jacobi") or Gauss-Legendre ("legendre") rule on [-1, 1]."""
    x, w = roots_jacobi(n, 0.0, -0.5) if kind == "jacobi" else roots_legendre(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


class PeriodEngine:
    """Caches per-cycle moment vectors for one curve and quadrature config."""

    def __init__(self, curve, quad=DEFAULT_QUAD):
        self.curve = curve
        self.quad = quad
        self.homology = homology_cycles(curve)
        self._moments = {}

    # -- public moment accessors -------------------------------------------

    def a_moments(self, j):
        return self._converged(("A", j), lambda n: self._a_moments_n(j, n))

    def b_moments(self, j):
        return self._converged(("B", j), lambda n: self._b_moments_n(j, n))

    def gamma_moments(self, lam0):
        lam0 = complex(lam0)
        return self._converged(("gamma", lam0), lambda n: self._gamma_moments_n(lam0, n))

    def period(self, moments, b):
        coeffs = self._coeff_vector(b)
        return complex(np.dot(moments, coeffs))

    def _coeff_vector(self, b):
        g = self.curve.genus
        if b.formal_degree > g + 1:
            raise ValidationError(
                "numerator degree %d exceeds g+1 = %d" % (b.formal_degree, g + 1)
            )
        out = np.zeros(g + 2, dtype=complex)
        out[: len(b.coeffs)] = b.coeffs
        return out

    # -- adaptive doubling ---------------------------------------------------

    def _converged(self, key, compute):
        if key in self._moments:
            return self._moments[key]
        n = self.quad.nodes
        prev, prev_rel = None, None
        for _ in range(self.quad.max_doublings + 1):
            try:
                cur = compute(n)
            except ResolutionError:
                cur = None
            if cur is not None and prev is not None:
                scale = max(1.0, float(np.max(np.abs(cur))))
                rel = float(np.max(np.abs(cur - prev))) / scale
                if rel < self.quad.tol:
                    self._moments[key] = cur
                    return cur
                # roundoff floor: no longer improving but within 10x target
                if prev_rel is not None and rel < 10 * self.quad.tol and rel > 0.5 * prev_rel:
                    log.debug("cycle %s settled at roundoff floor %.2e", key, rel)
                    self._moments[key] = prev
                    return prev
                prev_rel = rel
            prev = cur
            n *= 2
        raise ResolutionError(
            "quadrature failed to converge for cycle %s after %d doublings"
            % (key, self.quad.max_doublings)
        )

    # -- A: Gauss-Chebyshev across the radial cut ----------------------------

    def _deflated_square(self, lam, skip):
        """lead * lambda * prod of (lam - root) over all branch roots except
        the cut pair ``skip``.

        Equals lambda*a(lambda)/((lambda-eta_skip)(lambda-part_skip)) but is
        evaluated as a root product: polyval of ``a`` near its own roots
        cancels catastrophically, and for a short cut (near-nodal curve)
        that noise, divided by the tiny linear factors, used to poison the
        quadrature floor.
        """
        c = self.curve
        vals = c.lead * np.asarray(lam, dtype=complex)
        for k in range(c.genus):
            if k == skip:
                continue
            vals = vals * (lam - c.eta[k]) * (lam - c.partners[k])
        return vals

    def _a_moments_n(self, j, n):
        c = self.curve
        eta, part = c.eta[j], c.partners[j]
        span = part - eta
        k = np.arange(1, n + 1)
        x = np.cos((2 * k - 1) * np.pi / (2 * n))
        lam = eta + span * (x + 1.0) / 2.0
        # smooth square factor V = lambda*a / ((lambda-eta)(lambda-part));
        # reference branch is pinned at the regular endpoint lambda = part
        vref = complex(self._deflated_square(part, j))
        v = self._deflated_square(lam, j)
        track = continue_sqrt(np.concatenate([[vref], v]), _principal_sqrt(vref))[1:]
        powers = np.arange(c.genus + 2)
        mono = lam[:, None] ** (powers[None, :] - 1)
        return -2j * (np.pi / n) * np.sum(mono / track[:, None], axis=0)

    # -- B: Gauss-Jacobi leg + Legendre circle -------------------------------

    def _leg_from_branch(self, j, n):
        """Moments of the straight leg eta_j -> service circle, and the
        tracked y value at the outer end."""
        c = self.curve
        start, target = self.homology.b_leg(j)
        x, w = _gauss_rule("jacobi", n)
        lam = start + (target - start) * (x + 1.0) / 2.0
        # lambda*a/(lambda-start) as an explicit root product (see
        # _deflated_square for why polyval is not used here)
        wref = complex(self._deflated_square(start, j)) * (start - c.partners[j])
        wsq = self._deflated_square(lam, j) * (lam - c.partners[j])
        wend = complex(self._deflated_square(target, j)) * (target - c.partners[j])
        samples = np.concatenate([[wref], wsq, [wend]])
        track = continue_sqrt(samples, _principal_sqrt(wref))
        u, u_end = track[1:-1], track[-1]
        scale = np.sqrt(complex(target - start) / 2.0)
        powers = np.arange(c.genus + 2)
        mono = lam[:, None] ** (powers[None, :] - 1)
        moments = scale * np.sum(w[:, None] * mono / u[:, None], axis=0)
        y_end = np.sqrt(complex(target - start)) * u_end
        return moments, y_end

    def _circle_moments(self, start_angle, y_start, n):
        """Moments of one full turn around the origin service circle.

        y = e^{i theta/2} u(theta) with u periodic; u is tracked from the
        seed supplied by the incoming leg.
        """
        c = self.curve
        r0 = c.r0
        x, w = _gauss_rule("legendre", n)
        theta = start_angle + np.pi * (x + 1.0)
        ssq = r0 * c.a(r0 * np.exp(1j * theta))
        sref = r0 * c.a(r0 * np.exp(1j * start_angle))
        seed = y_start * np.exp(-0.5j * start_angle)
        if abs(seed * seed - sref) > 1e-6 * max(1.0, abs(sref)):
            raise ResolutionError("circle seed inconsistent with incoming leg")
        u = continue_sqrt(np.concatenate([[sref], ssq]), seed)[1:]
        powers = np.arange(c.genus + 2)
        phase = np.exp(1j * (powers[None, :] - 0.5) * theta[:, None])
        vals = (r0 ** powers)[None, :] * phase / u[:, None]
        return 1j * np.pi * np.sum(w[:, None] * vals, axis=0)

    def _b_moments_n(self, j, n):
        leg, y_end = self._leg_from_branch(j, n)
        start_angle = self.homology.leg_angles[j]
        circle = self._circle_moments(start_angle, y_end, max(n, 64))
        return 2.0 * leg + circle

    # -- gamma: Legendre leg + Legendre circle -------------------------------

    def _gamma_moments_n(self, lam0, n):
        c = self.curve
        start, target = self.homology.gamma_leg(lam0)
        x, w = _gauss_rule("legendre", n)
        lam = start + (target - start) * (x + 1.0) / 2.0
        wref = start * c.a(start)
        wsq = lam * c.a(lam)
        wend = target * c.a(target)
        track = continue_sqrt(np.concatenate([[wref], wsq, [wend]]), _principal_sqrt(wref))
        y, y_end = track[1:-1], track[-1]
        powers = np.arange(c.genus + 2)
        mono = lam[:, None] ** (powers[None, :] - 1)
        leg = (complex(target - start) / 2.0) * np.sum(w[:, None] * mono / y[:, None], axis=0)
        th = float(np.angle(target))
        circle = self._circle_moments(th, y_end, max(n, 64))
        return 2.0 * leg + circle


@functools.lru_cache(maxsize=128)
def _engine(curve, quad):
    return PeriodEngine(curve, quad)


def get_engine(curve, quad=None):
    """Shared, cached period engine for (curve, quad)."""
    return _engine(curve, quad or DEFAULT_QUAD)


# ---------------------------------------------------------------------------
# period operations
# ---------------------------------------------------------------------------

def _as_poly(b):
    if isinstance(b, CPoly):
        return b
    return CPoly(b)


def _require_real(values, tol, what):
    """Reality self-check shared by A-periods and the phi matrix."""
    values = np.atleast_1d(np.asarray(values, dtype=complex))
    if values.size == 0:
        return np.zeros(0)
    resid = float(np.max(np.abs(values.imag)))
    scale = max(1.0, float(np.max(np.abs(values))))
    if resid > 1e3 * tol * scale:
        raise ResolutionError(
            "homology/reality inconsistency: %s has imaginary residue %.3e" % (what, resid)
        )
    if resid > tol * scale:
        log.warning("%s imaginary residue %.3e above tol %.1e", what, resid, tol)
    return values.real


def a_periods(curve, b, quad=None):
    """A-periods of Theta_b: vector of g real numbers.

    The imaginary parts are a consistency measure of the homology layout
    and reversal-reality of b; they are logged above ``curve.tol`` and
    raise beyond 1e3 * tol.
    """
    b = _as_poly(b)
    ok, defect = reality_check(b, tol=1e3 * curve.tol)
    if not ok:
        raise ValidationError("b is not reversal-real (defect %.3e)" % defect)
    eng = get_engine(curve, quad)
    vals = [eng.period(eng.a_moments(j), b) for j in range(curve.genus)]
    return _require_real(vals, curve.tol, "A-periods")


def b_periods(curve, b, quad=None):
    """B-periods of Theta_b: vector of g complex numbers."""
    b = _as_poly(b)
    eng = get_engine(curve, quad)
    return np.asarray([eng.period(eng.b_moments(j), b) for j in range(curve.genus)])


def sym_integral(curve, b, lam0, quad=None, seed_sign=1):
    """Integral of Theta_b over gamma(lambda0), joining the two points of
    the curve over the unit-circle point lambda0.

    The path starts on the sheet fixed by seed_sign * principal sqrt at
    lambda0 and ends on the opposite sheet.
    """
    b = _as_poly(b)
    if seed_sign not in (1, -1):
        raise ValidationError("seed_sign must be +1 or -1")
    eng = get_engine(curve, quad)
    return seed_sign * eng.period(eng.gamma_moments(lam0), b)


def solve_Ba(curve, quad=None, tol=None):
    """Solve for the two-dimensional space of reversal-real b in P^{g+1}
    with vanishing A-periods; normalize its basis so b1(0)=1, b2(0)=i.

    The A-period map is assembled over the real coordinates of
    reversal-real polynomials (dimension g+2) and its kernel is extracted
    by SVD.  kernel_gap = (smallest kept singular value) / (largest
    A-period residual of the kernel vectors) must exceed 1e6.
    """
    tol = tol if tol is not None else curve.tol
    g = curve.genus
    dim = g + 2  # real dimension of reversal-real polynomials of degree g+1
    chart = [real_place(g + 1, e) for e in np.eye(dim)]
    eng = get_engine(curve, quad)
    amoms = [eng.a_moments(j) for j in range(g)]

    rows = np.zeros((g, dim))
    for i in range(g):
        vals = np.array([eng.period(amoms[i], p) for p in chart])
        rows[i] = _require_real(vals, curve.tol, "A-period map row %d" % i)

    if g == 0:
        kernel = np.eye(dim)
        gap = np.inf
    else:
        _, s, vt = np.linalg.svd(rows)
        kernel = vt[g:]  # always two rows: rows is g x (g+2)
        resid = float(np.max(np.abs(rows @ kernel.T)))
        gap = float(s[g - 1] / max(resid, 1e-300))
        if s[g - 1] < 1e-12 * s[0]:
            raise ValidationError("degenerate period map: A-period matrix is rank deficient")
    if gap < 1e6:
        raise ValidationError("degenerate period map: kernel gap %.3e below 1e6" % gap)

    # normalize by the value at 0: chart coordinates 0,1 are Re b(0), Im b(0)
    at_zero = np.array([[kernel[0][0], kernel[1][0]], [kernel[0][1], kernel[1][1]]])
    try:
        c1 = np.linalg.solve(at_zero, [1.0, 0.0])
        c2 = np.linalg.solve(at_zero, [0.0, 1.0])
    except np.linalg.LinAlgError:
        raise ValidationError("degenerate period map: b -> b(0) not invertible on the kernel")
    b1 = real_place(g + 1, c1[0] * kernel[0] + c1[1] * kernel[1])
    b2 = real_place(g + 1, c2[0] * kernel[0] + c2[1] * kernel[1])

    basis = PencilBasis(curve=curve, b1=b1, b2=b2, kernel_gap=gap)
    if g > 0:
        resid = float(np.max(np.abs(np.concatenate([a_periods(curve, b1, quad),
                                                    a_periods(curve, b2, quad)]))))
        if resid > 1e3 * tol:
            raise ValidationError("degenerate period map: basis A-period residual %.3e" % resid)
        if resid > 10 * tol:
            log.warning("solved basis A-period residual %.3e", resid)
    return basis


def derived_pencil(basis):
    """Distinguished combination b0 = b2 - i b1 rescaled to top coefficient
    exactly -2i, and its circle reflection binf (conjugate reversal).

    Under exact normalization the top coefficient of b2 - i b1 already *is*
    -2i (it equals the conjugate of b2(0) + i b1(0) by reversal-reality),
    so the rescale only polishes floating-point residue.
    """
    b0 = basis.b2 + basis.b1 * (-1j)
    top = complex(b0.coeffs[-1])
    if abs(top) < 1e-8:
        raise ValidationError(
            "b0 degenerate: top coefficient %.3e vanishes (numerator degree drop)" % abs(top)
        )
    b0 = b0 * (-2j / top)
    binf = CPoly(np.conj(b0.coeffs[::-1]))
    z1, z2 = complex(basis.b1(0.0)), complex(basis.b2(0.0))
    d = z1 * np.conj(z2) - z2 * np.conj(z1)
    alpha = 2j * z2 / d
    beta = -2j * z1 / d
    combo = basis.b1 * complex(alpha) + basis.b2 * complex(beta)
    mismatch = float(np.max(np.abs(combo.coeffs - b0.coeffs)))
    if mismatch > 1e-6 * max(1.0, float(np.max(np.abs(b0.coeffs)))):
        log.warning("alpha/beta combination differs from b0 by %.3e", mismatch)
    return DerivedPencil(b0=b0, binf=binf, alpha=complex(alpha), beta=complex(beta))


def phi_map(curve, basis, lam0, quad=None):
    """Torus-characterization matrix: rows are (1/2 pi i) * (B-periods, Sym)
    of Theta_{b1} and Theta_{b2}; entries are real for a solved basis."""
    eng = get_engine(curve, quad)
    rows = []
    for b in (basis.b1, basis.b2):
        vals = [eng.period(eng.b_moments(j), b) for j in range(curve.genus)]
        vals.append(eng.period(eng.gamma_moments(lam0), b))
        rows.append(np.asarray(vals) / (2j * np.pi))
    return np.vstack([
        _require_real(r, curve.tol, "normalized period row") for r in rows
    ])


# ---------------------------------------------------------------------------
# rationality probe
# ---------------------------------------------------------------------------

def _integer_directions(dim, bound):
    """Primitive integer vectors with max-norm <= bound, one per +/- pair."""
    rng = np.arange(-bound, bound + 1, dtype=np.int16)
    grids = np.meshgrid(*([rng] * dim), indexing="ij")
    vecs = np.stack([gr.ravel() for gr in grids], axis=1)
    nz = vecs != 0
    any_nz = nz.any(axis=1)
    vecs, nz = vecs[any_nz], nz[any_nz]
    first = nz.argmax(axis=1)
    lead = vecs[np.arange(len(vecs)), first]
    vecs = vecs[lead > 0]
    prim = np.gcd.reduce(np.abs(vecs.astype(np.int32)), axis=1) == 1
    return vecs[prim]


def rational_plane_distance(matrix, max_denominator=12, shortlist=256):
    """Smallest subspace angle (radians) between the row span of ``matrix``
    and any plane spanned by two integer vectors with entries of absolute
    value <= max_denominator.

    A desk-scale probe: integer directions are scored by their angle to the
    row span, a shortlist is paired exhaustively, and the minimal largest
    principal angle is returned.  Not a decision procedure.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    dim = m.shape[1]
    if dim < 2:
        return 0.0
    q, r = np.linalg.qr(m.T)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.max(np.abs(m))))
    q = q[:, keep]
    if q.shape[1] == 0:
        return 0.0

    vecs = _integer_directions(dim, max_denominator)
    vf = vecs.astype(np.float64)
    norms = np.linalg.norm(vf, axis=1)
    sin2 = np.empty(len(vf))
    step = 1_000_000
    for i in range(0, len(vf), step):
        block = vf[i:i + step]
        proj = block @ q
        sin2[i:i + step] = 1.0 - (proj * proj).sum(axis=1) / (norms[i:i + step] ** 2)
    k = min(shortlist, len(vf))
    short = vf[np.argpartition(sin2, k - 1)[:k]]

    best = np.pi / 2
    for i in range(k):
        for j in range(i + 1, k):
            pair = np.stack([short[i], short[j]], axis=1)
            if np.linalg.matrix_rank(pair) < 2:
                continue
            ang = scipy.linalg.subspace_angles(pair, q)
            worst = float(np.max(ang)) if len(ang) else 0.0
            if worst < best:
                best = worst
    return best


# ---------------------------------------------------------------------------
# independent oracle: composite-Simpson loop integration
# ---------------------------------------------------------------------------

def simpson_loop_integral(curve, b, loop, seed_sign=1, target=1e-9, max_doublings=10):
    """Integrate Theta_b over a polyline loop by composite Simpson rule with
    uniform subdivision per segment, doubling until two estimates agree.

    Deliberately shares nothing with the Gauss moment engine (different
    nodes, weights, and path) so it can serve as an independent cross-check.
    """
    from .curve import y_along  # local import to keep module deps one-way

    b = _as_poly(b)
    vertices = np.asarray(loop, dtype=complex)
    segs = list(zip(vertices[:-1], vertices[1:]))

    def estimate(sub):
        total = 0.0 + 0.0j
        pts = []
        for p, qq in segs:
            ts = np.linspace(0.0, 1.0, sub + 1)
            pts.append(p + (qq - p) * ts[:-1])
        pts.append(vertices[-1:])
        pts = np.concatenate(pts)
        sp = y_along(curve, pts, seed_sign=seed_sign)
        if len(sp.points) != len(pts):
            return None  # tracker refined: resolution too coarse, double it
        f = b(sp.points) / (sp.points * sp.y_values)
        w = np.ones(sub + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        for idx, (p, qq) in enumerate(segs):
            h = (qq - p) / sub
            total += (h / 3.0) * np.dot(w, f[idx * sub: idx * sub + sub + 1])
        return total

    sub = 4
    prev = None
    for _ in range(max_doublings + 1):
        cur = estimate(sub)
        if cur is not None and prev is not None:
            if abs(cur - prev) < target * max(1.0, abs(cur)):
                return cur
        prev = cur
        sub *= 2
    raise ResolutionError("Simpson loop integral did not converge to %g" % target)


def oracle_a_period(curve, b, j, target=1e-9):
    """A-period via the racetrack loop and Simpson: test oracle only."""
    loop = homology_cycles(curve).a_loop(j)
    return simpson_loop_integral(curve, b, loop, target=target)
