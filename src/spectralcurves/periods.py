"""Periods of the differentials Theta_b = b(lambda) dlambda / (lambda y).

All cycle integrals reduce to moment vectors

    m_k = integral over the cycle of lambda^k dlambda / (lambda y),   k = 0..g+1,

so that the period of Theta_b is the dot product of m with the coefficient
vector of b.  Each Gauss rule is built once per (kind, n) per process, and
moments once per (curve, quadrature config), by singularity-adapted rules
refined until two successive estimates agree:

* A-cycles collapse onto the radial cut; the inverse-square-root endpoint
  behaviour of 1/y is absorbed by Gauss-Chebyshev weights, whose rules nest
  under n -> 3n: one pass over the unsettled A-cycles gives both estimates.
* B-cycles are lassos from a branch point to the origin service circle;
  the single square-root endpoint is absorbed by Gauss-Jacobi (0, -1/2)
  weights (the 2n-point Gauss-Legendre rule mapped by x = 2 s^2 - 1, s > 0,
  weights 2 sqrt(2) w: exact to degree 2n - 1), the circle part uses
  Gauss-Legendre with a periodic square-root factor tracked explicitly.
* Sym paths gamma(lambda0) use the same lasso shape from a regular point,
  all-Legendre.

On top of the raw periods this module solves for the two-dimensional space
of reversal-real b with vanishing A-periods, derives the distinguished
pencil b0/binf from it, assembles the torus-characterization matrix, and
provides a desk-scale probe for rationality of its row plane.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .curve import SpectralCurve, continue_sqrt, homology_cycles, track_sqrt
from .errors import ResolutionError, ValidationError
from .polyring import CPoly, _as_poly, real_place, real_place_coeffs, reality_check

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature configuration shared by all period evaluations.

    nodes: points of the coarser rule in the first comparison of two estimates,
    which must agree to relative ``tol``.  B and gamma rules double (at most
    ``MAX_DOUBLINGS`` times); A rules triple up to ``nodes * 2**MAX_DOUBLINGS``.
    """

    nodes: int = 64
    tol: float = 1e-10

    def __post_init__(self):
        if not (isinstance(self.nodes, int) and self.nodes >= 1 and 0.0 < self.tol < math.inf):
            raise ValidationError("quadrature needs nodes >= 1 (an integer) and a "
                                  "finite tol > 0, got %r" % (self,))


DEFAULT_QUAD = QuadConfig()
MAX_DOUBLINGS = 8


@dataclass(frozen=True)
class PencilBasis:
    """Basis (b1, b2) of the A-period kernel, normalized at lambda = 0.

    A solved basis is in graph form, b1(0) = 1 and b2(0) = i exactly, so
    by reversal-reality its top coefficients are exactly 1 and -i, which
    ``derived_pencil`` relies on.  kernel_gap certifies that the A-period
    kernel had real dimension exactly two.  The frames ``whitham.flow``
    carries (kernel_gap nan) are not in graph form; only its tangent
    selectors see them.
    """

    curve: SpectralCurve
    b1: CPoly
    b2: CPoly
    kernel_gap: float


@dataclass(frozen=True)
class DerivedPencil:
    """The distinguished pair b0 = b2 - i b1 (top coefficient -2i) and its
    circle-reflection partner binf."""

    b0: CPoly
    binf: CPoly


# ---------------------------------------------------------------------------
# moment engine
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _gauss_rule(kind, n):
    """Read-only ascending nodes and weights of the n-point Gauss-Jacobi
    (0, -1/2) ("jacobi") or Gauss-Legendre ("legendre") rule on [-1, 1].

    Newton steps on the Legendre recurrence from Tricomi's estimate; each
    pass's weights 2 / ((1 - x^2) P'(x)^2) are corrected to first order for
    its step, so they belong to the root, not to its rounded node.
    """
    m = 2 * n if kind == "jacobi" else n
    k = np.arange((m + 1) // 2, 0, -1)
    x = (1 - (m - 1) / (8 * m**3)) * np.cos(np.pi * (4 * k - 1) / (4 * m + 2))
    for _ in range(6):
        p0, p1 = np.ones_like(x), x
        for j in range(1, m):
            t = x * p1
            p0, p1 = p1, t + (t - p0) * (j / (j + 1))
        s = (1 - x) * (1 + x)
        dp = m * (p0 - x * p1) / s
        dx = p1 / dp
        w = 2 / (s * dp * dp) * (1 + 2 * x * dx / s)
        x = x - dx
        if np.max(np.abs(dx)) < 1e-14:    # quadratic: x is now at rounding level
            break
    else:
        raise ResolutionError("Newton did not converge for the %d-point rule" % m)
    if kind == "jacobi":
        x, w = 2 * x * x - 1, 2 * math.sqrt(2) * w
    else:
        x, w = np.concatenate([-x[m % 2:][::-1], x]), np.concatenate([w[m % 2:][::-1], w])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _settle(cur, prev, prev_rel, tol):
    """Acceptance rule of both refinement loops, per row of moments: the
    relative change rel, whether ``cur`` is accepted (rel < tol), and
    whether ``prev`` is kept at the roundoff floor (rel within 10x tol but
    no longer halving from ``prev_rel``)."""
    scale = np.maximum(1.0, np.abs(cur).max(axis=-1))
    rel = np.abs(cur - prev).max(axis=-1) / scale
    return rel, rel < tol, (rel < 10 * tol) & (rel > 0.5 * prev_rel)


class PeriodEngine:
    """Caches per-cycle moment vectors and the solved basis for one curve and
    quadrature config."""

    def __init__(self, curve, quad):
        self.curve, self.quad = curve, quad
        self.homology = homology_cycles(curve)
        pairs = list(zip(curve.eta, curve.partners))   # column j: the other cuts' roots
        self._others = np.array([np.ravel(pairs[:j] + pairs[j + 1:]) for j in range(curve.genus)],
                                dtype=complex).T
        self._moments = {}
        self._a = self.a_nodes = None   # a_nodes: points of each accepted A rule
        self.basis = None

    # -- public moment accessors -------------------------------------------

    def a_matrix(self):
        """The moment vectors of all A-cycles, one row per cycle, from one
        :meth:`_a_level` pass per level over the cycles still unsettled."""
        if self._a is not None:
            return self._a
        g, n, tol = self.curve.genus, self.quad.nodes, self.quad.tol
        out, nodes = np.empty((g, g + 2), dtype=complex), np.zeros(g, dtype=int)
        prev_rel, todo = np.full(g, np.inf), np.arange(g)
        while todo.size and 3 * n <= self.quad.nodes << MAX_DOUBLINGS:
            coarse, fine, ok = self._a_level(todo, n)
            rel, accept, floor = _settle(fine, coarse, prev_rel[todo], tol)
            done = ok & (accept | floor)
            for j in todo[done & ~accept]:
                log.debug("cycle %s settled at roundoff floor", ("A", int(j)))
            out[todo[done]] = np.where(accept[:, None], fine, coarse)[done]
            nodes[todo[done]] = np.where(accept, 3 * n, n)[done]
            prev_rel[todo] = np.where(ok, rel, np.inf)
            todo, n = todo[~done], 3 * n
        if todo.size:
            raise ResolutionError("quadrature failed to converge for cycle %s within %d nodes"
                                  % (("A", int(todo[0])), self.quad.nodes << MAX_DOUBLINGS))
        self._a, self.a_nodes = out, nodes
        return out

    def a_moments(self, j):
        return self.a_matrix()[j]

    def b_moments(self, j):
        return self._converged(("B", j), lambda n: self._b_moments_n(j, n))

    def gamma_moments(self, lam0):
        lam0 = complex(lam0)
        return self._converged(("gamma", lam0), lambda n: self._gamma_moments_n(lam0, n))

    def period(self, moments, b):
        return complex(np.dot(moments, self._coeff_vector(b)))

    def _coeff_vector(self, b):
        g = self.curve.genus
        if b.formal_degree > g + 1:
            raise ValidationError("numerator degree %d exceeds g+1 = %d" % (b.formal_degree, g + 1))
        out = np.zeros(g + 2, dtype=complex)
        out[: len(b.coeffs)] = b.coeffs
        return out

    # -- refinement: B and gamma double --------------------------------------

    def _converged(self, key, compute):
        if key in self._moments:
            return self._moments[key]
        n = self.quad.nodes
        prev, prev_rel = None, np.inf
        for _ in range(MAX_DOUBLINGS + 1):
            try:
                cur = compute(n)
            except ResolutionError:
                cur = None
            if cur is not None and prev is not None:
                rel, accept, floor = _settle(cur, prev, prev_rel, self.quad.tol)
                if accept or floor:
                    if not accept:
                        log.debug("cycle %s settled at roundoff floor %.2e", key, rel)
                    self._moments[key] = cur if accept else prev
                    return self._moments[key]
                prev_rel = rel
            prev = cur
            n *= 2
        raise ResolutionError("quadrature failed to converge for cycle %s after %d doublings"
                              % (key, MAX_DOUBLINGS))

    # -- A: Gauss-Chebyshev across the radial cut ----------------------------

    def _deflated_square(self, lam, skip):
        """lead * lambda * prod of (lam - root) over all branch roots except
        the cut pair ``skip``: one cut, or a column of cuts, one per row of
        ``lam``.

        Equals lambda*a(lambda)/((lambda-eta_skip)(lambda-part_skip)) but is
        evaluated as a root product: polyval of ``a`` near its own roots
        cancels catastrophically, and for a short cut (near-nodal curve)
        that noise, divided by the tiny linear factors, used to poison the
        quadrature floor.
        """
        vals = self.curve.lead * np.asarray(lam, dtype=complex)
        for root in self._others[:, skip]:
            vals *= lam - root
        return vals

    def _a_level(self, todo, n):
        """Coarse (n-point) and fine (3n-point) moments of the A-cycles
        ``todo`` from one pass over the 3n Gauss-Chebyshev nodes, and a
        per-cycle flag, False where the square root could not be tracked."""
        c = self.curve
        # the smooth square factor V = lambda*a / ((lambda-eta)(lambda-part))
        # has its branch pinned at the regular endpoint lambda = part, put first
        x = np.cos((2 * np.arange(1, 3 * n + 1) - 1) * (np.pi / (6 * n)))
        eta, part = np.asarray(c.eta)[todo, None], np.asarray(c.partners)[todo, None]
        lam = np.concatenate([part, eta + (part - eta) * ((x + 1.0) / 2.0)], axis=1)
        track, ok = track_sqrt(self._deflated_square(lam, todo[:, None]))
        lam, track = lam[:, 1:], track[:, 1:]
        # lambda^(k-1) / V^(1/2) for k = 0..g+1 by running products, nodes
        # last so that numpy sums them pairwise
        terms = np.empty((len(todo), c.genus + 2, 3 * n), dtype=complex)
        terms[:, 0] = 1.0 / (lam * track)
        for k in range(1, c.genus + 2):
            terms[:, k] = terms[:, k - 1] * lam
        coarse = -2j * (np.pi / n) * np.sum(terms[..., 1::3], axis=-1)
        return coarse, -2j * (np.pi / (3 * n)) * np.sum(terms, axis=-1), ok

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
        track = continue_sqrt(samples, np.sqrt(complex(wref)))
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
        track = continue_sqrt(np.concatenate([[wref], wsq, [wend]]), np.sqrt(complex(wref)))
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
    return _require_real(eng.a_matrix() @ eng._coeff_vector(b), curve.tol, "A-periods")


def b_periods(curve, b, quad=None):
    """B-periods of Theta_b: vector of g complex numbers."""
    b = _as_poly(b)
    eng = get_engine(curve, quad)
    return np.asarray([eng.period(eng.b_moments(j), b) for j in range(curve.genus)])


def sym_integral(curve, b, lam0, quad=None):
    """Integral of Theta_b over gamma(lambda0), joining the two points of
    the curve over the unit-circle point lambda0.

    The path starts on the principal-sqrt sheet at lambda0 and ends on the
    opposite one; starting on the other sheet only negates the integral.
    """
    b = _as_poly(b)
    eng = get_engine(curve, quad)
    return eng.period(eng.gamma_moments(lam0), b)


def graph_form(frame):
    """Graph form of the plane spanned by two real chart rows: the real
    combinations c[0] * frame[0] + c[1] * frame[1] (elementwise) whose
    value-at-zero slots are exactly (1, 0) and (0, 1), i.e. b(0) = 1 and i."""
    frame = np.asarray(frame, dtype=float)
    at_zero = frame[:, :2].T
    if abs(np.linalg.det(at_zero)) < 1e-12 * max(1.0, float(np.max(np.abs(at_zero)))) ** 2:
        raise ValidationError("plane contains a nonzero element vanishing at the "
                              "origin; no graph coordinates exist")
    c = np.linalg.solve(at_zero, np.eye(2))
    out = c[0][:, None] * frame[0] + c[1][:, None] * frame[1]
    out[:, :2] = np.eye(2)
    return out


def solve_Ba(curve, quad=None):
    """Solve for the two-dimensional space of reversal-real b in P^{g+1}
    with vanishing A-periods, in graph form: b1(0) = 1, b2(0) = i exactly.

    The A-period map is assembled over the real coordinates of
    reversal-real polynomials (dimension g+2) and its kernel is extracted
    by SVD.  kernel_gap = (smallest kept singular value) / (largest
    A-period residual of the kernel vectors) must exceed 1e6.  The solved
    basis is kept on the shared engine of (curve, quad).
    """
    eng = get_engine(curve, quad)
    if eng.basis is not None:
        return eng.basis
    g = curve.genus
    dim = g + 2  # real dimension of reversal-real polynomials of degree g+1
    chart = real_place_coeffs(g + 1, np.eye(dim))

    rows = np.array([_require_real(chart @ moments, curve.tol, "A-period map row %d" % i)
                     for i, moments in enumerate(eng.a_matrix())]).reshape(g, dim)

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

    b1, b2 = (real_place(g + 1, row) for row in graph_form(kernel))

    basis = PencilBasis(curve=curve, b1=b1, b2=b2, kernel_gap=gap)
    if g > 0:
        resid = float(np.max(np.abs(np.concatenate([a_periods(curve, b1, quad),
                                                    a_periods(curve, b2, quad)]))))
        if resid > 1e3 * curve.tol:
            raise ValidationError("degenerate period map: basis A-period residual %.3e" % resid)
        if resid > 10 * curve.tol:
            log.warning("solved basis A-period residual %.3e", resid)
    eng.basis = basis
    return basis


def derived_pencil(basis):
    """Distinguished combination b0 = b2 - i b1 of a solved basis, and its
    circle reflection binf (conjugate reversal).

    The basis is in graph form, so the top coefficient of b0 is exactly
    -2i: by reversal-reality it is the conjugate of b2(0) + i b1(0) = 2i.
    """
    b0 = basis.b2 + basis.b1 * (-1j)
    return DerivedPencil(b0=b0, binf=CPoly(np.conj(b0.coeffs[::-1])))


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
    if q.shape[1] in (0, dim):   # zero matrix, or a span holding every plane
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

    # Every shortlist pair at once.  Two distinct primitive vectors with
    # positive leading entries are independent, so each pair spans a plane.
    # The smaller of span(q) and a pair plane, less its projection onto the
    # larger, has the sines of the principal angles as singular values
    # (Bjorck & Golub 1973), which keeps small angles at full precision.
    i, j = np.triu_indices(k, 1)
    planes, _ = np.linalg.qr(np.stack([short[i], short[j]], axis=2))
    small, large = (planes, q) if q.shape[1] >= 2 else (q, planes)
    outside = small - large @ (np.swapaxes(large, -1, -2) @ small)
    sines = np.linalg.svd(outside, compute_uv=False)[:, 0]
    worst = np.arcsin(np.minimum(sines, 1.0))
    return float(np.min(worst, initial=np.pi / 2))
