"""Periods of the differentials Theta_b = b(lambda) dlambda / (lambda y).

All cycle integrals reduce to moment vectors

    m_k = integral over the cycle of lambda^k dlambda / (lambda y),   k = 0..g+1,

so that the period of Theta_b is the dot product of m with the coefficient
vector of b.  Each Gauss rule is built once per (kind, n) per process, and
moments once per (curve, quadrature config), by singularity-adapted rules
refined in one loop, one array pass per level over a kind's unsettled
cycles, until two successive estimates of each agree:

* A-cycles collapse onto the radial cut; the inverse-square-root endpoint
  behaviour of 1/y is absorbed by Gauss-Chebyshev weights, whose rules nest
  under n -> 3n: one pass over the unsettled A-cycles gives both estimates.
* B-cycles are lassos from a branch point to the origin service circle;
  the single square-root endpoint is absorbed by Gauss-Jacobi (0, -1/2)
  weights (the 2n-point Gauss-Legendre rule mapped by x = 2 s^2 - 1, s > 0,
  weights 2 sqrt(2) w: exact to degree 2n - 1), the circle part uses
  Gauss-Legendre with a periodic square-root factor; their rules double,
  and one pass gives the first two.
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
import numbers
from dataclasses import dataclass

import numpy as np

from .curve import Homology, SpectralCurve, _cut_wedges, _gamma_base, _leg_angles, track_sqrt
from .errors import ResolutionError, ValidationError, is_number
from .polyring import CPoly, _as_poly, _chart_units, real_place_coeffs, reality_check

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature configuration shared by all period evaluations.

    nodes: points of the coarser rule in the first comparison of two estimates,
    which must agree to relative ``tol``.  A rules triple, B and gamma rules
    double, all in one refinement loop and up to ``nodes * 2**MAX_DOUBLINGS``
    points.
    """

    nodes: int = 64
    tol: float = 1e-10

    def __post_init__(self):
        if not (type(self.nodes) is int and self.nodes >= 1 and is_number(self.tol)
                and 0.0 < self.tol < math.inf):
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


def _check_basis_curve(curve, basis):
    """Refuse a basis whose curve is not ``curve`` (not the object, nor equal)."""
    if basis.curve is not curve and basis.curve != curve:
        raise ValidationError("the basis belongs to another curve: %r, not %r"
                              % (basis.curve, curve))


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
    (0, -1/2) ("jacobi") or Gauss-Legendre ("legendre") rule on [-1, 1], or
    the descending nodes cos((2k - 1) pi / 2n), k = 1..n, of Gauss-Chebyshev
    ("chebyshev") and its one weight pi / n.

    Newton steps on the Legendre recurrence from Tricomi's estimate; each
    pass's weights 2 / ((1 - x^2) P'(x)^2) are corrected to first order for
    its step, so they belong to the root, not to its rounded node.
    """
    if kind == "chebyshev":
        x = np.cos((2 * np.arange(1, n + 1) - 1) * (np.pi / (2 * n)))
        x.setflags(write=False)
        return x, np.pi / n
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
    """Acceptance rule of the refinement loop, per row of moments: the
    relative change rel, whether ``cur`` is accepted (rel < tol), and
    whether ``prev`` is kept at the roundoff floor (rel within 10x tol but
    no longer halving from ``prev_rel``)."""
    scale = np.maximum(1.0, np.abs(cur).max(axis=-1))
    rel = np.abs(cur - prev).max(axis=-1) / scale
    return rel, rel < tol, (rel < 10 * tol) & (rel > 0.5 * prev_rel)


class PeriodEngine:
    """Caches the moment vectors of every cycle and the solved basis for one
    curve and quadrature config."""

    def __init__(self, curve, quad):
        self.curve, self.quad = curve, quad
        self._wedges = _cut_wedges(curve)     # the layout's refusals, at construction
        self._eta, self._part = (np.array(z, dtype=complex) for z in (curve.eta, curve.partners))
        pairs = list(zip(curve.eta, curve.partners))   # column j: the other cuts' roots
        self._others = np.array([np.ravel(pairs[:j] + pairs[j + 1:]) for j in range(curve.genus)],
                                dtype=complex).T
        self._gamma = {}
        self._a = self.a_nodes = self._b = self.b_nodes = None   # *_nodes: accepted rule sizes
        self.basis = None

    @functools.cached_property
    def homology(self):
        """The layout of :func:`homology_cycles`; its B-legs are laid out on first use."""
        return Homology(self.curve, *self._wedges, _leg_angles(self.curve, self._wedges[0]))

    # -- public moment accessors -------------------------------------------

    def a_matrix(self):
        """The moment vectors of all A-cycles, one row per cycle, from one
        :meth:`_a_level` pass per level over the cycles still unsettled."""
        if self._a is None:
            self._a, self.a_nodes = self._refine(
                [("A", j) for j in range(self.curve.genus)],
                lambda todo, m: self._a_level(todo, m // 3), 3 * self.quad.nodes, 3)
        return self._a

    def b_matrix(self):
        """The moment vectors of all B-lassos, one row per cycle, from one
        :meth:`_lasso` pass per level over the lassos still unsettled."""
        if self._b is None:
            g = self.curve.genus
            ends = np.array([self.homology.b_leg(j) for j in range(g)], dtype=complex).T[..., None]
            self._b, self.b_nodes = self._refine([("B", j) for j in range(g)], functools.partial(
                self._lasso, ends=ends, kind="jacobi"), 2 * self.quad.nodes, 2)
        return self._b

    def a_moments(self, j):
        return self.a_matrix()[j]

    def gamma_moments(self, lam0):
        lam0 = _gamma_base(lam0)
        if lam0 not in self._gamma:
            ends = np.array(self.homology.gamma_leg(lam0))[:, None, None]   # refuses a bad lam0
            self._gamma[lam0] = self._refine([("gamma", lam0)], functools.partial(
                self._lasso, ends=ends, kind="legendre"), 2 * self.quad.nodes, 2)[0][0]
        return self._gamma[lam0]

    def period(self, moments, b):
        return complex(np.dot(moments, self._coeff_vector(b)))

    def _coeff_vector(self, b):
        g = self.curve.genus
        if b.formal_degree > g + 1:
            raise ValidationError("numerator degree %d exceeds g+1 = %d" % (b.formal_degree, g + 1))
        out = np.zeros(g + 2, dtype=complex)
        out[: len(b.coeffs)] = b.coeffs
        return out

    # -- refinement: one loop for every kind of cycle ------------------------

    def _refine(self, keys, level, size, grow):
        """Moments of the cycles ``keys`` and the points of each accepted
        rule.  ``level(todo, m)`` gives, for the rows ``todo``, estimates at m // grow
        points (None: the previous level's) and at m, and flags, False where one is
        missing: one row for both or one per estimate.  Rows settle by :func:`_settle`;
        the rest go on at grow * m points, up to nodes * 2**MAX_DOUBLINGS, and are
        refused once their change has not fallen for two tracked levels in a row."""
        tol, limit = self.quad.tol, self.quad.nodes << MAX_DOUBLINGS
        out = np.empty((len(keys), self.curve.genus + 2), dtype=complex)
        last, had, nodes = np.zeros_like(out), np.zeros(len(keys), bool), np.zeros(len(keys), int)
        prev_rel, todo = np.full(len(keys), np.inf), np.arange(len(keys))
        stalls = np.zeros(len(keys), int)
        while todo.size:
            coarse, fine, ok = level(todo, size)
            coarse_ok, ok = ok if ok.ndim > 1 else (ok, ok)
            if coarse is None:
                coarse, coarse_ok = last[todo], had[todo]
            last[todo], had[todo], ok = fine, ok, ok & coarse_ok
            rel, accept, floor = _settle(fine, coarse, prev_rel[todo], tol)
            done = ok & (accept | floor)
            for i in todo[done & ~accept]:
                log.debug("cycle %s settled at roundoff floor", keys[i])
            out[todo[done]] = np.where(accept[:, None], fine, coarse)[done]
            nodes[todo[done]] = np.where(accept, size, size // grow)[done]
            if done.all():
                break
            stalls[todo] = np.where(ok & (rel >= prev_rel[todo]), stalls[todo] + 1, 0)
            prev_rel[todo] = np.where(ok, rel, np.inf)
            todo, size = todo[~done], grow * size
            if todo.size and (size > limit or stalls[todo].max() >= 2):
                raise ResolutionError("quadrature failed to converge for cycle %s within %d "
                                      "nodes" % (keys[todo[np.argmax(stalls[todo])]], size // grow))
        return out, nodes

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
        x, w = _gauss_rule("chebyshev", 3 * n)
        eta, part = self._eta[todo, None], self._part[todo, None]
        lam = np.concatenate([part, eta + (part - eta) * ((x + 1.0) / 2.0)], axis=1)
        track, ok = track_sqrt(self._deflated_square(lam, todo[:, None]))
        lam, track = lam[:, 1:], track[:, 1:]
        # lambda^(k-1) / V^(1/2) for k = 0..g+1
        terms = _power_terms(1.0 / (lam * track), lam, c.genus + 2)
        coarse = -2j * (np.pi / n) * np.sum(terms[..., 1::3], axis=-1)
        return coarse, -2j * w * np.sum(terms, axis=-1), ok

    # -- B and gamma: a leg and the service circle ---------------------------

    def _lasso(self, todo, m, ends, kind):
        """Moments of the lassos ``todo`` at m // 2 leg points (None past the
        first level, m = 2 nodes) and at m, from one pass, and flags, False
        where a root was not tracked or the circle's does not continue the
        leg's.  Lasso i runs ends[0, i] -> ends[1, i] on the service circle,
        around it (Legendre, max(n, 64) points at n leg points) and back; a
        "jacobi" leg's weight absorbs the root at its branch-point start."""
        c, k = self.curve, self.curve.genus + 2
        sizes = (m // 2, m) if m == 2 * self.quad.nodes else (m,)
        start, target = ends[:, todo]
        x, w = _rules(kind, sizes)
        legs = start + (target - start) * ((x[..., 1:] + 1.0) / 2.0)
        lam = np.empty(legs.shape[:-1] + (legs.shape[-1] + 2,), dtype=complex)
        lam[..., :1], lam[..., 1:-1], lam[..., -1:] = start, legs, target
        if kind == "jacobi":
            # y = sqrt(lambda - start) * root; lambda*a/(lambda-start) as a
            # root product (see _deflated_square for why not by polyval)
            part = self._part[todo, None]
            root, ok = track_sqrt(self._deflated_square(lam, todo[:, None]) * (lam - part))
            jac, y_end = np.sqrt((target - start) / 2.0), np.sqrt(target - start) * root[..., -1:]
        else:
            root, ok = track_sqrt(lam * c.a(lam))
            jac, y_end = (target - start) / 2.0, root[..., -1:]
        leg = _power_terms(w / (legs * root[..., 1:-1]), legs, k)
        # y = e^{i theta/2} u(theta) on the circle, u periodic with u^2 = r0 a;
        # u takes the sign that continues the leg's end value
        angle = np.angle(target)
        x, w = _rules("legendre", circle_sizes := tuple(max(n, 64) for n in sizes))
        theta = angle + np.pi * (x + 1.0)
        z = c.r0 * np.exp(1j * theta)
        usq = c.r0 * c.a(z)
        u, tracked = track_sqrt(usq)
        seed = y_end * np.exp(-0.5j * angle)
        matched = np.abs(seed * seed - usq[..., :1]) <= 1e-6 * np.maximum(1.0, np.abs(usq[..., :1]))
        u = np.where((seed * u[..., :1].conj()).real < 0, -u[..., 1:], u[..., 1:])
        circle = _power_terms(w * np.exp(-0.5j * theta[..., 1:]) / u, z[..., 1:], k)
        ok = ok & tracked & matched[..., 0]
        est = [2.0 * (jac * np.sum(leg[i, ..., :n], axis=-1))    # each rule on its own nodes
               + 1j * np.pi * np.sum(circle[i, ..., :nc], axis=-1)
               for i, (n, nc) in enumerate(zip(sizes, circle_sizes))]
        return (None, est[0], ok[0]) if len(sizes) == 1 else (est[0], est[1], ok)


def _rules(kind, sizes):
    """Nodes, after a first node -1, and weights of the ``kind`` rules of
    ``sizes`` points, one row each on a middle axis of length one."""
    if len(sizes) > 1:
        return _rule_pair(kind, sizes)
    x, w = _gauss_rule(kind, sizes[0])
    return np.concatenate([[-1.0], x])[None, None], w[None, None]


@functools.lru_cache(maxsize=64)
def _rule_pair(kind, sizes):
    """Read-only ``_rules`` of two sizes: the shorter rule repeats its last
    node, with weight zero, a zero step for ``track_sqrt``, so its roots, and
    its moments summed over its own nodes, keep the bits of its own pass."""
    rules = [_gauss_rule(kind, n) for n in sizes]
    top = max(len(x) for x, _ in rules)
    x = np.array([np.pad(np.r_[-1.0, x], (0, top - len(x)), "edge") for x, _ in rules])[:, None]
    w = np.array([np.pad(w, (0, top - len(w))) for _, w in rules])[:, None]
    for a in (x, w):
        a.setflags(write=False)
    return x, w


def _power_terms(first, lam, k):
    """first * lam^i, i = 0..k-1, on a new axis before the last by running
    products; the node axis stays last so that numpy sums it pairwise."""
    terms = np.empty(first.shape[:-1] + (k, first.shape[-1]), dtype=complex)
    terms[..., 0, :] = first
    for i in range(1, k):
        terms[..., i, :] = terms[..., i - 1, :] * lam
    return terms


@functools.lru_cache(maxsize=128)
def _engine(curve, quad):
    return PeriodEngine(curve, quad)


def get_engine(curve, quad=None):
    """Shared, cached period engine for (curve, quad)."""
    if quad is not None and not isinstance(quad, QuadConfig):
        raise ValidationError("quad must be a QuadConfig, got %r" % (quad,))
    return _engine(curve, quad or DEFAULT_QUAD)


# ---------------------------------------------------------------------------
# period operations
# ---------------------------------------------------------------------------

def _require_real(values, tol, what):
    """Real parts of ``values`` after the reality self-check of A-periods,
    the A-period map and the phi matrix: each row in order (a 1-D input is
    one row), at its own scale, logs an imaginary residue above ``tol`` and
    raises one above 1e3 * tol, naming the row as ``what.format(row)``."""
    rows = np.atleast_2d(values := np.asarray(values, dtype=complex))
    resid = np.abs(rows.imag).max(axis=-1, initial=0.0)
    scale = np.fmax(1.0, np.abs(rows).max(axis=-1, initial=0.0))
    for i in np.flatnonzero(resid > tol * scale):
        if resid[i] > 1e3 * tol * scale[i]:
            raise ResolutionError("homology/reality inconsistency: %s has imaginary residue "
                                  "%.3e" % (what.format(i), resid[i]))
        log.warning("%s imaginary residue %.3e above tol %.1e", what.format(i), resid[i], tol)
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
    return np.asarray([eng.period(moments, b) for moments in eng.b_matrix()])


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
    # one row per A-cycle, one column per real coordinate of degree g+1
    rows = np.ascontiguousarray(_require_real(eng.a_matrix() @ _chart_units(g + 1).T,
                                              curve.tol, "A-period map row {}"))

    if g == 0:
        kernel = np.eye(2)
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

    coeffs = real_place_coeffs(g + 1, graph_form(kernel))
    basis = PencilBasis(curve=curve, b1=CPoly(coeffs[0]), b2=CPoly(coeffs[1]), kernel_gap=gap)
    if g > 0:
        # the A-periods of b1 and b2, checked as a_periods checks them
        resid = float(np.max(np.abs(_require_real((eng.a_matrix() @ coeffs.T).T, curve.tol,
                                                  "A-periods"))))
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
    of Theta_{b1} and Theta_{b2}; entries are real for a solved basis of
    ``curve`` (a basis of another curve is refused)."""
    _check_basis_curve(curve, basis)
    return np.vstack([
        _require_real(np.append(b_periods(curve, b, quad), sym_integral(curve, b, lam0, quad))
                      / (2j * np.pi), curve.tol, "normalized period row")
        for b in (basis.b1, basis.b2)
    ])


# ---------------------------------------------------------------------------
# rationality probe
# ---------------------------------------------------------------------------

# Most points (2 m + 1)^dim of the grid rational_plane_distance scans: it
# peaks near 46 bytes a point at dim 5, so under 0.5 GB; genus 4 at m = 12
# (9.8e6 points) fits, and at dim >= 2 every m stays inside int16.
MAX_DIRECTION_GRID = 10_000_000


def _integer_directions(dim, bound):
    """Primitive integer vectors with max-norm <= bound, one per +/- pair."""
    vecs = np.indices((2 * bound + 1,) * dim, dtype=np.int16).reshape(dim, -1).T - bound
    lead = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]   # 0 for the zero vector
    vecs = vecs[lead > 0]
    return vecs[np.gcd.reduce(np.abs(vecs.astype(np.int32)), axis=1) == 1]


@functools.lru_cache(maxsize=1)
def _direction_lattice(dim, bound):
    """Read-only ``_integer_directions(dim, bound)`` as float64 and their
    norms: every rational probe at one (dim, bound) scores the same grid.
    One lattice is kept: 0.2 MB at (3, 12), 224 MB at the largest grid
    MAX_DIRECTION_GRID admits (5, 12), less than one call's peak there."""
    vf = _integer_directions(dim, bound).astype(np.float64)
    norms = np.linalg.norm(vf, axis=1)
    vf.setflags(write=False)
    norms.setflags(write=False)
    return vf, norms


def rational_plane_distance(matrix, max_denominator=12, shortlist=256):
    """Smallest subspace angle (radians) between the row span of ``matrix``
    and any plane spanned by two integer vectors with entries of absolute
    value <= max_denominator.

    A desk-scale probe: integer directions are scored by their angle to the
    row span, a shortlist is paired exhaustively, and the minimal largest
    principal angle is returned.  Not a decision procedure.  Raises
    ValidationError for a matrix that is not finite, bounds that are not
    integers, max_denominator < 1, shortlist < 2 (no pair), or a direction
    grid of more than MAX_DIRECTION_GRID points.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    dim = m.shape[1]
    integers = all(is_number(k, numbers.Integral) for k in (max_denominator, shortlist))
    if integers:    # Python ints: the grid size of a NumPy int16 bound would wrap
        max_denominator, shortlist = int(max_denominator), int(shortlist)
    if (not np.all(np.isfinite(m)) or not integers or max_denominator < 1 or shortlist < 2
            or (2 * max_denominator + 1) ** dim > MAX_DIRECTION_GRID):
        raise ValidationError("the rational probe needs a finite matrix, integers max_denominator"
                              " >= 1 and shortlist >= 2, and (2 max_denominator + 1)^%d <= %d, got"
                              " %r and %r" % (dim, MAX_DIRECTION_GRID, max_denominator, shortlist))
    if dim < 2:
        return 0.0
    q, r = np.linalg.qr(m.T)
    q = q[:, np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.max(np.abs(m))))]
    if q.shape[1] in (0, dim):   # zero matrix, or a span holding every plane
        return 0.0

    vf, norms = _direction_lattice(dim, max_denominator)
    sin2 = np.empty(len(vf))
    step = 1_000_000
    for i in range(0, len(vf), step):
        proj = vf[i:i + step] @ q
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
