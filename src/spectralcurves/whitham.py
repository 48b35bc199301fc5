"""Isoperiodic deformations: handle attachment, tangent solves, flows.

An infinitesimal deformation (a_dot, b1_dot, b2_dot) preserves every
period of Theta_{b1} and Theta_{b2} when there exist reversal-real
polynomials c1, c2 of formal degree g+1 and a reversal-real quadratic Q
with

    c1 b2 - c2 b1 = Q a                                    (pencil relation)
    i (2 lambda a c_k' - a c_k - lambda a' c_k) = 2 a b_k_dot - a_dot b_k
                                                           (derivative, k=1,2)

and then automatically

    2 ( i lambda (c1' c2 - c2' c1) + c1 b2_dot - c2 b1_dot ) = a_dot Q.

(The i on the lambda term belongs there: cross-multiply the two
derivative equations by c2 and c1 and subtract; the rigid-rotation data
below satisfies the identity exactly in this form and in no other.)

Deformations are integrated in root coordinates: at a simple root eta of
a the advection law is eta_dot = -a_dot(eta) / a'(eta).  The frame
(b1, b2) is carried along the flow by its own derivative equation; its
periods are conserved by construction, and the integrator monitors the
carried frame's B-periods as a drift diagnostic.

Handle attachment glues a new reflection pair of branch points at
alpha e^{-t}, alpha e^{t} for alpha on the unit circle, raising the
genus by one while shifting the degree and winding of the unimodular
circle map in a controlled way.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .curve import build_curve
from .errors import InvariantError, ResolutionError, ValidationError
from .invariants import GCD_TOL, _deflate, _deflated_pair, classify, pencil_gcd
from .periods import PencilBasis, b_periods, solve_Ba
from .polyring import CPoly, real_place, reality_check
from .polyring import roots as poly_roots

log = logging.getLogger(__name__)


class FlowAbort(ResolutionError):
    """Flow integration gave up; carries the trajectory computed so far."""

    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


class _StratumCollapse(ResolutionError):
    """Deformed pencil fell within gcd tolerance of the common-root
    stratum; shrinking the handle parameter cannot recover from this."""


def _rows(p, length):
    """Real/imaginary coefficient rows of p, zero-padded to ``length``."""
    c = np.zeros(length, dtype=np.complex128)
    c[: len(p.coeffs)] = p.coeffs
    return np.concatenate([c.real, c.imag])


# ---------------------------------------------------------------------------
# tangent algebra
# ---------------------------------------------------------------------------

def _driver(a, c):
    """i (2 lambda a c' - a c - lambda a' c): the c-side of the derivative
    equation."""
    return ((a * c.derivative()).times_lambda() * 2.0 - a * c
            - (a.derivative() * c).times_lambda()) * 1j


def _derivative_residual(a, c, b, a_dot, b_dot):
    """2 a b_dot - a_dot b - i (2 lambda a c' - a c - lambda a' c)."""
    return a * b_dot * 2.0 - a_dot * b - _driver(a, c)


@dataclass(frozen=True)
class WhithamTangent:
    """One isoperiodic direction at (a; b1, b2).

    Residuals of all defining equations are exposed through
    :meth:`residuals`; producers in this module guarantee they sit below
    1e-9 relative to the coefficient scale.
    """

    a: CPoly
    b1: CPoly
    b2: CPoly
    a_dot: CPoly
    b1_dot: CPoly
    b2_dot: CPoly
    c1: CPoly
    c2: CPoly
    Q: CPoly

    def residuals(self):
        out = {
            "pencil": (self.c1 * self.b2 - self.c2 * self.b1
                       - self.Q * self.a).norm_inf(),
            "derivative1": _derivative_residual(
                self.a, self.c1, self.b1, self.a_dot, self.b1_dot).norm_inf(),
            "derivative2": _derivative_residual(
                self.a, self.c2, self.b2, self.a_dot, self.b2_dot).norm_inf(),
        }
        cross = self.c1.derivative() * self.c2 - self.c2.derivative() * self.c1
        compat = (cross.times_lambda() * 1j + self.c1 * self.b2_dot
                  - self.c2 * self.b1_dot) * 2.0 - self.a_dot * self.Q
        out["compatibility"] = compat.norm_inf()
        return out

    def scale(self):
        polys = (self.a, self.b1, self.b2, self.c1, self.c2, self.Q,
                 self.a_dot, self.b1_dot, self.b2_dot)
        return max(1.0, max(p.norm_inf() for p in polys))

    def check(self, tol=1e-9):
        res = self.residuals()
        s = self.scale()
        bad = {k: v for k, v in res.items() if v > tol * s}
        if bad:
            raise ResolutionError(
                "tangent residuals exceed %g relative: %s" % (tol, bad))
        return res


def _coerce_Q(Q):
    if Q is None:
        return CPoly([0.0, 0.0, 0.0], degree=2)
    q = Q if isinstance(Q, CPoly) else CPoly(Q)
    if q.formal_degree > 2:
        raise ValidationError("Q must have formal degree at most 2")
    q = CPoly(q.coeffs, degree=2)
    ok, defect = reality_check(q, tol=1e-9)
    if not ok:
        raise ValidationError("Q is not reversal-real (defect %.3e)" % defect)
    return q


def bezout_solve(a, b1, b2, Q, tol=1e-9, freedom=None, gcd=None):
    """Solve c1 b2 - c2 b1 = Q a for reversal-real (c1, c2) of degree g+1.

    Returns the minimum-norm solution of the real coefficient system.
    ``freedom=(A, B)`` shifts it along the solution family: A adds
    A*(b1, b2); when the pencil gcd has degree one with root lambda0, B
    adds i*B*(lambda + lambda0)*(b1, b2)/(lambda - lambda0), which is
    again reversal-real.

    Raises when the pencil gcd does not divide Q (no such direction).
    """
    Q = _coerce_Q(Q)
    deg_b = b1.formal_degree          # g + 1
    if gcd is None:
        gcd = pencil_gcd(b1, b2, GCD_TOL)
    if gcd.formal_degree > 0 and not Q.is_zero(1e-13):
        _, rem = npoly.polydiv(Q.coeffs, gcd.coeffs)
        if float(np.max(np.abs(rem))) > max(tol, 1e-9) * max(1.0, Q.norm_inf()):
            raise ValidationError(
                "no Whitham direction: Q is not divisible by the pencil gcd "
                "(degree %d)" % gcd.formal_degree
            )

    dim_c = deg_b + 1                 # real chart dimension of one c
    nrow = 2 * deg_b + 3              # formal degree of c*b products, plus one
    cols = []
    for idx in range(2 * dim_c):
        x1 = np.zeros(dim_c)
        x2 = np.zeros(dim_c)
        if idx < dim_c:
            x1[idx] = 1.0
        else:
            x2[idx - dim_c] = 1.0
        p1 = real_place(deg_b, x1)
        p2 = real_place(deg_b, x2)
        cols.append(_rows(p1 * b2 - p2 * b1, nrow))
    mat = np.stack(cols, axis=1)
    rhs = _rows(Q * a, nrow)
    sol = np.linalg.lstsq(mat, rhs, rcond=None)[0]
    c1 = real_place(deg_b, sol[:dim_c])
    c2 = real_place(deg_b, sol[dim_c:])

    residual = (c1 * b2 - c2 * b1 - Q * a).norm_inf()
    scale = max(1.0, (Q * a).norm_inf(),
                b1.norm_inf() * max(c1.norm_inf(), c2.norm_inf()))
    if residual > 1e-8 * scale:
        raise ResolutionError(
            "pencil relation inconsistent: residual %.3e "
            "(is Q compatible with this pencil?)" % residual
        )

    if freedom is not None:
        A, B = freedom
        if A:
            c1 = c1 + b1 * float(A)
            c2 = c2 + b2 * float(A)
        if B:
            if gcd.formal_degree != 1:
                raise ValidationError(
                    "freedom parameter B needs a pencil gcd of degree exactly 1"
                )
            lam0 = complex(-gcd.coeffs[0] / gcd.coeffs[1])
            lin = CPoly([lam0, 1.0])
            c1 = c1 + (lin * _deflate(b1, gcd)) * (1j * float(B))
            c2 = c2 + (lin * _deflate(b2, gcd)) * (1j * float(B))
    return c1, c2


def whitham_tangent(curve, basis, Q, tol=None, freedom=None):
    """Solve the tangent system at (curve; b1, b2) for the given Q.

    The linear system for (a_dot, b1_dot, b2_dot) over real coefficient
    charts is closed by the gauge Re(conj(lead a) * lead a_dot) = 0, which
    removes the common-rescaling kernel (2 s a, s b1, s b2); for a pencil
    with gcd(a, b1, b2) = 1 the gauged solution is unique.
    """
    tol = tol if tol is not None else curve.tol
    b1, b2 = basis.b1, basis.b2
    a = curve.a
    g = curve.genus

    gcd = pencil_gcd(b1, b2, GCD_TOL)
    if gcd.formal_degree > 0:
        for r in poly_roots(gcd, tol=curve.tol):
            if abs(a(r)) < 1e-6 * max(1.0, a.norm_inf()):
                raise ValidationError(
                    "nonunique tangent: a, b1, b2 share the root %s" % r)

    c1, c2 = bezout_solve(a, b1, b2, Q, tol=max(tol, 1e-9), freedom=freedom,
                          gcd=gcd)

    dim_a = 2 * g + 1                 # chart of reversal-real degree 2g
    dim_b = b1.formal_degree + 1      # chart of reversal-real degree g+1
    nrow = 3 * g + 3                  # covers formal degree 3g+1 (+ g=0 quirk)
    cols = []
    for idx in range(dim_a + 2 * dim_b):
        xa = np.zeros(dim_a)
        xb1 = np.zeros(dim_b)
        xb2 = np.zeros(dim_b)
        if idx < dim_a:
            xa[idx] = 1.0
        elif idx < dim_a + dim_b:
            xb1[idx - dim_a] = 1.0
        else:
            xb2[idx - dim_a - dim_b] = 1.0
        va = real_place(2 * g, xa)
        vb1 = real_place(b1.formal_degree, xb1)
        vb2 = real_place(b2.formal_degree, xb2)
        e1 = a * vb1 * 2.0 - va * b1
        e2 = a * vb2 * 2.0 - va * b2
        cols.append(np.concatenate([_rows(e1, nrow), _rows(e2, nrow)]))
    mat = np.stack(cols, axis=1)
    rhs = np.concatenate([_rows(_driver(a, c1), nrow), _rows(_driver(a, c2), nrow)])

    # gauge: lead a_dot equals the conjugate of the constant coefficient,
    # whose chart coordinates occupy slots 0 (real) and 1 (imaginary)
    lead = complex(a.coeffs[-1])
    gauge = np.zeros(mat.shape[1])
    gauge[0] = lead.real
    gauge[1] = -lead.imag
    weight = max(1.0, float(np.max(np.abs(mat))))
    mat = np.vstack([mat, weight * gauge])
    rhs = np.concatenate([rhs, [0.0]])

    sol = np.linalg.lstsq(mat, rhs, rcond=None)[0]
    a_dot = real_place(2 * g, sol[:dim_a])
    b1_dot = real_place(b1.formal_degree, sol[dim_a:dim_a + dim_b])
    b2_dot = real_place(b2.formal_degree, sol[dim_a + dim_b:])

    tangent = WhithamTangent(a=a, b1=b1, b2=b2, a_dot=a_dot,
                             b1_dot=b1_dot, b2_dot=b2_dot,
                             c1=c1, c2=c2, Q=_coerce_Q(Q))
    tangent.check(tol=1e-9)
    return tangent


def rotation_tangent(curve, basis):
    """The rigid-rotation direction: every root advected by eta_dot = -i eta.

    Takes c_k = b_k and Q = 0.  The polynomial derivatives carry
    reversal-real counterterms,

        a_dot = i (lambda a' - g a)
        b_dot = i (lambda b' - (g+1)/2 b),

    without which the direction is not tangent to the reversal-real family
    for g >= 1 (the root advection and the derivative equations are the
    same either way, and both conventions coincide at g = 0 up to gauge).
    """
    b1, b2 = basis.b1, basis.b2
    a = curve.a
    g = curve.genus
    half = (g + 1) / 2.0
    a_dot = (a.derivative().times_lambda() - a * float(g)) * 1j
    b1_dot = (b1.derivative().times_lambda() - b1 * half) * 1j
    b2_dot = (b2.derivative().times_lambda() - b2 * half) * 1j
    tangent = WhithamTangent(a=a, b1=b1, b2=b2, a_dot=a_dot,
                             b1_dot=b1_dot, b2_dot=b2_dot,
                             c1=b1, c2=b2, Q=_coerce_Q(None))
    tangent.check(tol=1e-9)
    return tangent


# Flow selector for the rigid rotation.
rotation_selector = rotation_tangent


def constant_Q_selector(Q, freedom=None):
    """Flow selector re-solving the tangent system with a fixed Q."""

    def select(curve, basis):
        return whitham_tangent(curve, basis, Q, freedom=freedom)

    return select


# ---------------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowRecord:
    t: float
    curve: object
    basis: object            # freshly solved, normalized basis (reporting)
    b1: CPoly                # frame carried by the flow
    b2: CPoly
    periods_b1: np.ndarray
    periods_b2: np.ndarray
    drift: float


def _advect(curve, a_dot):
    eta = np.asarray(curve.eta, dtype=complex)
    if not len(eta):
        return np.zeros(0, dtype=complex)
    da = curve.a.derivative()
    return -a_dot(eta) / da(eta)


def _state_derivative(eta, b1, b2, selector, tol):
    curve = build_curve(eta, tol=tol)
    # the frame is carried by the flow, not solved: it has no kernel gap
    tan = selector(curve, PencilBasis(curve, b1, b2, kernel_gap=math.nan))
    return _advect(curve, tan.a_dot), tan.b1_dot, tan.b2_dot


def flow(curve, selector, dt, steps, quad=None, tol=None):
    """Classical RK4 integration of an isoperiodic direction field.

    ``selector(curve, basis) -> WhithamTangent`` is evaluated at every
    stage on the carried frame (b1, b2), passed as a PencilBasis.  After
    each step the curve is re-built and validated, the pencil basis
    re-solved (for reporting and downstream classification), and the
    B-periods of the carried frame compared with the previous step: drift
    above 100 * tol relative to the period scale rejects the step and
    halves dt.  (The budget is relative because the
    period quadratures themselves carry relative error; anything a scheme
    could genuinely violate sits orders of magnitude above it.)  After
    eight halvings the flow aborts with the trajectory so far attached to
    the exception.

    The homology derived per curve fixes each B-cycle's orientation only
    up to sign (the square-root seeding has a seam when a cut crosses
    angle zero), so each cycle's periods are sign-aligned with the
    previous record before the drift comparison, and the aligned values
    are what the records store.

    Returns the list of FlowRecord, including the initial state.
    """
    tol = tol if tol is not None else curve.tol
    basis0 = solve_Ba(curve, quad=quad)
    eta = np.asarray(curve.eta, dtype=complex)
    b1, b2 = basis0.b1, basis0.b2
    p1 = np.asarray(b_periods(curve, b1, quad))
    p2 = np.asarray(b_periods(curve, b2, quad))
    records = [FlowRecord(t=0.0, curve=curve, basis=basis0, b1=b1, b2=b2,
                          periods_b1=p1, periods_b2=p2, drift=0.0)]

    t_total = dt * steps
    h = dt
    halvings = 0
    t = 0.0
    while t < t_total - 1e-15:
        step = min(h, t_total - t)
        try:
            k1 = _state_derivative(eta, b1, b2, selector, tol)
            k2 = _state_derivative(eta + 0.5 * step * k1[0],
                                   b1 + k1[1] * (0.5 * step),
                                   b2 + k1[2] * (0.5 * step), selector, tol)
            k3 = _state_derivative(eta + 0.5 * step * k2[0],
                                   b1 + k2[1] * (0.5 * step),
                                   b2 + k2[2] * (0.5 * step), selector, tol)
            k4 = _state_derivative(eta + step * k3[0],
                                   b1 + k3[1] * step,
                                   b2 + k3[2] * step, selector, tol)
            eta_n = eta + (step / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            b1_n = b1 + (k1[1] + k2[1] * 2.0 + k3[1] * 2.0 + k4[1]) * (step / 6.0)
            b2_n = b2 + (k1[2] + k2[2] * 2.0 + k3[2] * 2.0 + k4[2]) * (step / 6.0)

            curve_n = build_curve(eta_n, tol=tol)
            basis_n = solve_Ba(curve_n, quad=quad)
            p1_n = np.asarray(b_periods(curve_n, b1_n, quad))
            p2_n = np.asarray(b_periods(curve_n, b2_n, quad))
            prev = records[-1]
            drift = 0.0
            if curve.genus:
                flip = (np.abs(p1_n + prev.periods_b1)
                        + np.abs(p2_n + prev.periods_b2)
                        < np.abs(p1_n - prev.periods_b1)
                        + np.abs(p2_n - prev.periods_b2))
                signs = np.where(flip, -1.0, 1.0)
                p1_n = signs * p1_n
                p2_n = signs * p2_n
                drift = max(float(np.max(np.abs(p1_n - prev.periods_b1))),
                            float(np.max(np.abs(p2_n - prev.periods_b2))))
            pscale = max(1.0, float(np.max(np.abs(prev.periods_b1), initial=0.0)),
                         float(np.max(np.abs(prev.periods_b2), initial=0.0)))
            if drift > 100.0 * tol * pscale:
                raise ResolutionError(
                    "period drift %.3e exceeds budget %.3e"
                    % (drift, 100.0 * tol * pscale))
        except (ValidationError, ResolutionError) as exc:
            halvings += 1
            h = 0.5 * step
            log.warning("flow step rejected at t=%.6g (%s); dt -> %.3g",
                        t, exc, h)
            if halvings > 8:
                raise FlowAbort(
                    "flow aborted at t=%.6g after 8 step halvings: %s"
                    % (t, exc), records)
            continue
        t += step
        eta, b1, b2 = eta_n, b1_n, b2_n
        records.append(FlowRecord(t=t, curve=curve_n, basis=basis_n,
                                  b1=b1, b2=b2, periods_b1=p1_n,
                                  periods_b2=p2_n, drift=drift))
    return records


# ---------------------------------------------------------------------------
# handle attachment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HandleDeformation:
    """A genus-(g+1) curve obtained by opening a handle at alpha on S^1.

    The raw two-factor form (lambda - alpha e^t)(conj(alpha) lambda - e^{-t})
    times the base numerator is negative on the unit circle after dividing
    by lambda^{g+1}; the stored a_t is the sign-corrected canonical
    representative whose root multiset is the base roots together with the
    in-disc member alpha e^{-|t|} of the new reflection pair.
    """

    alpha: complex
    sqrt_alpha_bar: complex
    t: float
    a_t: CPoly
    b_t: CPoly
    curve: object
    base: object


def attach_handle(curve, b, alpha, t, sqrt_choice=1, tol=None, quad=None):
    """Open a handle: adjoin the branch-point pair alpha e^{-|t|}, alpha e^{|t|}.

    ``b`` is an element of the vanishing-A-period pencil of the base curve
    (pass None to use the first solved basis element).  The deformed b_t
    is the element of the new curve's pencil with

        b_t(0) = -alpha * sqrt(conj(alpha)) * b(0),

    the square root branch picked by ``sqrt_choice`` (+1 principal).
    """
    tol = tol if tol is not None else curve.tol
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > 1e-12:
        raise ValidationError(
            "handle point must lie on the unit circle, got |alpha| = %.12g"
            % abs(alpha))
    if sqrt_choice not in (1, -1):
        raise ValidationError("sqrt_choice must be +1 or -1")
    t = float(t)
    if t == 0.0:
        raise ValidationError(
            "nodal curve: t = 0 pinches the handle into a double point over "
            "alpha on the unit circle")
    if b is None:
        b = solve_Ba(curve, quad=quad).b1

    new_eta = alpha * math.exp(-abs(t))
    curve_t = build_curve(list(curve.eta) + [new_eta], tol=tol)
    basis_t = solve_Ba(curve_t, quad=quad)
    sab = sqrt_choice * complex(np.sqrt(np.conj(alpha)))
    z = -alpha * sab * complex(b(0.0))
    b_t = basis_t.b1 * z.real + basis_t.b2 * z.imag
    return HandleDeformation(alpha=alpha, sqrt_alpha_bar=sab, t=t,
                             a_t=curve_t.a, b_t=b_t, curve=curve_t, base=curve)


@dataclass(frozen=True)
class HandleCheck:
    alpha: complex
    t: float
    deg_f_before: int
    deg_f_after: int
    winding_before: int
    winding_after: int
    sign_slope: int
    new_circle_critical_points: tuple


def _angular_logslope(basis, tol=GCD_TOL):
    """d/dtheta of arg f~ along the unit circle, as a callable of theta.

    Zeros are exactly the critical points of the unimodular circle map."""
    num, den = _deflated_pair(basis, tol)
    dnum, dden = num.derivative(), den.derivative()

    def slope(theta):
        lam = np.exp(1j * np.asarray(theta, dtype=float))
        return np.real(lam * (dnum(lam) / num(lam) - dden(lam) / den(lam)))

    return slope


def _slope_zeros(slope, grid):
    """Zeros of ``slope`` in the sign-change intervals of ``grid``, bisected
    together with one ``slope`` call per step; a step that moves no bracket
    is a fixed point, so stopping there equals taking all 80 steps."""
    v = slope(grid)
    i = np.nonzero(np.signbit(v[:-1]) != np.signbit(v[1:]))[0]
    lo, hi, flo = grid[i], grid[i + 1], v[i]
    for _ in range(80 if i.size else 0):
        mid = 0.5 * (lo + hi)
        fm = slope(mid)
        left = flo * fm <= 0
        step = np.where(left, lo, mid), np.where(left, mid, hi), np.where(left, flo, fm)
        if all(np.array_equal(a, b) for a, b in zip(step, (lo, hi, flo))):
            break
        lo, hi, flo = step
    return list(0.5 * (lo + hi))


def _new_critical_pair(slope0, slope1, psi, t_used):
    """Window count of circle-map critical points: the deformed map must
    have exactly two more than the base map near psi.  The window shrinks
    until no zero of either map sits within a margin of its edges (zeros
    displace by O(t) under the deformation, so an edge zero would make the
    count ambiguous)."""
    width = 0.45
    margin = 0.05 + 2.0 * t_used
    while True:
        dense = min(width / 3.0, max(0.01, 4.0 * t_used))
        grid = np.union1d(psi + np.linspace(-width, width, 8001),
                          psi + np.linspace(-dense, dense, 4001))
        z0 = _slope_zeros(slope0, grid)
        z1 = _slope_zeros(slope1, grid)
        edges = (psi - width, psi + width)
        if all(min(abs(z - edges[0]), abs(z - edges[1])) > margin
               for z in z0 + z1):
            break
        width *= 0.93
        if width < 0.12:
            raise InvariantError(
                "could not isolate a clean window around alpha for "
                "critical-point counting")
    if len(z1) != len(z0) + 2:
        near = min((abs(z - psi) for z in z0), default=np.inf)
        hint = ""
        if near < 6.0 * t_used:
            hint = (" -- a base critical point lies %.3g from alpha, so the "
                    "new pair only separates for t well below that" % near)
        raise InvariantError(
            "expected two new critical points of the deformed circle map "
            "near alpha: window holds %d before and %d after (t=%g)%s"
            % (len(z0), len(z1), t_used, hint))
    return tuple(sorted(z1, key=lambda z: abs(z - psi))[:2])


def handle_invariant_check(curve, alpha, t, tol=GCD_TOL, quad=None):
    """Verify the degree/winding laws of a handle attachment.

    deg f gains one; the winding drops by the sign of the angular slope of
    arg f~ at alpha; exactly two new simple critical points of the
    deformed circle map appear on the unit circle near alpha.  All three
    are small-t statements, so any failed check halves the handle
    parameter and retries (up to 12 times) before the last failure is
    raised, with both sides of the offending equality reported.
    """
    alpha = complex(alpha)
    basis = solve_Ba(curve, quad=quad)
    report0 = classify(curve, basis, tol=tol)
    if report0.gcd_degree != 0:
        raise ValidationError(
            "handle check requires a coprime pencil (gcd degree 0), got %d"
            % report0.gcd_degree)
    slope0 = _angular_logslope(basis, tol)
    psi = float(np.angle(alpha))
    s_alpha = float(slope0(psi))
    if abs(s_alpha) < 1e-5:
        raise ValidationError(
            "alpha is (numerically) a critical point of the circle map: "
            "angular slope %.3e" % s_alpha)
    sign = 1 if s_alpha > 0 else -1

    t_used = float(t)
    last_exc = None
    for _ in range(12):
        try:
            deformed = attach_handle(curve, basis.b1, alpha, t_used,
                                     tol=curve.tol, quad=quad)
            basis1 = solve_Ba(deformed.curve, quad=quad)
            report1 = classify(deformed.curve, basis1, tol=tol)
            if report1.gcd_degree != 0:
                raise _StratumCollapse(
                    "deformed pencil sits within gcd tolerance of the "
                    "common-root stratum at t=%g; the laws cannot be "
                    "verified at this resolution (try a larger handle "
                    "parameter or an alpha farther from the base map's "
                    "critical points)" % t_used)
            if report1.deg_f != report0.deg_f + 1:
                raise InvariantError(
                    "handle degree law failed: deg f %d -> %d, expected %d"
                    % (report0.deg_f, report1.deg_f, report0.deg_f + 1))
            if report1.winding != report0.winding - sign:
                raise InvariantError(
                    "handle winding law failed: %d -> %d, expected %d "
                    "(slope sign %+d at alpha)"
                    % (report0.winding, report1.winding,
                       report0.winding - sign, sign))
            slope1 = _angular_logslope(basis1, tol)
            pair = _new_critical_pair(slope0, slope1, psi, t_used)
            return HandleCheck(alpha=alpha, t=t_used,
                               deg_f_before=report0.deg_f,
                               deg_f_after=report1.deg_f,
                               winding_before=report0.winding,
                               winding_after=report1.winding,
                               sign_slope=sign,
                               new_circle_critical_points=tuple(
                                   np.exp(1j * np.array(sorted(pair)))))
        except _StratumCollapse:
            raise
        except (ValidationError, ResolutionError, InvariantError) as exc:
            last_exc = exc
            t_used *= 0.5
    raise InvariantError(
        "handle laws not verified down to t=%g: %s" % (2.0 * t_used, last_exc))
