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

import functools
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .curve import build_curve
from .errors import InvariantError, ResolutionError, ValidationError, is_number
from .invariants import GCD_TOL, _circle_count, _common_roots, _deflated_pair, classify, pencil_gcd
from .periods import PencilBasis, _check_basis_curve, b_periods, solve_Ba
from .polyring import (CPoly, _chart_units, _companion_roots, _conv, _der, _lam, _sum,
                       real_place, reality_check)

log = logging.getLogger(__name__)


class FlowAbort(ResolutionError):
    """Flow integration gave up; carries the trajectory computed so far."""

    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


def _rows(p, length):
    """Real/imaginary coefficient rows of p, zero-padded to ``length``."""
    c = np.zeros(length, dtype=np.complex128)
    c[: len(p.coeffs)] = p.coeffs
    return np.concatenate([c.real, c.imag])


def _times(p, degree, length):
    """Real matrix of x -> _rows(real_place(degree, x) * p, length): one
    column per chart unit, each the convolution ``CPoly.__mul__`` makes."""
    prods = np.array([_conv(unit, p.coeffs) for unit in _chart_units(degree)])
    c = np.zeros((degree + 1, length), dtype=np.complex128)
    c[:, : prods.shape[1]] = prods
    return np.concatenate([c.real, c.imag], axis=1).T


# ---------------------------------------------------------------------------
# tangent algebra
# ---------------------------------------------------------------------------

def _driver(a, da, c, dc):
    """i (2 lambda a c' - a c - lambda a' c), the c-side of the derivative
    equation, from the coefficients of a, a', c and c'."""
    return _sum(_lam(_conv(a, dc)) * 2.0, -_conv(a, c), -_lam(_conv(da, c))) * 1j


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
        a, b1, b2, a_dot, b1_dot, b2_dot, c1, c2, Q = (p.coeffs for p in self._polys())
        conv, da, dc1, dc2 = _conv, _der(a), _der(c1), _der(c2)
        cross = _lam(_sum(conv(dc1, c2), -conv(dc2, c1)))
        polys = {
            "pencil": _sum(conv(c1, b2), -conv(c2, b1), -conv(Q, a)),
            "derivative1": _sum(conv(a, b1_dot) * 2.0, -conv(a_dot, b1),
                                -_driver(a, da, c1, dc1)),
            "derivative2": _sum(conv(a, b2_dot) * 2.0, -conv(a_dot, b2),
                                -_driver(a, da, c2, dc2)),
            "compatibility": _sum(_sum(cross * 1j, conv(c1, b2_dot),
                                       -conv(c2, b1_dot)) * 2.0, -conv(a_dot, Q)),
        }
        return {k: float(np.abs(p).max()) for k, p in polys.items()}

    def _polys(self):
        return (self.a, self.b1, self.b2, self.a_dot, self.b1_dot, self.b2_dot, self.c1,
                self.c2, self.Q)

    def scale(self):
        return max(1.0, float(np.abs(np.concatenate([p.coeffs for p in self._polys()])).max()))

    def check(self):
        res = self.residuals()
        s = self.scale()
        bad = {k: v for k, v in res.items() if v > 1e-9 * s}
        if bad:
            raise ResolutionError(
                "tangent residuals exceed 1e-09 relative: %s" % bad)
        return res


def _coerce_Q(Q):
    if Q is None:
        return CPoly([0.0, 0.0, 0.0], degree=2)
    q = Q if isinstance(Q, CPoly) else CPoly(Q)
    if q.formal_degree > 2:
        raise ValidationError("Q must have formal degree at most 2")
    q = CPoly(q.coeffs, degree=2)
    if not np.all(np.isfinite(q.coeffs)):
        raise ValidationError("Q has non-finite coefficients %s" % q.coeffs.tolist())
    ok, defect = reality_check(q, tol=1e-9)
    if not ok:
        raise ValidationError("Q is not reversal-real (defect %.3e)" % defect)
    return q


def bezout_solve(a, b1, b2, Q, tol=1e-9):
    """Solve c1 b2 - c2 b1 = Q a for reversal-real (c1, c2) of degree g+1.

    Returns the minimum-norm solution of the real coefficient system.

    Raises when the pencil gcd does not divide Q (no such direction).
    """
    Q = _coerce_Q(Q)
    deg_b = b1.formal_degree          # g + 1
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
    mat = np.hstack([_times(b2, deg_b, nrow), -_times(b1, deg_b, nrow)])
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

    return c1, c2


def whitham_tangent(curve, basis, Q):
    """Solve the tangent system at (curve; b1, b2) for the given Q.

    The linear system for (a_dot, b1_dot, b2_dot) over real coefficient
    charts is closed by the gauge Re(conj(lead a) * lead a_dot) = 0, which
    removes the common-rescaling kernel (2 s a, s b1, s b2); for a pencil
    with gcd(a, b1, b2) = 1 the gauged solution is unique.  A basis of
    another curve is refused.
    """
    _check_basis_curve(curve, basis)
    b1, b2 = basis.b1, basis.b2
    a = curve.a
    g = curve.genus

    for r in _common_roots(b1, b2, GCD_TOL)[1]:
        if abs(a(r)) < 1e-6 * max(1.0, a.norm_inf()):
            raise ValidationError(
                "nonunique tangent: a, b1, b2 share the root %s" % r)

    Q = _coerce_Q(Q)
    c1, c2 = bezout_solve(a, b1, b2, Q, tol=max(curve.tol, 1e-9))

    dim_a = 2 * g + 1                 # chart of reversal-real degree 2g
    dim_b = b1.formal_degree + 1      # chart of reversal-real degree g+1
    nrow = 3 * g + 3                  # covers formal degree 3g+1 (+ g=0 quirk)
    ta = 2.0 * _times(a, b1.formal_degree, nrow)
    zero = np.zeros_like(ta)
    mat = np.block([[-_times(b1, 2 * g, nrow), ta, zero],
                    [-_times(b2, 2 * g, nrow), zero, ta]])
    rhs = np.concatenate([_rows(CPoly(_driver(a.coeffs, _der(a.coeffs), c.coeffs,
                                              _der(c.coeffs))), nrow) for c in (c1, c2)])

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
                             c1=c1, c2=c2, Q=Q)
    tangent.check()
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
    A basis of another curve is refused.
    """
    _check_basis_curve(curve, basis)
    b1, b2 = basis.b1, basis.b2
    a = curve.a
    g = curve.genus
    half = (g + 1) / 2.0
    a_dot, b1_dot, b2_dot = (CPoly(_sum(_lam(_der(p.coeffs)), -(p.coeffs * k)) * 1j)
                             for p, k in ((a, float(g)), (b1, half), (b2, half)))
    tangent = WhithamTangent(a=a, b1=b1, b2=b2, a_dot=a_dot,
                             b1_dot=b1_dot, b2_dot=b2_dot,
                             c1=b1, c2=b2, Q=_coerce_Q(None))
    tangent.check()
    return tangent


# Flow selector for the rigid rotation.
rotation_selector = rotation_tangent


def constant_Q_selector(Q):
    """Flow selector re-solving the tangent system with a fixed Q, checked once."""
    Q = _coerce_Q(Q)

    def select(curve, basis):
        return whitham_tangent(curve, basis, Q)

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


def _state_derivative(curve, b1, b2, selector):
    """Root velocities -a_dot(eta) / a'(eta) and b1_dot, b2_dot coefficients."""
    # the frame is carried by the flow, not solved: it has no kernel gap
    tan = selector(curve, PencilBasis(curve, b1, b2, kernel_gap=math.nan))
    eta = np.asarray(curve.eta, dtype=complex)
    return -tan.a_dot(eta) / curve.a.derivative()(eta), tan.b1_dot.coeffs, tan.b2_dot.coeffs


def flow(curve, selector, dt, steps, quad=None, tol=None):
    """Classical RK4 integration of an isoperiodic direction field.

    ``selector(curve, basis) -> WhithamTangent`` is evaluated at every
    stage on the carried frame (b1, b2), passed as a PencilBasis; a retried
    step reuses its first stage.  After each step the curve is re-built and
    validated and the B-periods of the carried frame compared with the
    previous step: drift above 100 * tol relative to the period scale
    rejects the step, halving dt and doubling the count of steps left.
    (The budget is relative because the period quadratures themselves carry
    relative error; anything a scheme could genuinely violate sits orders
    of magnitude above it.)  An accepted step's pencil basis is re-solved
    (for reporting and downstream classification).  After eight halvings
    the flow aborts with the trajectory so far attached to the exception.

    The homology derived per curve fixes each B-cycle's orientation only
    up to sign (the square-root seeding has a seam when a cut crosses
    angle zero), so each cycle's periods are sign-aligned with the
    previous record before the drift comparison, and the aligned values
    are what the records store.

    Returns the list of FlowRecord, including the initial state: steps + 1
    of them when no step is rejected.  dt must be finite and positive and
    steps an integer, at least one.
    """
    if not (is_number(dt) and 0.0 < dt < math.inf and is_number(steps, numbers.Integral)
            and steps >= 1):
        raise ValidationError("flow needs a finite dt > 0 and steps >= 1, an integer, "
                              "got dt=%r, steps=%r" % (dt, steps))
    tol = tol if tol is not None else curve.tol
    basis0 = solve_Ba(curve, quad=quad)
    eta = np.asarray(curve.eta, dtype=complex)
    b1, b2 = basis0.b1, basis0.b2
    p1 = np.asarray(b_periods(curve, b1, quad))
    p2 = np.asarray(b_periods(curve, b2, quad))
    records = [FlowRecord(t=0.0, curve=curve, basis=basis0, b1=b1, b2=b2,
                          periods_b1=p1, periods_b2=p2, drift=0.0)]

    def stage(frac, k):
        return _state_derivative(build_curve(eta + frac * k[0], tol=tol),
                                 CPoly(_sum(b1.coeffs, k[1] * frac)),
                                 CPoly(_sum(b2.coeffs, k[2] * frac)), selector)

    t_total = dt * steps
    h, left = dt, steps               # left: steps of size h still to take
    halvings = 0
    t = 0.0
    state = curve if tol == curve.tol else build_curve(eta, tol=tol)
    k1 = None                         # of state; a retried step reuses it
    while left:
        step = min(h, t_total - t)
        try:
            if k1 is None:
                k1 = _state_derivative(state, b1, b2, selector)
            k2 = stage(0.5 * step, k1)
            k3 = stage(0.5 * step, k2)
            k4 = stage(step, k3)
            eta_n = eta + (step / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            b1_n, b2_n = (CPoly(_sum(b.coeffs, _sum(k1[i], k2[i] * 2.0, k3[i] * 2.0, k4[i])
                                     * (step / 6.0))) for i, b in ((1, b1), (2, b2)))

            curve_n = build_curve(eta_n, tol=tol)
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
                p1_n, p2_n = signs * p1_n, signs * p2_n
                drift = max(float(np.max(np.abs(p1_n - prev.periods_b1))),
                            float(np.max(np.abs(p2_n - prev.periods_b2))))
            pscale = max(1.0, float(np.max(np.abs(prev.periods_b1), initial=0.0)),
                         float(np.max(np.abs(prev.periods_b2), initial=0.0)))
            if drift > 100.0 * tol * pscale:
                raise ResolutionError(
                    "period drift %.3e exceeds budget %.3e"
                    % (drift, 100.0 * tol * pscale))
            basis_n = solve_Ba(curve_n, quad=quad)
        except (ValidationError, ResolutionError) as exc:
            halvings += 1
            h, left = 0.5 * step, 2 * left
            log.warning("flow step rejected at t=%.6g (%s); dt -> %.3g",
                        t, exc, h)
            if halvings > 8:
                raise FlowAbort(
                    "flow aborted at t=%.6g after 8 step halvings: %s"
                    % (t, exc), records)
            continue
        t += step
        left -= 1
        state, eta, b1, b2, k1 = curve_n, eta_n, b1_n, b2_n, None
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
    by lambda^{g+1}; ``curve.a`` is the sign-corrected canonical
    representative whose root multiset is the base roots together with the
    in-disc member alpha e^{-t} of the new reflection pair.
    """

    alpha: complex
    sqrt_alpha_bar: complex
    t: float
    b_t: CPoly
    curve: object
    basis: object            # solved pencil basis of the handle curve


def _handle_point(alpha):
    """The handle point as a complex number; a bool or a string is refused."""
    if not is_number(alpha, numbers.Number):
        raise ValidationError("handle point must be a number, got %r" % (alpha,))
    return complex(alpha)


def _handle_parameter(t):
    """The handle parameter as a float, which must be a finite and positive
    real number."""
    value = float(t) if is_number(t) else math.nan
    if not (value > 0.0 and math.isfinite(value)):
        raise ValidationError(
            "handle parameter must be finite and positive, got t = %r (t = 0 "
            "is the nodal curve: a double point over alpha on S^1)" % (t,))
    return value


def attach_handle(curve, b, alpha, t, quad=None):
    """Open a handle: adjoin the branch-point pair alpha e^{-t}, alpha e^{t}.

    ``b`` is an element of the vanishing-A-period pencil of the base curve
    (pass None to use the first solved basis element).  The handle curve
    keeps ``curve.tol``; b_t is the element of its pencil with

        b_t(0) = -alpha * sqrt(conj(alpha)) * b(0),

    the principal square root; the other branch only negates b_t.
    """
    alpha = _handle_point(alpha)
    if not abs(abs(alpha) - 1.0) <= 1e-12:         # NaN fails too
        raise ValidationError(
            "handle point must lie on the unit circle, got |alpha| = %.12g"
            % abs(alpha))
    t = _handle_parameter(t)
    if b is None:
        b = solve_Ba(curve, quad=quad).b1

    new_eta = alpha * math.exp(-t)
    curve_t = build_curve(list(curve.eta) + [new_eta], tol=curve.tol)
    basis_t = solve_Ba(curve_t, quad=quad)
    sab = complex(np.sqrt(np.conj(alpha)))
    z = -alpha * sab * complex(b(0.0))
    b_t = basis_t.b1 * z.real + basis_t.b2 * z.imag
    return HandleDeformation(alpha=alpha, sqrt_alpha_bar=sab, t=t, b_t=b_t,
                             curve=curve_t, basis=basis_t)


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


def _slope_block(num, den):
    """Columns num, num', num'', den, den', den'', zero-padded at the top:
    one polyval at an array of points gives the bits of six separate calls
    (Horner steps on leading zeros are exact)."""
    dn, dd = num.derivative(), den.derivative()
    cols = (num.coeffs, dn.coeffs, dn.derivative().coeffs, den.coeffs, dd.coeffs,
            dd.derivative().coeffs)
    block = np.zeros((max(len(c) for c in cols), 6), dtype=np.complex128)
    for k, c in enumerate(cols):
        block[: len(c), k] = c
    return block


def _angular_logslope(block, theta):
    """d/dtheta of arg f~ for f~ = num/den at angles ``theta``, its theta
    derivative, and the size of the terms it differences (its rounding
    scale), from ``block = _slope_block(num, den)``.  Zeros are exactly
    the critical points of the circle map."""
    lam = np.exp(1j * np.asarray(theta, dtype=float))
    n0, dn, ddn, m0, dd, ddd = npoly.polyval(lam, block)
    ln, ld = dn / n0, dd / m0
    s = lam * (ln - ld)
    curv = lam * lam * (ddn / n0 - ln * ln - ddd / m0 + ld * ld)
    return np.real(s), -np.imag(s + curv), np.abs(ln) + np.abs(ld)


def _critical_angles(num, den, block=None):
    """Angles of all critical points of the circle map f~ = num/den.

    On S^1, d/dtheta arg f~ = lam W / (num den) with W = num' den - num den'
    self-reciprocal (its formal top coefficient cancels; off-circle roots
    pair as r, 1/conj(r)), so the critical points are the unit-circle
    roots of W.  Their number comes from W's coefficients
    (``_circle_count``); that many companion roots nearest S^1 are kept and
    polished by three Newton steps on the slope.  Each kept zero must be
    farther from its neighbours than four times their errors (Newton step
    plus rounding), and W' must have no zero within rounding of S^1; else
    a near-circle pair is within rounding of a double root, which raises
    InvariantError.  ``block`` is _slope_block(num, den), if known.
    """
    block = _slope_block(num, den) if block is None else block
    unresolved = InvariantError(
        "critical points of the circle map not resolved: a near-circle "
        "root pair of W is within rounding of a double root")
    w = (num.derivative() * den - num * den.derivative()).coeffs[:-1]
    try:
        count = _circle_count(CPoly(w))
    except ResolutionError:
        raise unresolved from None
    r = _companion_roots(w[::-1])
    theta = np.angle(r[np.argsort(np.abs(np.abs(r) - 1.0), kind="stable")[:count]])
    for _ in range(3):
        s, ds, _ = _angular_logslope(block, theta)
        theta = theta - s / ds
    theta = np.sort(theta % (2.0 * np.pi))
    s, ds, scale = _angular_logslope(block, theta)
    err = 4.0 * (np.abs(s) + 64.0 * np.finfo(float).eps * scale) / np.abs(ds)
    gaps = np.diff(theta, append=theta[:1] + 2.0 * np.pi)
    if not np.all(gaps > err + np.roll(err, -1)):
        raise unresolved
    return theta


def _new_critical_pair(crit0, crit1, psi, t_used):
    """The third handle law on the critical points of the base and the
    deformed circle map.  Each base one claims its nearest deformed one,
    within 0.05 + 2t (they displace by O(t)); the claims must be distinct
    and leave exactly two deformed ones unclaimed, the new pair, both
    within 0.05 + 2t of psi.  Angles are unwrapped to offsets from psi in
    [-pi, pi)."""
    off0, off1 = ((np.asarray(c) - psi + np.pi) % (2.0 * np.pi) - np.pi
                  for c in (crit0, crit1))
    moved = np.abs((np.subtract.outer(off0, off1) + np.pi) % (2.0 * np.pi) - np.pi)
    new = np.delete(off1, moved.argmin(axis=1) if len(off1) else [])
    worst = max(moved.min(axis=1, initial=np.inf).max(initial=0.0),
                np.abs(new).max(initial=0.0))
    if len(off1) != len(off0) + 2 or len(new) != 2 or worst > 0.05 + 2.0 * t_used:
        raise InvariantError(
            "critical-point law failed: expected each base critical point of the "
            "circle map to keep a successor of its own and two new ones near alpha, "
            "all within 0.05 + 2t: %d before and %d after, the farthest %.3g away "
            "(t=%g)"
            % (len(off0), len(off1), worst, t_used))
    return tuple(psi + new)


@functools.lru_cache(maxsize=32)
def _base_map(basis, tol):
    """Classification, slope block and critical angles of a handle check's
    base map, shared by every alpha and t checked on one (basis, tol)."""
    report = classify(basis.curve, basis, tol=tol)
    if report.gcd_degree != 0:
        raise ValidationError(
            "handle check requires a coprime pencil (gcd degree 0), got %d"
            % report.gcd_degree)
    pair = _deflated_pair(basis, tol)
    block = _slope_block(*pair)
    crit = _critical_angles(*pair, block)
    for shared in (block, crit):
        shared.setflags(write=False)
    return report, block, crit


def handle_invariant_check(curve, alpha, t, tol=GCD_TOL, quad=None):
    """Verify the winding and critical-point laws of a handle attachment.

    The winding drops by the sign of the angular slope of arg f~ at alpha;
    the deformed circle map has exactly two critical points more, the pair
    near alpha (``_new_critical_pair``).  Both are small-t statements, so
    only a failed law halves the handle parameter and retries (up to 12
    times) before the last failure is raised, with both sides of the
    offending equality reported; every other refusal is raised at once
    with its own type.  deg f gains one: the deformed pencil must be
    coprime, as the base one is, and the handle adds one root.
    """
    alpha = _handle_point(alpha)
    t_used = _handle_parameter(t)
    if not 0.05 + 2.0 * t_used < np.pi:     # the critical-point law's window would be S^1
        raise ValidationError("handle check needs 0.05 + 2t < pi, got t = %g" % t_used)
    basis = solve_Ba(curve, quad=quad)
    report0, block0, crit0 = _base_map(basis, tol)
    psi = float(np.angle(alpha))
    s_alpha = float(_angular_logslope(block0, psi)[0])
    if abs(s_alpha) < 1e-5:
        raise ValidationError(
            "alpha is (numerically) a critical point of the circle map: "
            "angular slope %.3e" % s_alpha)
    sign = 1 if s_alpha > 0 else -1

    last_exc = None
    for _ in range(12):
        deformed = attach_handle(curve, basis.b1, alpha, t_used, quad=quad)
        report1 = classify(deformed.curve, deformed.basis, tol=tol)
        if report1.gcd_degree != 0:
            # once a law has failed at a larger t, a larger t is no way out
            advice = "" if last_exc else "a larger handle parameter or "
            failed = "; last law failure: %s" % last_exc if last_exc else ""
            raise ResolutionError(
                "deformed pencil sits within gcd tolerance of the "
                "common-root stratum at t=%g; the laws cannot be "
                "verified at this resolution (try %san alpha farther "
                "from the base map's critical points)%s" % (t_used, advice, failed))
        crit1 = _critical_angles(*_deflated_pair(deformed.basis, tol))
        try:
            if report1.winding != report0.winding - sign:
                raise InvariantError(
                    "handle winding law failed: %d -> %d, expected %d "
                    "(slope sign %+d at alpha)"
                    % (report0.winding, report1.winding,
                       report0.winding - sign, sign))
            pair = _new_critical_pair(crit0, crit1, psi, t_used)
        except InvariantError as exc:
            last_exc = exc
            t_used *= 0.5
        else:
            return HandleCheck(alpha=alpha, t=t_used,
                               deg_f_before=report0.deg_f,
                               deg_f_after=report1.deg_f,
                               winding_before=report0.winding,
                               winding_after=report1.winding,
                               sign_slope=sign,
                               new_circle_critical_points=tuple(
                                   np.exp(1j * np.array(sorted(pair)))))
    raise InvariantError(
        "handle laws not verified down to t=%g: %s" % (2.0 * t_used, last_exc))
