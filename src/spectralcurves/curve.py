"""Hyperelliptic spectral curves y^2 = lambda * a(lambda) with unit-circle reality.

The curve data is a finite set of roots eta_j in the punctured open unit
disc.  Each root is paired with its reflection 1/conj(eta_j) across the
unit circle, and the polynomial

    a(lambda) = (-1)^g * prod_j (conj(eta_j)/|eta_j|) (lambda - eta_j)(lambda - 1/conj(eta_j))

is reversal-real (see :mod:`spectralcurves.polyring`), has unimodular top
coefficient, and is positive on the unit circle after dividing by lambda^g.
This module owns curve construction/validation, the continuation of the
square root along sampled paths, and the radial-cut layout of a homology
basis that the period engine integrates over.
"""

import cmath
import functools
import json
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ValidationError, is_number
from .polyring import CPoly, reality_check, symmetrize_reality

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-9

# Minimum admissible pairwise distance between branch points.  Curves closer
# to the discriminant than this are rejected outright: the homology layout
# and the quadrature both lose meaning before accuracy degrades gracefully.
MIN_ROOT_SEPARATION = 1e-6

# Fraction of the innermost root radius used for the service circle around
# the origin (the circle is shared by all B-cycle lassos and Sym detours).
SERVICE_RADIUS_FACTOR = 0.45

# The 512 points of S^1 on which build_curve asserts positivity.
_CIRCLE_GRID = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False))


# ---------------------------------------------------------------------------
# curve construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralCurve:
    """Validated curve y^2 = lambda*a(lambda).

    Fields are plain tuples so instances are hashable; period engines key
    their caches on the curve object itself.

    Attributes
    ----------
    genus : int
        Number of roots inside the punctured unit disc.
    eta : tuple of complex
        The interior roots, in input order.
    partners : tuple of complex
        The reflected roots 1/conj(eta_j), matching order.
    a : CPoly
        The degree-2g polynomial above, with reversal-reality made exact.
    lead : complex
        Top coefficient of ``a`` (unimodular).
    cut_angles : tuple of float
        arg(eta_j) for each radial cut.
    r0 : float
        Radius of the service circle around the branch point at 0.
    tol : float
        Validation/working tolerance attached to the curve.
    """

    genus: int
    eta: tuple
    partners: tuple
    a: CPoly
    lead: complex
    cut_angles: tuple
    r0: float
    tol: float

    @property
    def branch_points(self):
        """All finite nonzero branch points (interior roots then partners)."""
        return self.eta + self.partners

    def __repr__(self):
        return "SpectralCurve(genus=%d, eta=%s)" % (self.genus, list(self.eta))


def _angdist(x, y):
    """Distance between two angles on the circle, in [0, pi]."""
    d = math.fmod(x - y, 2.0 * math.pi)
    if d < -math.pi:
        d += 2.0 * math.pi
    elif d > math.pi:
        d -= 2.0 * math.pi
    return abs(d)


def build_curve(eta, tol=DEFAULT_TOL):
    """Construct and validate a spectral curve from its interior roots.

    Parameters
    ----------
    eta : sequence of complex
        Roots in the punctured open unit disc.  May be empty (genus 0).
    tol : float
        Working tolerance stored on the curve; must be finite and positive.

    Returns
    -------
    SpectralCurve

    Raises
    ------
    ValidationError
        If ``eta`` is not a flat sequence of numbers, any root sits at the
        origin, on or outside the unit circle, or two branch points come
        within 1e-6 of each other, or if ``tol`` is not finite and positive.
    """
    try:
        tol_ok, roots = is_number(tol) and 0.0 < tol < math.inf, np.asarray(eta, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError("curve needs numbers for roots and tol: %s" % exc) from None
    if not tol_ok or roots.ndim != 1 or not all(is_number(z, numbers.Number) for z in eta):
        raise ValidationError("curve tolerance must be finite and positive and its roots a flat "
                              "sequence of numbers (not bools or strings), got %r and %r"
                              % (tol, eta))
    eta = tuple(map(complex, roots))
    g = len(eta)

    for z in eta:
        if not cmath.isfinite(z):
            raise ValidationError("root %s is not finite" % z)
        r = abs(z)
        if r < 1e-12:
            raise ValidationError("root at origin violates punctured disc")
        if r >= 1.0:
            raise ValidationError("root %s on or outside the unit circle violates the open-disc "
                                  "condition |eta| < 1" % z)

    partners = tuple(complex(1.0 / np.conj(z)) for z in eta)
    allroots = eta + partners
    for i in range(len(allroots)):
        for j in range(i + 1, len(allroots)):
            if abs(allroots[i] - allroots[j]) < MIN_ROOT_SEPARATION:
                raise ValidationError(
                    "branch points %s and %s closer than %g: curve is numerically degenerate"
                    % (allroots[i], allroots[j], MIN_ROOT_SEPARATION)
                )

    prefactor = (-1.0) ** g
    for z in eta:
        prefactor *= np.conj(z) / abs(z)
    a = CPoly.from_roots(allroots) * complex(prefactor)

    ok, defect = reality_check(a, tol=1e3 * tol)
    if not ok:
        # cannot happen for exact input arithmetic; guards FP blowups
        raise ValidationError("constructed a(lambda) lost reversal-reality (defect %.3e)" % defect)
    a = symmetrize_reality(a)
    lead = complex(a.coeffs[-1])

    # positivity of lambda^(-g) a on the unit circle -- automatic for this
    # construction, asserted defensively on a sample grid
    vals = a(_CIRCLE_GRID) * _circle_power(g)
    if np.max(np.abs(vals.imag)) > 1e3 * tol * max(1.0, np.max(np.abs(vals))) or np.min(vals.real) <= 0:
        raise ValidationError("lambda^(-g) a(lambda) is not positive on the unit circle")

    cut_angles = tuple(math.atan2(z.imag, z.real) for z in eta)
    r0 = SERVICE_RADIUS_FACTOR * (min(abs(z) for z in eta) if eta else 1.0)

    return SpectralCurve(genus=g, eta=eta, partners=partners, a=a, lead=lead,
                         cut_angles=cut_angles, r0=r0, tol=float(tol))


@functools.lru_cache(maxsize=None)
def _circle_power(g):
    """Read-only ``_CIRCLE_GRID ** (-g)``, once per genus."""
    out = _CIRCLE_GRID ** (-g)
    out.setflags(write=False)
    return out


def rotate_curve(curve, phi):
    """Rotate the curve: root multiset eta_j -> e^{i phi} eta_j."""
    return build_curve([z * np.exp(1j * phi) for z in curve.eta], tol=curve.tol)


# ---------------------------------------------------------------------------
# JSON round trip (canonical CLI input format)
# ---------------------------------------------------------------------------

def curve_to_dict(curve):
    """Plain-dict form: {"genus": g, "eta": [[re, im], ...], "tol": t}."""
    return {
        "genus": curve.genus,
        "eta": [[z.real, z.imag] for z in curve.eta],
        "tol": curve.tol,
    }


def curve_from_dict(data):
    """Inverse of :func:`curve_to_dict`; `genus` is checked against `eta`."""
    try:
        eta = [complex(re, im) for re, im in data["eta"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("curve record needs an 'eta' list of [re, im] pairs: %s" % exc)
    try:
        genus = int(data.get("genus", len(eta)))
    except (TypeError, ValueError):
        raise ValidationError("curve record 'genus' must be an integer, got %r" % data["genus"])
    try:
        tol = float(data.get("tol", DEFAULT_TOL))
    except (TypeError, ValueError):
        raise ValidationError("curve record 'tol' must be a number, got %r" % data["tol"])
    if genus != len(eta):
        raise ValidationError(
            "curve record genus %s does not match %d roots" % (data["genus"], len(eta))
        )
    return build_curve(eta, tol=tol)


def curve_from_json(text):
    return curve_from_dict(json.loads(text))


def curve_to_json(curve):
    return json.dumps(curve_to_dict(curve))


# ---------------------------------------------------------------------------
# square-root continuation
# ---------------------------------------------------------------------------

def track_sqrt(values):
    """Roots along the last axis of ``values`` (one path per row) from each
    first sample's principal root, and a per-row flag, False (roots 1, no
    warning) where a row has a zero or a step of pi/2 in arg.  Signed principal
    roots keep one rounding at any path length."""
    root = np.sqrt(np.asarray(values, dtype=complex))
    # a step under pi/2 in arg turns the root under pi/4, so neighbouring
    # principal roots point within pi/4 of each other, or apart at a sign flip
    step = root[..., 1:] * root[..., :-1].conj()
    ok = np.all(np.abs(step.real) > np.abs(step.imag), axis=-1)
    root[..., 1:] *= np.cumprod(np.sign(step.real), axis=-1)
    root[~ok] = 1.0
    return root, ok


# ---------------------------------------------------------------------------
# homology realization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Homology:
    """Radial-cut layout of a homology basis, as the period engine reads it.

    A_j encircles the j-th cut (root eta_j to its circle reflection); the
    engine integrates it along the cut itself.  ``wedge_half_angle`` and
    ``radial_margin`` bound the wedge around the cut that no other branch
    point enters, which sizes the layout's refusals and B-leg nudges and
    holds a racetrack loop around the cut.  B_j is a lasso: the leg
    :meth:`b_leg` from the branch point eta_j to the origin service circle,
    once around that circle from angle ``leg_angles[j]`` (around the
    branch point at 0, hence switching sheets), and back along the leg on
    the other sheet.  gamma(lambda0) is the same detour launched along
    :meth:`gamma_leg` from a regular point on the unit circle; it joins
    the two points of the curve over lambda0.

    Intersection numbers A_i . B_j = +/- delta_ij hold by construction of
    the layout; they are not recomputed numerically.
    """

    curve: SpectralCurve
    wedge_half_angle: tuple   # per cut
    radial_margin: tuple      # per cut: (inner_radius, outer_radius)
    leg_angles: tuple         # per cut: direction of the B-lasso leg target

    def b_leg(self, j):
        """Straight segment from eta_j to the service circle (endpoints)."""
        c = self.curve
        return c.eta[j], c.r0 * np.exp(1j * self.leg_angles[j])

    def gamma_leg(self, lam0):
        """Endpoints of the straight detour lambda0 -> service circle."""
        lam0 = _gamma_base(lam0)
        self._check_gamma_clearance(lam0)
        return lam0, self.curve.r0 * lam0 / abs(lam0)

    def _check_gamma_clearance(self, lam0):
        c = self.curve
        if not abs(abs(lam0) - 1.0) <= 1e-8:       # NaN fails too
            raise ValidationError("gamma base point must lie on the unit circle, got |lambda0|=%g" % abs(lam0))
        target = c.r0 * lam0 / abs(lam0)
        for z in c.branch_points:
            if _segment_distance(lam0, target, z) < 1e-3:
                raise ValidationError(
                    "lambda0 collides with a cut crossing of S^1 near angle %.6f; "
                    "choose a base point away from arg(eta_j)" % math.atan2(z.imag, z.real)
                )


def _gamma_base(lam0):
    """``lam0`` as a complex gamma base point; a bool or a string is refused
    (its unit-circle clearance is checked by :meth:`Homology.gamma_leg`)."""
    if not is_number(lam0, numbers.Number):
        raise ValidationError("gamma base point must be a number, got %r" % (lam0,))
    return complex(lam0)


def _segment_distance(p, q, z):
    """Distance from point z to segment [p, q]."""
    d = q - p
    L2 = (d * d.conjugate()).real
    if L2 == 0.0:
        return abs(z - p)
    t = ((z - p) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(z - (p + t * d))


def homology_cycles(curve):
    """Lay out radial-cut homology representatives (a :class:`Homology`) for
    the curve; every B-lasso changes sheet around the branch point at 0.
    Raises ResolutionError if a branch point crowds a cut or two cuts overlap
    radially at nearly the same angle, so that no clear racetrack/lasso
    layout exists (the curve itself may still be valid; classification by
    winding does not need this layout)."""
    wedges, margins = _cut_wedges(curve)
    return Homology(curve, wedges, margins, _leg_angles(curve, wedges))


def _cut_wedges(curve):
    """The refusals of :func:`homology_cycles` and each cut's wedge
    half-angle and radial margin: the layout but its B-legs."""
    c, g, half_angles, margins = curve, curve.genus, [], []
    for j in range(g):
        th = c.cut_angles[j]
        # no foreign branch point may crowd the cut segment itself: the cut
        # quadrature loses its smooth-factor premise there
        for k, z in enumerate(c.branch_points):
            if k != j and k != j + g and _segment_distance(c.eta[j], c.partners[j], z) < 1e-3:
                raise ResolutionError("cut layout failed: branch point %s sits within 1e-3 "
                                      "of cut %d" % (z, j))
        # angular clearance to every other branch point whose radius could
        # interact with this cut's racetrack
        dlt, rin, rout = 0.35, max(c.r0 * 1.25, abs(c.eta[j]) * 0.82), abs(c.partners[j]) / 0.82
        for k, z in enumerate(c.branch_points):
            if k == j or k == j + g:
                continue
            rz = abs(z)
            if rin * 0.9 <= rz <= rout * 1.1:
                sep = _angdist(math.atan2(z.imag, z.real), th)
                if sep < 1e-3:
                    raise ResolutionError("cut layout failed: cuts at angle %.6f overlap "
                                          "radially; the radial homology realization needs "
                                          "angular separation" % th)
                dlt = min(dlt, 0.45 * sep)
        half_angles.append(dlt)
        margins.append((rin, rout))
    return tuple(half_angles), tuple(margins)


def _leg_angles(curve, half_angles):
    """B-leg directions: from eta_j straight to the service circle; nudge the
    target angle within the wedge if a branch point sits near that chord."""
    c, g, leg_angles = curve, curve.genus, []
    for j in range(g):
        th, dlt, best = c.cut_angles[j], half_angles[j], None
        for nudge in (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5):
            cand = th + nudge * dlt
            target = c.r0 * np.exp(1j * cand)
            clear = min((_segment_distance(c.eta[j], target, z) for k, z in
                         enumerate(c.branch_points) if k != j and k != j + g), default=1.0)
            if clear > 5e-3:
                leg_angles.append(cand)
                break
            if best is None or clear > best[0]:
                best = (clear, cand)
        else:
            leg_angles.append(best[1])
            log.warning("B-leg %d clearance only %.2e", j, best[0])
    return tuple(leg_angles)
