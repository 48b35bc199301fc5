"""Hyperelliptic spectral curves y^2 = lambda * a(lambda) with unit-circle reality.

The curve data is a finite set of roots eta_j in the punctured open unit
disc.  Each root is paired with its reflection 1/conj(eta_j) across the
unit circle, and the polynomial

    a(lambda) = (-1)^g * prod_j (conj(eta_j)/|eta_j|) (lambda - eta_j)(lambda - 1/conj(eta_j))

is reversal-real (see :mod:`spectralcurves.polyring`), has unimodular top
coefficient, and is positive on the unit circle after dividing by lambda^g.
This module owns curve construction/validation, square-root sheet tracking
along paths, and the geometric realization of a homology basis built from
radial branch cuts.
"""

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ValidationError
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
    base_angle : float
        Direction of the radial cut joining 0 to infinity.
    r0 : float
        Radius of the origin service circle.
    tol : float
        Validation/working tolerance attached to the curve.
    """

    genus: int
    eta: tuple
    partners: tuple
    a: CPoly
    lead: complex
    cut_angles: tuple
    base_angle: float
    r0: float
    tol: float

    @property
    def branch_points(self):
        """All finite nonzero branch points (interior roots then partners)."""
        return self.eta + self.partners

    def w(self, lam):
        """Evaluate lambda * a(lambda), the function under the square root."""
        return np.asarray(lam) * self.a(lam)

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


def _pick_base_angle(cut_angles):
    """Radial direction for the cut joining 0 to infinity.

    Opposite the circular mean of the root directions when that mean is
    defined; otherwise (and whenever the opposite ray crowds an existing
    cut) the midpoint of the widest angular gap between cuts.
    """
    if not cut_angles:
        return 0.0
    mean_vec = sum(complex(math.cos(t), math.sin(t)) for t in cut_angles)
    candidate = None
    if abs(mean_vec) > 1e-9:
        candidate = math.atan2(-mean_vec.imag, -mean_vec.real)
    angles = sorted(a % (2.0 * math.pi) for a in cut_angles)
    gaps = []
    for i, a in enumerate(angles):
        nxt = angles[(i + 1) % len(angles)] + (2.0 * math.pi if i + 1 == len(angles) else 0.0)
        gaps.append((nxt - a, a, nxt))
    width, lo, hi = max(gaps)
    fallback = ((lo + hi) / 2.0) % (2.0 * math.pi)
    if candidate is None:
        return fallback
    clearance = min(_angdist(candidate, t) for t in cut_angles)
    if clearance < min(0.2, 0.25 * width):
        return fallback
    return candidate % (2.0 * math.pi)


def build_curve(eta, tol=DEFAULT_TOL):
    """Construct and validate a spectral curve from its interior roots.

    Parameters
    ----------
    eta : sequence of complex
        Roots in the punctured open unit disc.  May be empty (genus 0).
    tol : float
        Working tolerance stored on the curve.

    Returns
    -------
    SpectralCurve

    Raises
    ------
    ValidationError
        If any root sits at the origin, on or outside the unit circle, or
        two branch points come within 1e-6 of each other.
    """
    eta = tuple(complex(z) for z in np.atleast_1d(np.asarray(eta, dtype=complex)).ravel()) if len(np.atleast_1d(eta)) else ()
    g = len(eta)

    for z in eta:
        r = abs(z)
        if r < 1e-12:
            raise ValidationError("root at origin violates punctured disc")
        if r >= 1.0:
            raise ValidationError(
                "root %s on or outside the unit circle violates the open-disc condition |eta| < 1" % z
            )

    partners = tuple(1.0 / np.conj(z) for z in eta)
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
    theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    circ = np.exp(1j * theta)
    vals = a(circ) * circ ** (-g)
    if np.max(np.abs(vals.imag)) > 1e3 * tol * max(1.0, np.max(np.abs(vals))) or np.min(vals.real) <= 0:
        raise ValidationError("lambda^(-g) a(lambda) is not positive on the unit circle")

    cut_angles = tuple(math.atan2(z.imag, z.real) for z in eta)
    base_angle = _pick_base_angle(cut_angles)
    r0 = SERVICE_RADIUS_FACTOR * (min(abs(z) for z in eta) if eta else 1.0)

    return SpectralCurve(
        genus=g,
        eta=eta,
        partners=partners,
        a=a,
        lead=lead,
        cut_angles=cut_angles,
        base_angle=base_angle,
        r0=r0,
        tol=float(tol),
    )


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
    if "genus" in data and int(data["genus"]) != len(eta):
        raise ValidationError(
            "curve record genus %s does not match %d roots" % (data["genus"], len(eta))
        )
    return build_curve(eta, tol=float(data.get("tol", DEFAULT_TOL)))


def curve_from_json(text):
    return curve_from_dict(json.loads(text))


def curve_to_json(curve):
    return json.dumps(curve_to_dict(curve))


# ---------------------------------------------------------------------------
# sheet tracking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SheetPath:
    """A lift of a lambda-plane polyline to the curve.

    ``y_values[k]`` squares to ``points[k] * a(points[k])``; consecutive
    values are the continuous square-root continuation.
    """

    points: np.ndarray
    y_values: np.ndarray
    seed_sign: int

    @property
    def closed(self):
        scale = max(1.0, float(np.max(np.abs(self.points))))
        return abs(self.points[0] - self.points[-1]) < 1e-12 * scale

    @property
    def sign_flip(self):
        """-1 if a closed path returns on the opposite sheet, else +1."""
        s = self.y_values[-1] / self.y_values[0]
        return -1 if s.real < 0 else 1

    def __len__(self):
        return len(self.points)


_MAX_REFINE_PASSES = 40


def _refine_polyline(curve, pts):
    """Insert midpoints until arg(lambda*a) moves < pi/2 between neighbours."""
    pts = list(pts)
    for _ in range(_MAX_REFINE_PASSES):
        w = curve.w(np.asarray(pts))
        if np.any(w == 0):
            raise ResolutionError("path passes through a branch point; sheet is ambiguous there")
        ratio = w[1:] / w[:-1]
        bad = np.nonzero((ratio.real <= 0) | (np.abs(np.angle(ratio)) >= 0.5 * np.pi))[0]
        if len(bad) == 0:
            return np.asarray(pts, dtype=complex)
        for k in reversed(bad):
            pts.insert(k + 1, 0.5 * (pts[k] + pts[k + 1]))
        if len(pts) > 2_000_000:
            break
    raise ResolutionError(
        "sheet tracking did not resolve after %d refinement passes; "
        "the path runs too close to a branch point" % _MAX_REFINE_PASSES
    )


def y_along(curve, path, seed_sign=1):
    """Continue y = sqrt(lambda * a(lambda)) along a polyline.

    Parameters
    ----------
    curve : SpectralCurve
    path : sequence of complex
        Polyline vertices; segments are refined adaptively so that the
        argument of lambda*a(lambda) turns by less than pi/2 per step.
    seed_sign : {+1, -1}
        The start value is seed_sign * principal sqrt of lambda*a at the
        first vertex (principal branch cut along the negative real axis).

    Returns
    -------
    SheetPath
    """
    if seed_sign not in (1, -1):
        raise ValidationError("seed_sign must be +1 or -1")
    pts = np.asarray(list(path), dtype=complex)
    if pts.ndim != 1 or len(pts) < 2:
        raise ValidationError("path must contain at least two vertices")
    pts = _refine_polyline(curve, pts)
    w = curve.w(pts)
    y = continue_sqrt(w, seed_sign * np.sqrt(w[0]))
    return SheetPath(points=pts, y_values=y, seed_sign=seed_sign)


def continue_sqrt(values, seed):
    """Track a square root along precomputed samples of its square.

    ``values`` are samples of a nonvanishing function along a path and
    ``seed`` satisfies seed^2 ~ values[0].  Consecutive samples must keep
    the argument step under pi/2 (raises ResolutionError otherwise, which
    the period engine treats as "use more nodes").
    """
    values = np.asarray(values, dtype=complex)
    if np.any(values == 0):
        raise ResolutionError("square root tracking hit an exact zero")
    ratio = values[1:] / values[:-1]
    # |delta arg| < pi/2 puts each ratio in the right half plane, where the
    # principal square root of the ratio is the continuous branch
    if np.any(ratio.real <= 0):
        raise ResolutionError("square root tracking under-resolved; increase node count")
    out = np.empty_like(values)
    out[0] = seed
    out[1:] = seed * np.cumprod(np.sqrt(ratio))
    return out


# ---------------------------------------------------------------------------
# homology realization
# ---------------------------------------------------------------------------

def _circle_polyline(radius, start_angle, n=256):
    th = start_angle + np.linspace(0.0, 2.0 * np.pi, n + 1)
    return radius * np.exp(1j * th)


@dataclass(frozen=True)
class Homology:
    """Concrete homology representatives for a curve's radial cut system.

    A_j is a closed racetrack loop around the j-th cut (root to its circle
    reflection), realized on one global sheet.  B_j is a lasso: out from the
    branch point eta_j to the origin service circle, once around that circle
    (crossing the base cut, hence switching sheets), and back along the same
    segment on the other sheet.  gamma(lambda0) is the same detour shape
    launched from a regular point on the unit circle; it joins the two
    points of the curve over lambda0.

    Intersection numbers A_i . B_j = +/- delta_ij hold by construction of
    the layout; they are not recomputed numerically.
    """

    curve: SpectralCurve
    wedge_half_angle: tuple   # per cut
    radial_margin: tuple      # per cut: (inner_radius, outer_radius)
    leg_angles: tuple         # per cut: direction of the B-lasso leg target

    # -- A cycles ----------------------------------------------------------

    def a_loop(self, j, points_per_arc=64):
        """Closed racetrack polyline around cut j (clockwise as laid out)."""
        c = self.curve
        th = c.cut_angles[j]
        dlt = self.wedge_half_angle[j]
        rin, rout = self.radial_margin[j]
        arc_in = rin * np.exp(1j * (th + np.linspace(-dlt, dlt, points_per_arc)))
        arc_out = rout * np.exp(1j * (th + np.linspace(dlt, -dlt, points_per_arc)))
        loop = np.concatenate([arc_in, arc_out, arc_in[:1]])
        return loop

    def a_cycle(self, j, seed_sign=1):
        """A_j as a tracked SheetPath (closes with sign +1: the racetrack
        encircles both endpoints of the cut, so y has trivial monodromy)."""
        return y_along(self.curve, self.a_loop(j), seed_sign=seed_sign)

    # -- B cycles ----------------------------------------------------------

    def b_leg(self, j):
        """Straight segment from eta_j to the service circle (endpoints)."""
        c = self.curve
        return c.eta[j], c.r0 * np.exp(1j * self.leg_angles[j])

    def b_lasso(self, j, offset=1e-6, points_per_leg=64):
        """Polyline realization of B_j beginning just off the branch point.

        The true cycle passes through eta_j itself where the two sheets
        meet; for sheet-tracked demonstrations the start is offset by
        ``offset`` along the leg.  A closed-loop traversal flips sheet.
        """
        start, target = self.b_leg(j)
        direction = (target - start) / abs(target - start)
        p0 = start + offset * direction
        leg = np.linspace(p0, target, points_per_leg)
        circ = _circle_polyline(self.curve.r0, self.leg_angles[j], 256)
        return np.concatenate([leg, circ[1:], leg[::-1][1:]])

    def b_cycle(self, j, seed_sign=1):
        return y_along(self.curve, self.b_lasso(j), seed_sign=seed_sign)

    # -- Sym path ----------------------------------------------------------

    def gamma_leg(self, lam0):
        """Endpoints of the straight detour lambda0 -> service circle."""
        lam0 = complex(lam0)
        self._check_gamma_clearance(lam0)
        return lam0, self.curve.r0 * lam0 / abs(lam0)

    def gamma_path(self, lam0, points_per_leg=64):
        """Full polyline over which y flips sheet: leg + circle + leg back."""
        start, target = self.gamma_leg(lam0)
        leg = np.linspace(start, target, points_per_leg)
        th = math.atan2(target.imag, target.real)
        circ = _circle_polyline(self.curve.r0, th, 256)
        return np.concatenate([leg, circ[1:], leg[::-1][1:]])

    def gamma(self, lam0, seed_sign=1):
        """gamma(lambda0) as a SheetPath from (lambda0, y0) to (lambda0, -y0)."""
        return y_along(self.curve, self.gamma_path(lam0), seed_sign=seed_sign)

    def _check_gamma_clearance(self, lam0):
        c = self.curve
        if abs(abs(lam0) - 1.0) > 1e-8:
            raise ValidationError("gamma base point must lie on the unit circle, got |lambda0|=%g" % abs(lam0))
        target = c.r0 * lam0 / abs(lam0)
        for z in c.branch_points:
            if _segment_distance(lam0, target, z) < 1e-3:
                raise ValidationError(
                    "lambda0 collides with a cut crossing of S^1 near angle %.6f; "
                    "choose a base point away from arg(eta_j)" % math.atan2(z.imag, z.real)
                )


def _segment_distance(p, q, z):
    """Distance from point z to segment [p, q]."""
    d = q - p
    L2 = (d * np.conj(d)).real
    if L2 == 0.0:
        return abs(z - p)
    t = ((z - p) * np.conj(d)).real / L2
    t = min(1.0, max(0.0, t))
    return abs(z - (p + t * d))


def homology_cycles(curve):
    """Lay out radial-cut homology representatives for the curve.

    Returns
    -------
    Homology

    Raises
    ------
    ResolutionError
        If two cuts overlap radially at nearly the same angle, so that no
        clear racetrack/lasso layout exists (the curve itself may still be
        valid; classification by winding does not need this layout).
    """
    c = curve
    g = c.genus
    half_angles = []
    margins = []
    leg_angles = []

    for j in range(g):
        th = c.cut_angles[j]
        r_in_cut, r_out_cut = abs(c.eta[j]), abs(c.partners[j])
        # no foreign branch point may crowd the cut segment itself: the cut
        # quadrature loses its smooth-factor premise there
        for k, z in enumerate(c.branch_points):
            if k != j and k != j + g and _segment_distance(c.eta[j], c.partners[j], z) < 1e-3:
                raise ResolutionError(
                    "cut layout failed: branch point %s sits within 1e-3 of cut %d" % (z, j)
                )
        # angular clearance to every other branch point whose radius could
        # interact with this cut's racetrack
        dlt = 0.35
        rin = max(c.r0 * 1.25, r_in_cut * 0.82)
        rout = r_out_cut / 0.82
        for k, z in enumerate(c.branch_points):
            if k == j or k == j + g:
                continue
            rz = abs(z)
            if rin * 0.9 <= rz <= rout * 1.1:
                sep = _angdist(math.atan2(z.imag, z.real), th)
                if sep < 1e-3:
                    raise ResolutionError(
                        "cut layout failed: cuts at angle %.6f overlap radially; "
                        "the radial homology realization needs angular separation" % th
                    )
                dlt = min(dlt, 0.45 * sep)
        sepb = _angdist(c.base_angle, th)
        if sepb < 1e-3:
            raise ResolutionError("cut layout failed: a root ray coincides with the base cut")
        dlt = min(dlt, 0.45 * sepb)
        if dlt < 1e-4:
            raise ResolutionError("cut layout failed: angular clearance below 1e-4 at cut %d" % j)
        half_angles.append(dlt)
        margins.append((rin, rout))

        # B-leg direction: from eta_j straight to the service circle; nudge
        # the target angle if an interior root sits near that chord
        ang = th
        best = None
        for nudge in (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5):
            cand = th + nudge * dlt
            target = c.r0 * np.exp(1j * cand)
            clear = min(
                (_segment_distance(c.eta[j], target, z)
                 for k, z in enumerate(c.branch_points) if k != j and k != j + g),
                default=1.0,
            )
            if clear > 5e-3:
                ang = cand
                break
            if best is None or clear > best[0]:
                best = (clear, cand)
        else:
            ang = best[1]
            log.warning("B-leg %d clearance only %.2e", j, best[0])
        leg_angles.append(ang)

    return Homology(
        curve=c,
        wedge_half_angle=tuple(half_angles),
        radial_margin=tuple(margins),
        leg_angles=tuple(leg_angles),
    )
