"""Sheet tracking along polylines: the test-side picture of the cycle layout.

The period engine integrates along each cut and leg of the layout that
:func:`spectralcurves.curve.homology_cycles` lays out, continuing the
square root with :func:`spectralcurves.curve.track_sqrt`.  This module
draws the same cycles as closed polylines (the racetrack A_j, the lasso
B_j and the Sym detour gamma(lambda0)) and lifts them to the curve with
its own continuation, :func:`continue_sqrt`, so the tests can check the
sheet behaviour the engine assumes and integrate along them with an
independent rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from spectralcurves.errors import ResolutionError, ValidationError


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


def continue_sqrt(values, seed):
    """Track a square root along samples of its square from ``seed``
    (seed^2 ~ values[0]) by a running product of principal roots of ratios.
    A zero or an argument step of pi/2 or more raises ResolutionError."""
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


def y_squared(curve, lam):
    """lambda * a(lambda), the function under the square root."""
    return np.asarray(lam) * curve.a(lam)


_MAX_REFINE_PASSES = 40


def _refine_polyline(curve, pts):
    """Insert midpoints until arg(lambda*a) moves < pi/2 between neighbours."""
    pts = list(pts)
    for _ in range(_MAX_REFINE_PASSES):
        w = y_squared(curve, np.asarray(pts))
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
    w = y_squared(curve, pts)
    y = continue_sqrt(w, seed_sign * np.sqrt(w[0]))
    return SheetPath(points=pts, y_values=y, seed_sign=seed_sign)


def _circle_polyline(radius, start_angle, n=256):
    th = start_angle + np.linspace(0.0, 2.0 * np.pi, n + 1)
    return radius * np.exp(1j * th)


# -- A cycles ---------------------------------------------------------------

def a_loop(hom, j, points_per_arc=64):
    """Closed racetrack polyline around cut j of the layout ``hom``
    (clockwise as laid out)."""
    c = hom.curve
    th = c.cut_angles[j]
    dlt = hom.wedge_half_angle[j]
    rin, rout = hom.radial_margin[j]
    arc_in = rin * np.exp(1j * (th + np.linspace(-dlt, dlt, points_per_arc)))
    arc_out = rout * np.exp(1j * (th + np.linspace(dlt, -dlt, points_per_arc)))
    return np.concatenate([arc_in, arc_out, arc_in[:1]])


def a_cycle(hom, j, seed_sign=1):
    """A_j as a tracked SheetPath (closes with sign +1: the racetrack
    encircles both endpoints of the cut, so y has trivial monodromy)."""
    return y_along(hom.curve, a_loop(hom, j), seed_sign=seed_sign)


# -- B cycles ---------------------------------------------------------------

def b_lasso(hom, j, offset=1e-6, points_per_leg=64):
    """Polyline realization of B_j beginning just off the branch point.

    The true cycle passes through eta_j itself where the two sheets
    meet; for sheet-tracked demonstrations the start is offset by
    ``offset`` along the leg.  A closed-loop traversal flips sheet.
    """
    start, target = hom.b_leg(j)
    direction = (target - start) / abs(target - start)
    p0 = start + offset * direction
    leg = np.linspace(p0, target, points_per_leg)
    circ = _circle_polyline(hom.curve.r0, hom.leg_angles[j], 256)
    return np.concatenate([leg, circ[1:], leg[::-1][1:]])


def b_cycle(hom, j, seed_sign=1):
    return y_along(hom.curve, b_lasso(hom, j), seed_sign=seed_sign)


# -- Sym path ---------------------------------------------------------------

def gamma_path(hom, lam0, points_per_leg=64):
    """Full polyline over which y flips sheet: leg + circle + leg back."""
    start, target = hom.gamma_leg(lam0)
    leg = np.linspace(start, target, points_per_leg)
    th = math.atan2(target.imag, target.real)
    circ = _circle_polyline(hom.curve.r0, th, 256)
    return np.concatenate([leg, circ[1:], leg[::-1][1:]])


def gamma(hom, lam0, seed_sign=1):
    """gamma(lambda0) as a SheetPath from (lambda0, y0) to (lambda0, -y0)."""
    return y_along(hom.curve, gamma_path(hom, lam0), seed_sign=seed_sign)
