"""Discrete invariants of the period pencil: degree, winding, strata.

The solved pencil (b1, b2) determines a circle map

    f~(lambda) = -b0(lambda) / binf(lambda),        |f~| = 1 on S^1,

whose degree deg(f) = g+1 - deg gcd(b1, b2) and winding number n classify
the curve.  The winding is computed by two unrelated algorithms -- argument
accumulation around the circle and disc-root counting via the argument
principle -- and the pair must agree; a disagreement is raised, never
reported.  Strata:

* V_j    : coprime pencil, winding j;
* S      : gcd root on the unit circle (all pencil elements vanish there);
* R_only : gcd nontrivial but no root on the unit circle.
"""

import functools
import logging
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvariantError, ResolutionError, ValidationError
from .periods import derived_pencil, solve_Ba
from .polyring import CPoly, approx_gcd, roots

log = logging.getLogger(__name__)

GCD_TOL = 1e-6


@dataclass(frozen=True)
class InvariantReport:
    genus: int
    deg_f: int
    gcd_degree: int
    gcd_roots: tuple
    winding_arg: int
    winding_roots: int
    stratum: str                  # "V_<j>", "S", or "R_only"
    v_index: object               # int for V_j, else None
    lambda0: tuple                # unit-circle gcd roots for the S stratum
    genus0_flags: tuple           # (g == 0, deg_f == 1, winding == deg_f)

    @property
    def winding(self):
        return self.winding_arg


def _deflate(p, gcd):
    """Exact-ish division of p by the (monic) approximate gcd.

    The residue bound sits two decades above the accuracy of a solved
    pencil (~1e-11 relative) and well below the residue a genuinely
    split root pair leaves: a handle smoothed with parameter t keeps its
    nearly-common roots ~t^2/3 apart, so even t = 1e-3 clears the bound
    by an order of magnitude and deflation refuses the bogus gcd.
    """
    if gcd.formal_degree == 0:
        return p
    q, r = npoly.polydiv(p.coeffs, gcd.coeffs)
    scale = max(1.0, float(np.max(np.abs(p.coeffs))))
    if float(np.max(np.abs(r))) > 1e-8 * scale:
        raise ResolutionError(
            "gcd deflation left residue %.3e; gcd estimate unreliable" % float(np.max(np.abs(r)))
        )
    return CPoly(q)


def _refine_gcd(gcd, b1, b2):
    """Newton-polish each candidate root on the better-conditioned element.

    A root that one element carries with multiplicity is only known to
    ~sqrt(eps) from that element alone; the other element usually sees it
    simply and pins it to machine precision.
    """
    refined = []
    for r in roots(gcd):
        z = complex(r)
        p = b1 if abs(b1.derivative()(z)) >= abs(b2.derivative()(z)) else b2
        dp = p.derivative()
        for _ in range(6):
            d = dp(z)
            if abs(d) == 0.0:
                break
            step = p(z) / d
            z -= step
            if abs(step) < 1e-15 * max(1.0, abs(z)):
                break
        if not np.isfinite(z) or abs(z - r) > 0.05:
            z = complex(r)
        refined.append(z)
    return CPoly.from_roots(refined)


@functools.lru_cache(maxsize=128)
def pencil_gcd(b1, b2, tol=GCD_TOL):
    """Approximate gcd of the pencil (b1, b2), validated by test division.

    A curve close to (but not on) the common-root stratum can fool the
    singular-value criterion; if dividing b1 and b2 by the candidate gcd
    leaves a visible residue, the tolerance is tightened until the
    candidate is consistent (possibly trivial).

    Memoised per (b1, b2, tol): CPoly is immutable and hashes its
    coefficients, so one classification reuses one gcd.
    """
    t = tol
    for _ in range(8):
        gcd = approx_gcd(b1, b2, tol=t)
        if gcd.formal_degree == 0:
            return gcd
        gcd = _refine_gcd(gcd, b1, b2)
        try:
            _deflate(b1, gcd)
            _deflate(b2, gcd)
            return gcd
        except ResolutionError:
            t /= 10.0
    raise ResolutionError("gcd estimate failed to stabilize under tolerance tightening")


def deg_f(basis, tol=GCD_TOL):
    """Degree of the circle map: g+1 minus the gcd degree of the pencil."""
    g = basis.curve.genus
    return g + 1 - pencil_gcd(basis.b1, basis.b2, tol).formal_degree


def _deflated_pair(basis, tol=GCD_TOL):
    dp = derived_pencil(basis)
    gcd = pencil_gcd(basis.b1, basis.b2, tol)
    return _deflate(dp.b0, gcd), _deflate(dp.binf, gcd)


def circle_map(basis, tol=GCD_TOL):
    """Callable f~ = -b0/binf with the pencil gcd deflated from both."""
    num, den = _deflated_pair(basis, tol)

    def f(z):
        return -num(z) / den(z)

    return f


_MAX_WINDING_PASSES = 40


def winding_arg(basis, samples=512, tol=GCD_TOL):
    """Winding number of f~ over the unit circle by argument accumulation.

    The grid is refined until each step satisfies two criteria: the
    principal-value argument increment stays under pi/2, and the step size
    times the local logarithmic-derivative bound of f~ stays under pi/2.
    The second criterion matters: a zero/pole pair of f~ hugging the unit
    circle (a curve near the common-root stratum) swings the phase by a
    full turn over a window narrower than any fixed grid, which
    principal-value increments alone cannot see.  The accumulated argument
    divided by 2 pi must land within 0.25 of an integer.
    """
    num, den = _deflated_pair(basis, tol)
    dnum, dden = num.derivative(), den.derivative()
    theta = np.linspace(0.0, 2.0 * np.pi, max(16, samples), endpoint=True)
    # seed dense windows where a zero or pole hugs the circle: the full-turn
    # phase swing of a Blaschke-like pair is narrower than any uniform grid
    windows = []
    for p in (num, den):
        try:
            rts = roots(p, tol=1e-6) if p.effective_degree() > 0 else []
        except (ResolutionError, ValidationError) as exc:
            log.debug("winding window seeding skipped: %s", exc)
            rts = []
        for r in rts:
            d = abs(abs(r) - 1.0)
            if 1e-12 < d < 0.1:
                psi = float(np.angle(r))
                windows.append(psi + np.linspace(-10.0 * d, 10.0 * d, 161))
    if windows:
        extra = np.concatenate(windows) % (2.0 * np.pi)
        theta = np.unique(np.concatenate([theta, extra]))
        theta = np.concatenate([theta, [2.0 * np.pi]]) if theta[-1] < 2.0 * np.pi else theta
    for _ in range(_MAX_WINDING_PASSES):
        lam = np.exp(1j * theta)
        nv, dv = num(lam), den(lam)
        if np.any(nv == 0) or np.any(dv == 0) or not np.all(np.isfinite(nv / dv)):
            raise ResolutionError("winding not resolved; refine or deflate gcd")
        vals = -nv / dv
        logder = np.abs(dnum(lam) / nv - dden(lam) / dv)
        steps = np.angle(vals[1:] / vals[:-1])
        h = np.diff(theta)
        lip = h * np.maximum(logder[1:], logder[:-1])
        bad = np.nonzero((np.abs(steps) >= 0.5 * np.pi) | (lip >= 0.5 * np.pi))[0]
        if len(bad) == 0:
            total = float(np.sum(steps))
            w = total / (2.0 * np.pi)
            snapped = int(np.rint(w))
            if abs(w - snapped) >= 0.25:
                raise ResolutionError("winding not resolved; refine or deflate gcd")
            return snapped
        theta = np.sort(np.concatenate([theta, (theta[bad] + theta[bad + 1]) / 2.0]))
        if len(theta) > 2_000_000:
            break
    raise ResolutionError("winding not resolved; refine or deflate gcd")


def winding_roots(basis, tol=GCD_TOL, boundary_tol=1e-9):
    """Winding number by the argument principle: disc-root count of
    b1 + i b2 minus that of b1 - i b2 (the numerator and denominator
    directions of f~), after gcd deflation.

    Roots remaining within ``boundary_tol`` of the unit circle after
    deflation make the count ill-posed and raise.  The guard sits a few
    decades above root-location accuracy (~1e-12 for a solved pencil)
    but below the ~t^2 circle clearance a handle smoothed with t = 1e-3
    leaves behind, so near-boundary curves still count cleanly.
    """
    gcd = pencil_gcd(basis.b1, basis.b2, tol)
    counts = []
    for s in (1j, -1j):
        p = basis.b1 + basis.b2 * s
        p = _deflate(p, gcd)
        if p.effective_degree() == 0:
            counts.append(0)
            continue
        rts = roots(p, tol=basis.curve.tol)
        dist = np.abs(np.abs(rts) - 1.0)
        if np.any(dist <= boundary_tol):
            raise InvariantError("boundary root: stratum boundary case")
        counts.append(int(np.sum(np.abs(rts) < 1.0)))
    return counts[0] - counts[1]


def classify(curve, basis=None, tol=GCD_TOL, quad=None):
    """Full invariant report for a curve (basis solved on demand).

    Cross-checks the two winding algorithms, the parity and range bounds
    relating winding to deg(f), and the genus-zero equivalence flags; any
    violation raises InvariantError.
    """
    if basis is None:
        basis = solve_Ba(curve, quad=quad)
    g = curve.genus
    gcd = pencil_gcd(basis.b1, basis.b2, tol)
    gdeg = gcd.formal_degree
    groots = tuple(roots(gcd, tol=curve.tol)) if gdeg > 0 else ()
    df = g + 1 - gdeg

    w_arg = winding_arg(basis, tol=tol)
    w_roots = winding_roots(basis, tol=tol)
    if w_arg != w_roots:
        raise InvariantError(
            "winding algorithms disagree: argument accumulation %d vs root count %d"
            % (w_arg, w_roots)
        )

    if (w_arg - df) % 2 != 0:
        raise InvariantError("winding %d and degree %d have different parity" % (w_arg, df))
    if not (-df < w_arg <= df):
        raise InvariantError("winding %d outside (-deg, deg] for deg %d" % (w_arg, df))
    if g >= 1 and gdeg == 0 and abs(w_arg) > df - 2:
        raise InvariantError(
            "winding %d exceeds deg-2 bound for a coprime positive-genus pencil" % w_arg
        )

    on_circle = tuple(z for z in groots if abs(abs(z) - 1.0) <= max(tol, 1e-8))
    if gdeg == 0:
        stratum, v_index, lam0 = "V_%d" % w_arg, w_arg, ()
    elif on_circle:
        stratum, v_index, lam0 = "S", None, on_circle
    else:
        stratum, v_index, lam0 = "R_only", None, ()

    flags = (g == 0, df == 1, w_arg == df)
    if len(set(flags)) != 1:
        raise InvariantError(
            "genus-zero equivalence violated: flags %s for g=%d deg=%d winding=%d"
            % (flags, g, df, w_arg)
        )

    return InvariantReport(
        genus=g,
        deg_f=df,
        gcd_degree=gdeg,
        gcd_roots=groots,
        winding_arg=w_arg,
        winding_roots=w_roots,
        stratum=stratum,
        v_index=v_index,
        lambda0=lam0,
        genus0_flags=flags,
    )
