"""Discrete invariants of the period pencil: degree, winding, strata.

The solved pencil (b1, b2) determines a circle map

    f~ = u / v,   u = b1 + i b2,   v = b1 - i b2,   |f~| = 1 on S^1

(-b0/binf of ``periods.derived_pencil`` for a graph-form basis), whose
degree deg(f) = g+1 - deg gcd(b1, b2) and winding number n classify the
curve.  Reflection-real b1, b2 (any other pencil is refused) make v the
circle reflection rho*(conj u) of u, so the gcd-deflated u' and v' have
N(u') + N(v') = deg f zeros in the open disc, and each winding method reads
one polynomial: Schur-Cohn the coefficients of v', n = deg f - 2 N(v')
(``winding_arg``), the companion roots of u', n = 2 N(u') - deg f
(``winding_roots``).  They share only the pencil, so their agreement also
checks the reflection; a disagreement is raised, never reported.  Strata:

* V_j    : coprime pencil, winding j;
* S      : gcd root on the unit circle (all pencil elements vanish there);
* R_only : gcd nontrivial but no root on the unit circle.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvariantError, ResolutionError, ValidationError, is_number
from .periods import _check_basis_curve, solve_Ba
from .polyring import CPoly, _der, _gcd_candidates, _sum, reality_check, roots

GCD_TOL = 1e-6


def _circle_band(tol):
    """Distance from S^1 within which a gcd root at ``tol`` lies on it."""
    return max(tol, 1e-8)


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


def _refine_gcd(gcd, b1, d1, b2, d2):
    """Roots of the candidate gcd, each Newton-polished on the
    better-conditioned of b1 and b2 (with derivatives d1, d2), read-only.

    A root that one element carries with multiplicity is only known to
    ~sqrt(eps) from that element alone; the other element usually sees it
    simply and pins it to machine precision.
    """
    refined = []
    for r in roots(gcd):
        z = complex(r)
        p, dp = (b1, d1) if abs(d1(z)) >= abs(d2(z)) else (b2, d2)
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
    refined = np.array(refined, dtype=np.complex128)
    refined.setflags(write=False)
    return refined


_NO_ROOTS = np.zeros(0, dtype=np.complex128)      # a trivial gcd's; empty, so safe to share


@functools.lru_cache(maxsize=128)
def _common_roots(b1, b2, tol=GCD_TOL):
    """``pencil_gcd`` and the polished roots it is built from
    (``_refine_gcd``): the one reading of a pencil's common roots, memoised
    per (b1, b2, tol), as CPoly is immutable and hashes its coefficients.

    A curve close to (but not on) the common-root stratum can fool the
    singular-value criterion; if dividing b1 and b2 by a candidate gcd
    leaves a visible residue, the tolerance is tightened: the one gcd solve
    yields its next candidate, until one is consistent (possibly trivial).
    """
    if not (is_number(tol) and 0.0 < tol < np.inf):
        raise ValidationError("gcd tol must be finite and positive, got %r" % (tol,))
    elements = None
    for gcd in _gcd_candidates(b1, b2, tol):
        if gcd.formal_degree == 0:
            return gcd, _NO_ROOTS
        elements = elements or (b1, b1.derivative(), b2, b2.derivative())
        rts = _refine_gcd(gcd, *elements)
        gcd = CPoly.from_roots(rts)
        try:
            _deflate(b1, gcd)
            _deflate(b2, gcd)
        except ResolutionError:
            continue
        return gcd, rts
    raise ResolutionError("gcd estimate failed to stabilize under tolerance tightening")


def pencil_gcd(b1, b2, tol=GCD_TOL):
    """Approximate gcd of the pencil (b1, b2), validated by test division."""
    return _common_roots(b1, b2, tol)[0]


def deg_f(basis, tol=GCD_TOL):
    """Degree of the circle map: g+1 minus the gcd degree of the pencil."""
    g = basis.curve.genus
    return g + 1 - pencil_gcd(basis.b1, basis.b2, tol).formal_degree


def _deflated_pair(basis, tol=GCD_TOL):
    """u = b1 + i b2 and v = b1 - i b2, gcd deflated: f~ = u/v.  The winding
    counts need v = rho*(conj u), so b1 and b2 must be reflection-real."""
    return _deflated(basis.b1, basis.b2, tol)


@functools.lru_cache(maxsize=128)
def _deflated(b1, b2, tol):
    """``_deflated_pair`` memoised per (b1, b2, tol), as ``_common_roots`` is."""
    defects = [d for real, d in map(reality_check, (b1, b2)) if not real]
    if defects:
        raise ValidationError("pencil element is not reflection-real (defect %.3e)" % defects[0])
    gcd = pencil_gcd(b1, b2, tol)
    return tuple(_deflate(CPoly(_sum(b1.coeffs, b2.coeffs * s)), gcd) for s in (1j, -1j))


def circle_map(basis, tol=GCD_TOL):
    """Callable f~ = u/v with the pencil gcd deflated from both."""
    num, den = _deflated_pair(basis, tol)
    return lambda z: num(z) / den(z)


_BOUNDARY_TOL = 1e-9
_DISC_ROUNDING = 64 * np.finfo(float).eps


def _disc_count(p):
    """Zeros of p in the open unit disc, from its coefficients alone
    (Schur-Cohn; Henrici, Applied and Computational Complex Analysis I,
    6.8).  Tp = conj(a0) p - an p* has degree below n = deg p, and N(p)
    is N(Tp) when |a0| > |an|, n - N(Tp) when |a0| < |an|.  An
    |a0|^2 - |an|^2 within rounding of zero means a zero on S^1: raised.
    """
    a = [complex(c) for c in p.coeffs]
    if not any(a):
        raise ValidationError("zero polynomial has no root set")
    count, sign = 0, 1          # N(p) = count + sign * N(a)
    while True:
        while a[-1] == 0:       # exact zeros: a graph-form v ends in one
            a.pop()
        n = len(a) - 1
        if n == 0:
            return count
        top = max(map(abs, a))
        a = [c / top for c in a]
        a0bar, an = a[0].conjugate(), a[-1]
        delta = abs(a0bar) ** 2 - abs(an) ** 2
        if abs(delta) <= _DISC_ROUNDING * n * sum(map(abs, a)) ** 2:
            raise ResolutionError("winding not resolved; refine or deflate gcd")
        if delta < 0:
            count, sign = count + sign * n, -sign
        a = [a0bar * a[k] - an * a[n - k].conjugate() for k in range(n)]


def _circle_count(p):
    """Zeros on S^1 of a self-inversive p of formal degree n (a constant has
    none), root-free: p' has as many zeros outside the closed disc as p
    (Cohn; Marden, Geometry of Polynomials, 45).  A p' zero near S^1 raises."""
    n = p.formal_degree
    return n - 2 * (n - 1 - _disc_count(CPoly(_der(p.coeffs)))) if n else 0


def _arg_winding(den, deg):
    """deg - 2 N(v'), the Schur-Cohn count of v' alone."""
    return deg - 2 * _disc_count(den)


def _root_winding(num, deg, tol):
    """2 N(u') - deg from the companion roots of u' alone; a top coefficient
    ``roots`` drops is a zero at infinity, which the formal degree counts.
    A root within ``_BOUNDARY_TOL`` of S^1 makes the count ill-posed and
    raises: a few decades above root-location accuracy (~1e-12 for a solved
    pencil), below the ~t^2 circle clearance a handle with t = 1e-3 leaves.
    """
    rts = roots(num, tol=tol) if num.effective_degree() else np.zeros(0)
    if np.any(np.abs(np.abs(rts) - 1.0) <= _BOUNDARY_TOL):
        raise InvariantError("boundary root: stratum boundary case")
    return 2 * int(np.sum(np.abs(rts) < 1.0)) - deg


def winding_arg(basis, tol=GCD_TOL):
    """Winding number of f~ = u/v on S^1 from the Schur-Cohn count of v'."""
    return _arg_winding(_deflated_pair(basis, tol)[1], deg_f(basis, tol))


def winding_roots(basis, tol=GCD_TOL):
    """Winding number of f~ = u/v on S^1 from the companion roots of u'."""
    return _root_winding(_deflated_pair(basis, tol)[0], deg_f(basis, tol), basis.curve.tol)


def classify(curve, basis=None, tol=GCD_TOL):
    """Full invariant report for a curve (basis solved on demand; a basis of
    another curve is refused).

    Cross-checks the two winding algorithms and a coprime pencil's deg(f) - 2
    bound at positive genus, raising InvariantError.  Their winding
    deg f - 2 N(v') has deg f's parity and lies in (-deg f, deg f], as a
    graph-form v' has degree below deg f; with a trivial gcd these bounds
    force the genus-zero equivalence flags to agree, so flags broken by a
    nontrivial gcd raise ResolutionError: with every root near S^1 (a
    near-nodal curve) the gcd at ``tol`` swallows the pencil.
    """
    if basis is None:
        basis = solve_Ba(curve)
    _check_basis_curve(curve, basis)
    g = curve.genus
    groots = tuple(_common_roots(basis.b1, basis.b2, tol)[1])
    gdeg = len(groots)
    df = g + 1 - gdeg

    num, den = _deflated_pair(basis, tol)
    w_arg = _arg_winding(den, df)
    w_roots = _root_winding(num, df, curve.tol)
    if w_arg != w_roots:
        raise InvariantError("winding algorithms disagree: Schur-Cohn count %d "
                             "vs root count %d" % (w_arg, w_roots))
    if g >= 1 and gdeg == 0 and abs(w_arg) > df - 2:
        raise InvariantError(
            "winding %d exceeds deg-2 bound for a coprime positive-genus pencil" % w_arg
        )

    on_circle = tuple(z for z in groots if abs(abs(z) - 1.0) <= _circle_band(tol))
    if gdeg == 0:
        stratum, v_index, lam0 = "V_%d" % w_arg, w_arg, ()
    elif on_circle:
        stratum, v_index, lam0 = "S", None, on_circle
    else:
        stratum, v_index, lam0 = "R_only", None, ()

    flags = (g == 0, df == 1, w_arg == df)
    if len(set(flags)) != 1:        # only a nontrivial gcd can break them
        raise ResolutionError(
            "gcd of degree %d at tolerance %g leaves deg f = %d at genus "
            "%d: the curve is too close to nodal to classify" % (gdeg, tol, df, g))

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
