"""Complex polynomials with a fixed formal degree.

Coefficients are stored ascending: ``coeffs[i]`` multiplies ``lam**i``.
The formal degree is part of the data and trailing zeros are legal,
because the reflection involution below reverses the coefficient vector
of the *formal* degree — the reflection of a degree-1 polynomial with
vanishing top coefficient is a genuine constant, and collapsing it early
would change the answer.

The involution ``rho_star`` encodes the symmetry ``lam -> 1/conj(lam)``
of the unit circle at the coefficient level.  A polynomial is called
*reflection-real* when ``conj(rho_star(p)) == p``, i.e. when
``coeffs[d-i] == conj(coeffs[i])`` for all i.  Such polynomials take
values on the unit circle that are real after division by ``lam**(d/2)``
in the appropriate sense, and their root sets are symmetric under the
reflection in the circle.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy._core.multiarray import correlate as _correlate

from .errors import InvariantError, ResolutionError, ValidationError

__all__ = [
    "CPoly",
    "rho_star",
    "reality_check",
    "symmetrize_reality",
    "roots",
    "approx_gcd",
    "resultant",
    "real_coords",
    "real_place",
    "real_place_coeffs",
]


class CPoly:
    """Immutable univariate polynomial over the complex numbers.

    Parameters
    ----------
    coeffs : sequence of complex
        Ascending coefficients; the formal degree is ``len(coeffs) - 1``
        unless ``degree`` asks for extra trailing zeros.
    degree : int, optional
        Formal degree.  Must be >= the length implied by ``coeffs``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, degree=None):
        c = np.asarray(coeffs, dtype=np.complex128).ravel()     # a scalar becomes 1-D too
        if degree is not None:
            if degree + 1 < len(c):
                raise ValidationError(
                    f"formal degree {degree} below coefficient count {len(c)}"
                )
            c = np.concatenate([c, np.zeros(degree + 1 - len(c), dtype=np.complex128)])
        if len(c) == 0:
            c = np.zeros(1, dtype=np.complex128)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("CPoly is immutable")

    # -- basic queries -------------------------------------------------

    @property
    def formal_degree(self):
        return len(self.coeffs) - 1

    def effective_degree(self, tol=1e-9):
        """Largest index with a coefficient above ``tol * max|coeffs|``."""
        mags = np.abs(self.coeffs)
        top = mags.max()
        if top == 0.0:
            return -1  # the zero polynomial
        keep = np.nonzero(mags > tol * top)[0]
        return int(keep[-1]) if len(keep) else -1

    def is_zero(self, tol=1e-9):
        return self.effective_degree(tol) < 0

    def norm_inf(self):
        return float(np.abs(self.coeffs).max())

    # -- evaluation and calculus ---------------------------------------

    def __call__(self, lam):
        """``np.polynomial.polynomial.polyval(lam, coeffs)``: its Horner
        steps in its order, so its bits, without its argument handling."""
        if isinstance(lam, (tuple, list)):
            lam = np.asarray(lam)
        c = self.coeffs
        out = c[-1] + lam * 0
        for i in range(2, len(c) + 1):
            out = c[-i] + out * lam
        return out

    def derivative(self):
        return CPoly(_der(self.coeffs))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return CPoly(_sum(self.coeffs, _as_poly(other).coeffs))

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __neg__(self):
        return CPoly(-self.coeffs)

    def __mul__(self, other):
        if np.isscalar(other):
            return CPoly(self.coeffs * other)
        return CPoly(_conv(self.coeffs, _as_poly(other).coeffs))

    __rmul__ = __mul__

    def times_lambda(self):
        """Multiply by the variable, raising the formal degree by one."""
        return CPoly(_lam(self.coeffs))

    def trimmed(self, tol=1e-9):
        """Drop trailing coefficients below ``tol * max|coeffs|``."""
        d = self.effective_degree(tol)
        if d < 0:
            return CPoly([0.0])
        return CPoly(self.coeffs[: d + 1])

    def monic(self, tol=1e-9):
        p = self.trimmed(tol)
        lead = p.coeffs[-1]
        if lead == 0:
            raise ValidationError("cannot normalize the zero polynomial")
        return CPoly(p.coeffs / lead)

    @staticmethod
    def from_roots(root_list, lead=1.0):
        return CPoly(lead * _fromroots(root_list))

    def __repr__(self):
        return f"CPoly(deg={self.formal_degree}, {np.array2string(self.coeffs, precision=6)})"

    def __eq__(self, other):
        if not isinstance(other, CPoly):
            return NotImplemented
        return self.formal_degree == other.formal_degree and np.array_equal(
            self.coeffs, other.coeffs
        )

    def __hash__(self):
        return hash((self.formal_degree, self.coeffs.tobytes()))


def _der(c):
    """Coefficients of the derivative."""
    return c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1, complex)


def _lam(c):
    """Coefficients times the variable."""
    return np.concatenate([[0.0 + 0.0j], c])


def _sum(*terms):
    """Coefficients of terms[0] + terms[1] + ..., added left to right.  A
    difference is the sum with the negation, as in ``CPoly.__sub__``; CPoly's
    operators and the tangent algebra of ``whitham`` share these array forms,
    and so their bits."""
    out = np.zeros(max(map(len, terms)), dtype=complex)
    out[: len(terms[0])] = terms[0]
    for t in terms[1:]:
        out[: len(t)] += t
    return out


def _conv(a, v):
    """``np.convolve(a, v)`` of 1-D arrays without its wrapper: its correlate call, its bits."""
    if len(v) > len(a):
        a, v = v, a
    return _correlate(a, v[::-1], "full")


def _as_poly(x):
    if isinstance(x, CPoly):
        return x
    return CPoly([x])


def _fromroots(r):
    """Coefficients of prod (lam - r_k), bit-identical to numpy's polyfromroots
    (same sort and pairwise products) without its per-product series checks."""
    r = np.array(r, ndmin=1)
    p = [np.array([-x, 1]) for x in np.sort(r.astype(np.common_type(r)))] or [np.ones(1)]
    while len(p) > 1:
        m = len(p) // 2
        tmp = [_conv(p[i], p[i + m]) for i in range(m)]
        if len(p) % 2:
            tmp[0] = _conv(tmp[0], p[-1])
        p = tmp
    return p[0]


# ---------------------------------------------------------------------
# reflection involution
# ---------------------------------------------------------------------


def rho_star(p: CPoly) -> CPoly:
    """Reverse the coefficient vector with respect to the formal degree.

    This is the coefficient-level form of ``p(lam) -> lam**d * p(1/lam)``
    and is an involution on polynomials of fixed formal degree.
    """
    return CPoly(p.coeffs[::-1])


def reality_check(p: CPoly, tol=1e-9):
    """Return ``(is_real, max_defect)`` for the reflection symmetry.

    ``max_defect`` is ``max_i |coeffs[d-i] - conj(coeffs[i])|``; the
    polynomial counts as reflection-real when that is at most
    ``tol * max(1, |p|_inf)``.
    """
    defect = float(np.abs(p.coeffs[::-1] - np.conj(p.coeffs)).max())
    return defect <= tol * max(1.0, p.norm_inf()), defect


def symmetrize_reality(p: CPoly) -> CPoly:
    """Project onto the reflection-real subspace (averages the defect away)."""
    c = 0.5 * (p.coeffs + np.conj(p.coeffs[::-1]))
    return CPoly(c)


# ---------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------


def roots(p: CPoly, tol=1e-9):
    """All roots of ``p`` at its effective degree, with multiplicity.

    Uses the companion-matrix eigenvalue method.  The computed roots are
    validated by reconstructing the polynomial; a relative mismatch above
    ``1e3 * tol`` raises :class:`ResolutionError` rather than returning
    unreliable values.
    """
    d = p.effective_degree(tol)
    if d < 0:
        raise ValidationError("zero polynomial has no root set")
    if d == 0:
        return np.zeros(0, dtype=np.complex128)
    c = p.coeffs[: d + 1]
    r = _companion_roots(c[::-1])
    # reconstruction residual guards against ill-conditioning
    rec = c[-1] * _fromroots(r)
    rel = np.abs(rec - c).max() / max(np.abs(c).max(), 1e-300)
    if rel > 1e3 * tol:
        raise ResolutionError(
            f"root set not resolved: reconstruction residual {rel:.3e} "
            f"exceeds {1e3 * tol:.1e}"
        )
    return r


def _companion_roots(desc):
    """``np.roots`` of complex descending coefficients without its wrapper:
    its companion matrix, eigenvalues and dtypes, so its bits."""
    nz = np.flatnonzero(desc)
    if not len(nz):
        return np.array([])
    p, r = desc[nz[0]: nz[-1] + 1], np.array([])
    if len(p) > 1:
        a = np.diag(np.ones(len(p) - 2, p.dtype), -1)
        a[0, :] = -p[1:] / p[0]
        r = np.linalg.eigvals(a)
    return np.concatenate([r, np.zeros(len(desc) - 1 - nz[-1], r.dtype)])


# ---------------------------------------------------------------------
# Sylvester matrices, approximate gcd, resultant
# ---------------------------------------------------------------------


def _sylvester(cp, cq):
    """Sylvester matrix of two coefficient vectors (ascending order).

    Stacks of vectors, shapes ``(..., n + 1)`` and ``(..., m + 1)`` with
    the same leading shape, give the stack of their Sylvester matrices.
    """
    idx = _sylvester_index(cp.shape[-1] - 1, cq.shape[-1] - 1)
    return np.concatenate([cp, cq, np.zeros(cp.shape[:-1] + (1,), complex)], axis=-1)[..., idx]


@functools.lru_cache(maxsize=None)
def _sylvester_index(n, m):
    """Read-only gather index of the Sylvester matrix into [cp, cq, 0]: rows
    i < m hold cp descending from column i, rows m + i cq, the rest zero."""
    idx = np.full((n + m, n + m), n + m + 2)
    for i in range(m):
        idx[i, i: i + n + 1] = np.arange(n, -1, -1)
    for i in range(n):
        idx[m + i, i: i + m + 1] = np.arange(n + m + 1, n, -1)
    idx.setflags(write=False)
    return idx


def approx_gcd(p: CPoly, q: CPoly, tol=1e-9) -> CPoly:
    """Monic approximate greatest common divisor of two polynomials: the
    first candidate of :func:`_gcd_candidates`."""
    return next(_gcd_candidates(p, q, tol))


def _gcd_candidates(p, q, tol=1e-9):
    """Monic approximate gcds of p and q from one solve, largest degree first.

    One trim and one Sylvester SVD at ``tol``: each distinct rank deficiency
    at the thresholds ``t * (|p| + |q|)``, t = tol / 10**i for i = 0..7, is a
    candidate degree, and a trivial candidate ends them.  Divisors pair nearby
    roots of p and q, far better conditioned at degrees below ~10 than the
    subresultant system.  Greedy pairing is sequential, so degree k takes the
    first k pairs: the pairing and its two companion solves run once, if at all.
    """
    n, m = p.effective_degree(tol), q.effective_degree(tol)
    if n < 0 and m < 0:
        raise ValidationError("gcd of two zero polynomials is undefined")
    if n < 0 or m < 0:
        yield (q if n < 0 else p).monic(tol)
        return
    pt, qt = CPoly(p.coeffs[: n + 1]), CPoly(q.coeffs[: m + 1])
    scale = float(np.linalg.norm(pt.coeffs) + np.linalg.norm(qt.coeffs))
    sigma = np.linalg.svd(_sylvester(pt.coeffs, qt.coeffs), compute_uv=False)
    pairs, last, t = [], None, tol
    for _ in range(8):
        k = min(int(np.count_nonzero(sigma <= t * scale)), n, m)
        t /= 10.0
        if k and not pairs:
            rp, rq = roots(pt, tol), roots(qt, tol)
            dist = np.abs(rp[:, None] - rq[None, :])
            for _ in range(k):
                i, j = np.unravel_index(np.argmin(dist), dist.shape)
                pairs.append(0.5 * (rp[i] + rq[j]))
                dist[i, :] = dist[:, j] = np.inf
        if k != last:
            yield CPoly.from_roots(np.asarray(pairs[:k])) if k else CPoly([1.0])
        last = k


def resultant(p: CPoly, q: CPoly, tol=1e-9) -> complex:
    """Resultant at the effective degrees (Sylvester determinant).

    Normalized so that ``res(p, q) = lead(p)**deg(q) * prod q(roots of p)``.
    Vanishes (to numerical precision) exactly when the two polynomials
    share a root.
    """
    n, m = p.effective_degree(tol), q.effective_degree(tol)
    if n < 0 or m < 0:
        return 0.0 + 0.0j
    if n == 0:
        return complex(p.coeffs[0] ** m)
    if m == 0:
        return complex(q.coeffs[0] ** n)
    return complex(np.linalg.det(_sylvester(p.coeffs[: n + 1], q.coeffs[: m + 1])))


# ---------------------------------------------------------------------
# real coordinates on the reflection-real subspace
# ---------------------------------------------------------------------
#
# Reflection-real polynomials of formal degree d form a real vector space
# of dimension d + 1: the low coefficients p_0 .. p_{ceil(d/2)-1} are free
# complex numbers, their mirrors are determined, and for even d the middle
# coefficient is real.  The chart used everywhere in this package is
#
#     [Re p_0, Im p_0, Re p_1, Im p_1, ..., (p_{d/2} if d even)]
#
# so the first two slots always hold the value at lam = 0 and the
# remaining d - 1 slots are the "middle" coordinates.


def real_coords(p: CPoly) -> np.ndarray:
    """Coordinates of a reflection-real polynomial in the standard chart."""
    d = p.formal_degree
    out = np.empty(d + 1)
    half = (d + 1) // 2
    for i in range(half):
        out[2 * i] = p.coeffs[i].real
        out[2 * i + 1] = p.coeffs[i].imag
    if d % 2 == 0:
        out[d] = p.coeffs[d // 2].real
    return out


def real_place(degree: int, x) -> CPoly:
    """Inverse of :func:`real_coords`: build the reflection-real polynomial."""
    return CPoly(real_place_coeffs(degree, x))


def real_place_coeffs(degree: int, x) -> np.ndarray:
    """Coefficients of :func:`real_place` for a stack of charts.

    ``x`` has shape ``(..., degree + 1)``; the result has the same shape
    and holds the ascending complex coefficients of each polynomial.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (degree + 1,):
        raise InvariantError(
            f"chart expects {degree + 1} coordinates, got shape {x.shape}"
        )
    half = (degree + 1) // 2
    low = x[..., 0 : 2 * half : 2] + 1j * x[..., 1 : 2 * half : 2]
    # low block, the real middle coefficient (even degree only), mirrors
    return np.concatenate([low, x[..., 2 * half :], np.conj(low[..., ::-1])], axis=-1)


@functools.lru_cache(maxsize=None)
def _chart_units(degree):
    """Read-only ``real_place_coeffs(degree, eye(degree + 1))``, once per degree."""
    units = real_place_coeffs(degree, np.eye(degree + 1))
    units.setflags(write=False)
    return units
