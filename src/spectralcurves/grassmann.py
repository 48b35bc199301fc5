"""Two-planes of reversal-real polynomials in graph coordinates.

A plane is stored as the real g x 2 matrix M of a linear map from the
(Re b(0), Im b(0)) plane into the g free middle coefficients of a
reversal-real polynomial of formal degree g+1 (the top coefficient is
the conjugate of the bottom one, so the at-zero value and the middle
block parametrize everything).  The graph form makes the normalized
basis b1 (value 1 at zero) and b2 (value i) immediate, and it makes the
openness condition -- no nonzero element of the plane vanishing at the
origin -- automatic.

The common-root stratification of these planes is probed numerically:
membership residuals (windowed minima of |b1|^2 + |b2|^2 on the unit
circle for circle roots, normalized |resultant| for reflection pairs)
vanish on the stratum and grow quadratically in the normal
displacement, so a quadratic form is fit to residuals over sampled
perturbations of M and the normal space is read off its eigenstructure.
Tangency is validated by a second-order persistence check across two
radii.  Residuals rather than root positions are essential: a basis
element may carry the common root with multiplicity (the g=1 stratum
forces b1 = (lambda-1)^2, say), and a double root splits
non-differentiably under perturbation while the value residual stays
smooth.

The map from spectral curves to planes reads the solved vanishing-
A-period basis into graph coordinates; its immersion rank is measured
by finite differences over the 2g real root coordinates.
"""

import functools
import json
import logging
from dataclasses import dataclass

import numpy as np

from .curve import build_curve
from .errors import InvariantError, ResolutionError, ValidationError
from .invariants import GCD_TOL, pencil_gcd
from .periods import solve_Ba
from .polyring import CPoly, _sylvester, real_coords, real_place_coeffs
from .polyring import roots as poly_roots

log = logging.getLogger(__name__)

__all__ = [
    "GrPlane",
    "plane_basis",
    "plane_from_pencil",
    "plane_to_dict",
    "plane_from_dict",
    "plane_to_json",
    "plane_from_json",
    "gr_classify",
    "ProbeReport",
    "stratum_dimension_probe",
    "probe_to_dict",
    "B_map",
    "immersion_rank",
]


@dataclass(frozen=True, eq=False)
class GrPlane:
    """A 2-plane in graph coordinates: columns of M are the middle
    coefficient blocks of the b(0)=1 and b(0)=i basis elements."""

    genus: int
    M: np.ndarray

    def __post_init__(self):
        g = int(self.genus)
        if g < 0:
            raise ValidationError("genus must be nonnegative")
        m = np.asarray(self.M, dtype=float).reshape(g, 2)
        if not np.all(np.isfinite(m)):
            raise ValidationError("plane matrix has non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "genus", g)
        object.__setattr__(self, "M", m)


def _basis_coeffs(genus, mats):
    """Coefficient stacks, shape (n, g+2) each, of the normalized bases of
    a stack of graph-coordinate matrices of shape (n, g, 2)."""
    # chart of b1: (1, 0, M[:, 0]); chart of b2: (0, 1, M[:, 1])
    charts = np.zeros((len(mats), 2, genus + 2))
    charts[:, 0, 0] = charts[:, 1, 1] = 1.0
    charts[:, :, 2:] = np.swapaxes(mats, 1, 2)
    c = real_place_coeffs(genus + 1, charts)
    return c[:, 0], c[:, 1]


def plane_basis(plane):
    """Normalized basis (b1, b2) of the plane: b1(0) = 1, b2(0) = i,
    top coefficients 1 and -i, middle blocks the columns of M."""
    c1, c2 = _basis_coeffs(plane.genus, plane.M[None])
    b1, b2 = CPoly(c1[0]), CPoly(c2[0])
    if b1(0.0) != 1.0 or b2(0.0) != 1j:
        raise InvariantError("graph-coordinate normalization failed")
    return b1, b2


def plane_from_pencil(b1, b2, tol=1e-9):
    """Read any spanning pair of a plane into graph coordinates.

    The pair is recombined over the reals so the values at zero become
    exactly (1, i); a plane containing a nonzero element vanishing at the
    origin has no graph form and is rejected.
    """
    z1, z2 = complex(b1(0.0)), complex(b2(0.0))
    vals = np.array([[z1.real, z2.real], [z1.imag, z2.imag]])
    scale = max(1.0, float(np.max(np.abs(vals))))
    if abs(np.linalg.det(vals)) < 1e-12 * scale ** 2:
        raise ValidationError(
            "plane contains a nonzero element vanishing at the origin; "
            "no graph coordinates exist")
    T = np.linalg.solve(vals, np.eye(2))
    w1 = b1 * T[0, 0] + b2 * T[1, 0]
    w2 = b1 * T[0, 1] + b2 * T[1, 1]
    g = b1.formal_degree - 1
    x1, x2 = real_coords(w1), real_coords(w2)
    head = np.array([x1[0], x1[1], x2[0], x2[1]])
    if np.max(np.abs(head - [1.0, 0.0, 0.0, 1.0])) > 1e-8:
        raise ResolutionError("renormalization did not reach graph form")
    return GrPlane(g, np.stack([x1[2:], x2[2:]], axis=1))


def plane_to_dict(plane):
    return {"genus": plane.genus, "M": np.asarray(plane.M, float).tolist()}


def plane_from_dict(data):
    return GrPlane(int(data["genus"]), np.asarray(data["M"], dtype=float))


def plane_to_json(plane):
    return json.dumps(plane_to_dict(plane))


def plane_from_json(text):
    return plane_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------

def _circle_band(tol):
    return max(tol, 1e-8)


def gr_classify(plane, tol=GCD_TOL):
    """Common-root data of the plane: validated gcd degree, membership in
    the common-root stratum, and the gcd roots on the unit circle."""
    gcd = pencil_gcd(*plane_basis(plane), tol)
    deg = gcd.formal_degree
    s1 = []
    if deg > 0:
        band = _circle_band(tol)
        s1 = [complex(z) for z in poly_roots(gcd) if abs(abs(z) - 1.0) <= band]
    return {"gcd_degree": deg, "in_R": deg > 0, "S1_roots": s1}


def _circle_values(c1, c2, theta):
    """|b1|^2 + |b2|^2 at exp(i theta), by Horner on coefficient rows c1,
    c2 of shape (n, d+1); theta broadcasts against (n, k)."""
    lam = np.exp(1j * theta)
    v1, v2 = c1[:, -1:], c2[:, -1:]
    for k in range(c1.shape[1] - 2, -1, -1):
        v1 = c1[:, k:k + 1] + v1 * lam
        v2 = c2[:, k:k + 1] + v2 * lam
    return np.abs(v1) ** 2 + np.abs(v2) ** 2


@functools.lru_cache(maxsize=None)
def _half_angle_weights(g):
    """Rows k = 1..g: the coefficients, highest power first, of
    (1 + i s)^(g+k) (1 - i s)^(g-k), which is (1 + s^2)^g e^{ik phi} at
    s = tan(phi / 2)."""
    w = np.array([(-1) ** k * np.poly([1j] * (g + k) + [-1j] * (g - k))
                  for k in range(1, g + 1)])
    w.setflags(write=False)
    return w


def _windowed_circle_min(c1, c2, psi0, width):
    """Row-wise min over the circle arc |theta - psi0| <= width of
    f = |b1|^2 + |b2|^2, for coefficient rows c1, c2 of shape (n, g+2).

    On the circle f = sum_k t_k e^{ik theta} with t_k = sum_j c_{j+k}
    conj(c_j) over both rows, and graph form cancels t_{g+1}.  With
    s = tan((theta - psi0) / 2), (1 + s^2)^g f' is the real polynomial
    2 Re sum_k i k t_k e^{ik psi0} w_k(s) of degree 2g, so every interior
    minimiser is a real root of it: an eigenvalue of one stacked companion
    matrix (Edelman & Murakami, Math. Comp. 1995).  f is evaluated at each
    root's angle, clipped into the window, and at the arc ends, so a
    spurious candidate cannot undercut the true minimum.  A top
    coefficient of rounding size (a root at psi0 + pi) is raised to that
    size to keep the companion matrix finite.  Per-row arithmetic is
    real, so a row's value does not depend on the rest of the stack.
    """
    n, g = len(c1), c1.shape[1] - 2
    k = np.arange(1, g + 1)
    w = (1j * k * np.exp(1j * k * psi0))[:, None] * _half_angle_weights(g)
    c = np.stack([c1, c2], axis=1)
    poly = np.zeros((n, 2 * g + 1))
    for h, wh in zip(k, w):
        lo, hi = c[..., :-h], c[..., h:]
        tr = np.sum(hi.real * lo.real + hi.imag * lo.imag, axis=(1, 2))
        ti = np.sum(hi.imag * lo.real - hi.real * lo.imag, axis=(1, 2))
        poly += 2.0 * (tr[:, None] * wh.real - ti[:, None] * wh.imag)
    tiny = np.finfo(float).eps * np.abs(poly).max(axis=1) + np.finfo(float).tiny
    top = poly[:, 0]
    poly[:, 0] = np.where(np.abs(top) > tiny, top, np.copysign(tiny, top))
    comp = np.zeros((n, 2 * g, 2 * g))
    comp[:, 0] = -poly[:, 1:] / poly[:, :1]
    comp[:, 1:, :-1] = np.eye(2 * g - 1)
    phi = np.concatenate([2.0 * np.arctan(np.linalg.eigvals(comp).real),
                          np.broadcast_to([-width, width], (n, 2))], axis=1)
    return _circle_values(c1, c2, psi0 + np.clip(phi, -width, width)).min(axis=1)


def _membership_residuals(plane, tol):
    """Per-stratum residuals rho: a stack of M-matrices, shape (n, g, 2),
    to their residuals, shape (n,), each >= 0.

    Unit-circle common roots contribute a windowed minimum of
    |b1|^2 + |b2|^2 over the nearby arc (one window per root: the
    "clusters").  An off-circle reflection pair contributes the
    normalized |resultant|.  Either way the residual vanishes on the
    stratum and grows *quadratically* in the normal displacement, which
    is what the quadratic-form fit downstream expects.  Every row is
    computed on its own, so a row's residual does not depend on the
    rest of the stack.

    Returns (case, clusters) where clusters is a list of (label, rho).
    """
    g = plane.genus
    gcd = pencil_gcd(*plane_basis(plane), tol)
    deg = gcd.formal_degree
    rts = sorted((complex(z) for z in poly_roots(gcd)), key=lambda z: z.real)
    band = _circle_band(tol)
    on = [z for z in rts if abs(abs(z) - 1.0) <= max(band, 0.05)]
    sep = min((abs(u - v) for u in rts for v in rts if u is not v),
              default=float("inf"))
    width = min(0.3, sep / 3.0) if np.isfinite(sep) else 0.3

    def arc_cluster(z0):
        psi0 = float(np.angle(z0))

        def rho(mats):
            return _windowed_circle_min(*_basis_coeffs(g, mats), psi0, width)

        return ("arc@%.4f" % psi0, rho)

    def resultant_cluster():
        def rho(mats):
            c1, c2 = _basis_coeffs(g, mats)
            n1, n2 = np.abs(c1).max(axis=1), np.abs(c2).max(axis=1)
            # Sylvester determinants at the full degree g+1.  Graph form
            # keeps both top coefficients at modulus one, so the 1e-9
            # trimming of polyring.resultant could only drop one beside a
            # coefficient near 1e9; such a plane is refused, not trimmed.
            kept = ((np.abs(c1[:, -1]) > 1e-9 * n1)
                    & (np.abs(c2[:, -1]) > 1e-9 * n2))
            if not kept.all():
                raise ValidationError(
                    "resultant residual needs plane coefficients below 1e9 "
                    "in modulus (largest %.3g)" % float(np.max([n1, n2])))
            det = np.linalg.det(_sylvester(c1, c2))
            # hypot and Python's float power, as abs(complex) and
            # float ** int compute them
            scale = np.array([s ** (g + 1) for s in (n1 * n2).tolist()])
            return np.hypot(det.real, det.imag) / np.maximum(scale, 1e-300)

        return ("resultant", rho)

    if deg == 1:
        z0 = rts[0]
        if abs(abs(z0) - 1.0) > 0.05:
            raise InvariantError(
                "gcd of degree one with root %.4g%+.4gj off the unit circle "
                "contradicts reversal symmetry; gcd tolerance artifact"
                % (z0.real, z0.imag))
        return "S1_simple", [arc_cluster(z0)]
    if deg == 2:
        if len(on) == 2 and abs(rts[0] - rts[1]) > 10.0 * band:
            return "S1_double", [arc_cluster(z) for z in rts]
        inside = [z for z in rts if abs(z) < 1.0 - band]
        outside = [z for z in rts if abs(z) > 1.0 + band]
        if len(inside) == 1 and len(outside) == 1:
            part = 1.0 / np.conj(inside[0])
            if abs(part - outside[0]) > 0.05:
                raise InvariantError(
                    "degree-2 gcd roots are not a reflection pair; "
                    "gcd tolerance artifact")
            return "pair_off_circle", [resultant_cluster()]
        raise ResolutionError(
            "degree-2 gcd root layout not resolved (roots %s)" %
            np.round(rts, 5))
    raise ResolutionError(
        "dimension probe supports gcd degree 1 or 2; degree %d is a deeper "
        "stratum" % deg)


@dataclass(frozen=True)
class ProbeReport:
    genus: int
    gcd_degree: int
    case: str
    dimension: int
    singular: bool
    sheets: int
    sheet_dimensions: tuple
    normal_rank: int
    radius: float
    samples: int
    persistence_ratio: float


def probe_to_dict(report):
    return {
        "genus": report.genus,
        "gcd_degree": report.gcd_degree,
        "case": report.case,
        "dimension": report.dimension,
        "singular": report.singular,
        "sheets": report.sheets,
        "sheet_dimensions": list(report.sheet_dimensions),
        "normal_rank": report.normal_rank,
        "radius": report.radius,
        "samples": report.samples,
        "persistence_ratio": report.persistence_ratio,
    }


def _directions(dim, samples, rng):
    if dim == 2:
        # exhaustive angular grid of the two-dimensional parameter space
        ang = np.linspace(0.0, np.pi, samples, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    extra = rng.standard_normal((max(samples - 2 * dim, dim), dim))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.concatenate([axes, extra])


def _quadratic_normals(rho, rho0, mat0, dirs, radius, rel_cut=0.05):
    """Fit rho(M + r v) ~ c + l.v + v^T A v and read normals off A.

    The residual vanishes on the stratum and is quadratic in the normal
    displacement, so the positive eigenvalues of the fitted form A span
    the normal space; the linear term only mops up any tiny off-stratum
    bias of the base point.  There is deliberately no constant feature:
    on the unit sphere it would coincide with the sum of the diagonal
    quadratic features and leave the trace of A underdetermined, and the
    rho0 subtraction cancels it exactly anyway.  Returns (rank, normal
    rows, eigenvalues).
    """
    d = dirs.shape[1]
    iu = np.triu_indices(d)
    ys = (rho(mat0 + radius * dirs.reshape(-1, *mat0.shape)) - rho0) / radius**2
    outer = dirs[:, :, None] * dirs[:, None, :]
    rows = np.concatenate([dirs, outer[:, iu[0], iu[1]]], axis=1)
    sol, _, _, _ = np.linalg.lstsq(rows, ys, rcond=None)
    A = np.zeros((d, d))
    A[iu] = sol[d:]
    A = 0.5 * (A + A.T)
    w, vecs = np.linalg.eigh(A)
    w, vecs = w[::-1], vecs[:, ::-1]
    top = max(w[0], 0.0)
    if top <= 0.0:
        return 0, np.zeros((0, d)), w
    rank = int(np.sum(w > rel_cut * top))
    return rank, vecs[:, :rank].T, w


def stratum_dimension_probe(plane, radius=1e-3, samples=None, tol=GCD_TOL,
                            seed=11):
    """Estimate the local dimension of the common-root stratum at a plane.

    Perturbation matrices are sampled at the given radius in the
    2g-dimensional parameter space (exhaustively over angles when g = 1),
    a quadratic form is fit to the membership residuals, and its
    significant eigenvectors give the normal space.  The fit is rerun at
    radius/10 and must reproduce the same rank and normal subspace;
    tangency is then validated by second-order persistence (the residual
    along tangent directions must drop like the fourth power of the
    radius, so the r -> r/10 ratio has to clear 200, well above the 100
    a first-order leak would give).  A plane off the stratum is a
    precondition error; reports carry the estimated dimension, detected
    sheet structure, and the smallest persistence ratio.  That ratio is
    inf when every tangent move stays at or below 1e-13: the moves are at
    the rounding floor, and the persistence test was not applied.
    """
    g = plane.genus
    dim = 2 * g
    if dim == 0:
        raise ValidationError("genus-0 planes have no parameters to probe")
    if not (np.isfinite(radius) and radius > 0.0):
        raise ValidationError("radius %r must be finite and positive" % radius)
    rep = gr_classify(plane, tol)
    if rep["gcd_degree"] == 0:
        raise ValidationError(
            "probe undefined off the common-root stratum "
            "(gcd degree 0 at tol %.1e)" % tol)
    nfeat = 1 + dim + dim * (dim + 1) // 2
    if samples is None:
        samples = 64 if dim == 2 else max(3 * nfeat, 8 * g)
    elif samples < nfeat:
        raise ValidationError(
            "quadratic fit in %d parameters needs at least %d samples"
            % (dim, nfeat))
    rng = np.random.default_rng(seed)
    case, clusters = _membership_residuals(plane, tol)
    mat0 = np.asarray(plane.M, dtype=float)
    dirs = _directions(dim, samples, rng)

    sheet_normals, rho0s = [], []
    for label, rho in clusters:
        rho0 = rho(mat0[None])[0]
        rho0s.append(rho0)
        rank_r, n_r, _ = _quadratic_normals(rho, rho0, mat0, dirs, radius)
        rank_c, n_c, _ = _quadratic_normals(rho, rho0, mat0, dirs,
                                            radius / 10.0)
        if rank_r != rank_c:
            raise ResolutionError(
                "normal rank for %s inconsistent across radii (%d at %.0e, "
                "%d at %.0e)" % (label, rank_r, radius, rank_c, radius / 10))
        if rank_c:
            align = np.linalg.svd(n_r @ n_c.T, compute_uv=False)
            if align.min() < 0.95:
                raise ResolutionError(
                    "normal subspace for %s inconsistent across radii "
                    "(alignment %.3f)" % (label, float(align.min())))
        sheet_normals.append(n_c)

    _, sv, vt = np.linalg.svd(np.vstack([n for n in sheet_normals if n.size]))
    normal_rank = int(np.sum(sv > 0.05 * sv[0]))

    # second-order persistence along the estimated tangent space
    tangent = vt[normal_rank:normal_rank + 3]
    steps = np.concatenate([radius * tangent, 0.1 * radius * tangent])
    stack = mat0 + steps.reshape(-1, *mat0.shape)
    moves = np.max([np.abs(rho(stack) - rho0)
                    for (_, rho), rho0 in zip(clusters, rho0s)], axis=0)
    big, small = moves[:len(tangent)], moves[len(tangent):]
    ratios = [hi / max(lo, 1e-300) for hi, lo in zip(big, small) if hi > 1e-13]
    persistence = float(min(ratios)) if ratios else float("inf")
    if ratios and persistence < 200.0:
        raise ResolutionError(
            "tangent directions show first-order stratum leakage "
            "(persistence ratio %.1f < 200); dimension not resolved"
            % persistence)

    if case == "S1_double":
        sheets = 2
        sheet_dims = tuple(dim - len(n) for n in sheet_normals)
        singular = normal_rank == 2
        dimension = max(sheet_dims)
    else:
        sheets = 1
        sheet_dims = (dim - normal_rank,)
        singular = False
        dimension = dim - normal_rank
    return ProbeReport(genus=g, gcd_degree=rep["gcd_degree"], case=case,
                       dimension=dimension, singular=singular, sheets=sheets,
                       sheet_dimensions=sheet_dims, normal_rank=normal_rank,
                       radius=radius, samples=len(dirs),
                       persistence_ratio=persistence)


# ---------------------------------------------------------------------------
# curves to planes
# ---------------------------------------------------------------------------

def B_map(curve, quad=None, tol=None):
    """Graph coordinates of the vanishing-A-period plane of a curve."""
    basis = solve_Ba(curve, quad=quad, tol=tol)
    x1, x2 = real_coords(basis.b1), real_coords(basis.b2)
    head = np.array([x1[0], x1[1], x2[0], x2[1]])
    if np.max(np.abs(head - [1.0, 0.0, 0.0, 1.0])) > 1e-9:
        raise InvariantError("solved basis is not in graph form")
    return GrPlane(curve.genus, np.stack([x1[2:], x2[2:]], axis=1))


def _rank_with_gap(sv, gap=1e4):
    """Numerical rank from a singular-value gap of the given factor."""
    sv = np.asarray(sv, dtype=float)
    n = len(sv)
    if n == 0:
        return 0
    if sv[0] == 0.0:
        return 0
    if sv[-1] > sv[0] / gap:
        return n
    floor = max(sv[0] * 1e-300, 1e-300)
    ratios = sv[:-1] / np.maximum(sv[1:], floor)
    k = int(np.argmax(ratios))
    if ratios[k] < gap:
        return None
    return k + 1


def immersion_rank(curve, fd_step=1e-3, quad=None):
    """Numerical rank of the Jacobian of the curve-to-plane map over the
    2g real root coordinates.

    Central finite differences at fd_step, SVD, and a rank decision by
    singular-value gap (factor 1e4); the estimate must agree with a rerun
    at fd_step/2, otherwise "rank not resolved at fd_step" is raised.
    Full rank 2g certifies the immersion property at this curve.
    """
    g = curve.genus
    if g == 0:
        return 0
    base = np.empty(2 * g)
    eta = np.asarray(curve.eta, dtype=complex)
    base[0::2] = eta.real
    base[1::2] = eta.imag

    def m_of(coords):
        z = coords[0::2] + 1j * coords[1::2]
        return B_map(build_curve(z, tol=curve.tol), quad=quad).M.ravel()

    def rank_at(h):
        cols = []
        for j in range(2 * g):
            dv = np.zeros(2 * g)
            dv[j] = h
            cols.append((m_of(base + dv) - m_of(base - dv)) / (2.0 * h))
        sv = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)
        return _rank_with_gap(sv), sv

    r1, sv1 = rank_at(fd_step)
    r2, sv2 = rank_at(fd_step / 2.0)
    if r1 is None or r2 is None or r1 != r2:
        raise ResolutionError(
            "rank not resolved at fd_step %g (estimates %s and %s; "
            "singular values %s / %s)"
            % (fd_step, r1, r2, np.format_float_scientific(sv1[-1], 2),
               np.format_float_scientific(sv2[-1], 2)))
    return r1
