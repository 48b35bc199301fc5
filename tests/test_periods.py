"""Period engine: kernel solve, independent quadrature oracles, sym map."""

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from spectralcurves import periods
from spectralcurves.curve import build_curve, homology_cycles, y_along
from spectralcurves.errors import ResolutionError, ValidationError
from spectralcurves.periods import (
    QuadConfig,
    _as_poly,
    _gauss_rule,
    a_periods,
    b_periods,
    derived_pencil,
    phi_map,
    rational_plane_distance,
    solve_Ba,
    sym_integral,
)
from spectralcurves.polyring import CPoly, reality_check, symmetrize_reality
from spectralcurves.whitham import attach_handle

from conftest import random_curve

# Magnitude of the A-period of the probe b = lambda on the curve with
# eta = 1/2, computed from the real elliptic integral
#   2 * int_{1/2}^{2} dx / sqrt(x (x - 1/2) (2 - x))
# by adaptive quadrature (scipy.integrate.quad, abserr 4e-9): an oracle
# that shares nothing with either contour engine.
ELLIPTIC_A0 = 6.099547352326

CURVE_G1 = build_curve([0.5])
CURVE_G2 = build_curve([0.41 + 0.2j, -0.33 - 0.41j])


def probe(curve, coeffs):
    b = symmetrize_reality(CPoly(coeffs, degree=curve.genus + 1))
    assert reality_check(b)[0]
    return b


# ------------------------------------------ independent oracle: Simpson


def simpson_loop_integral(curve, b, loop, seed_sign=1, target=1e-9, max_doublings=10):
    """Integrate Theta_b over a polyline loop by composite Simpson rule with
    uniform subdivision per segment, doubling until two estimates agree.

    Deliberately shares nothing with the Gauss moment engine (different
    nodes, weights, and path) so it can serve as an independent cross-check.
    """
    b = _as_poly(b)
    vertices = np.asarray(loop, dtype=complex)
    segs = list(zip(vertices[:-1], vertices[1:]))

    def estimate(sub):
        total = 0.0 + 0.0j
        pts = []
        for p, qq in segs:
            ts = np.linspace(0.0, 1.0, sub + 1)
            pts.append(p + (qq - p) * ts[:-1])
        pts.append(vertices[-1:])
        pts = np.concatenate(pts)
        sp = y_along(curve, pts, seed_sign=seed_sign)
        if len(sp.points) != len(pts):
            return None  # tracker refined: resolution too coarse, double it
        f = b(sp.points) / (sp.points * sp.y_values)
        w = np.ones(sub + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        for idx, (p, qq) in enumerate(segs):
            h = (qq - p) / sub
            total += (h / 3.0) * np.dot(w, f[idx * sub: idx * sub + sub + 1])
        return total

    sub = 4
    prev = None
    for _ in range(max_doublings + 1):
        cur = estimate(sub)
        if cur is not None and prev is not None:
            if abs(cur - prev) < target * max(1.0, abs(cur)):
                return cur
        prev = cur
        sub *= 2
    raise ResolutionError("Simpson loop integral did not converge to %g" % target)


def oracle_a_period(curve, b, j, target=1e-9):
    """A-period via the racetrack loop and Simpson: test oracle only."""
    loop = homology_cycles(curve).a_loop(j)
    return simpson_loop_integral(curve, b, loop, target=target)


# ------------------------------------------------------------- solve_Ba


def test_solved_basis_is_normalized_graph_pair():
    basis = solve_Ba(CURVE_G2)
    assert basis.b1(0.0) == 1.0
    assert basis.b2(0.0) == 1j
    assert basis.b1.formal_degree == CURVE_G2.genus + 1
    assert reality_check(basis.b1)[0]
    assert reality_check(basis.b2)[0]
    assert basis.kernel_gap > 1e6


def test_solved_basis_annihilates_a_periods():
    for curve in (CURVE_G1, CURVE_G2):
        basis = solve_Ba(curve)
        for b in (basis.b1, basis.b2):
            assert np.max(np.abs(a_periods(curve, b))) < 1e-9


def test_b_periods_of_kernel_are_imaginary():
    basis = solve_Ba(CURVE_G2)
    for b in (basis.b1, basis.b2):
        B = b_periods(CURVE_G2, b)
        assert np.max(np.abs(B.real)) < 1e-7


def test_genus_zero_closed_form():
    basis = solve_Ba(build_curve([]))
    assert np.allclose(basis.b1.coeffs, [1.0, 1.0], atol=1e-9)
    assert np.allclose(basis.b2.coeffs, [1j, -1j], atol=1e-9)


def test_frozen_genus_one_basis():
    basis = solve_Ba(CURVE_G1)
    assert np.allclose(basis.b1.coeffs, [1.0, -2.24631994, 1.0], atol=1e-7)
    assert np.allclose(basis.b2.coeffs, [1j, 0.0, -1j], atol=1e-7)
    B = b_periods(CURVE_G1, basis.b1)
    assert B[0] == pytest.approx(-8.24085453j, abs=1e-7)


def test_structural_checks_on_random_curves():
    for genus, seed in ((1, 3), (2, 14), (3, 15)):
        curve = random_curve(genus, seed)
        basis = solve_Ba(curve)
        assert basis.kernel_gap > 1e6
        assert np.max(np.abs(a_periods(curve, basis.b1))) < 1e-9
        assert np.max(np.abs(b_periods(curve, basis.b1).real)) < 1e-7


def test_quadrature_budget_is_enforced():
    with pytest.raises(ResolutionError, match="quadrature"):
        solve_Ba(CURVE_G2, quad=QuadConfig(nodes=8, tol=1e-15, max_doublings=0))


def test_non_real_probe_rejected():
    with pytest.raises(ValidationError, match="reversal-real"):
        a_periods(CURVE_G1, CPoly([1.0], degree=2))


# ------------------------------------------------- independent A oracles


def test_a_period_matches_elliptic_integral():
    b = probe(CURVE_G1, [0.0, 1.0, 0.0])
    A = a_periods(CURVE_G1, b)
    assert abs(A[0]) == pytest.approx(ELLIPTIC_A0, abs=1e-7)


def test_a_periods_match_simpson_tracker():
    # The Simpson racetrack oracle fixes each cycle's sign from its own
    # sqrt seed; resolve that sign on one probe, then demand the second
    # probe agree with the same signs.
    curve = build_curve([0.3, -0.2 + 0.4j, 0.1 - 0.55j])
    b_one = probe(curve, [1.0, 0.0, 0.0, 0.0, 0.0])
    b_two = probe(curve, [0.3, 1.0 + 0.2j, -0.7j, 0.0, 0.0])
    A_one = a_periods(curve, b_one)
    A_two = a_periods(curve, b_two)
    for j in range(curve.genus):
        o_one = oracle_a_period(curve, b_one, j)
        o_two = oracle_a_period(curve, b_two, j)
        sign = 1.0 if abs(A_one[j] - o_one) < abs(A_one[j] + o_one) else -1.0
        assert A_one[j] == pytest.approx(sign * o_one, abs=2e-9)
        assert A_two[j] == pytest.approx(sign * o_two, abs=2e-9)


def test_near_nodal_curve_stays_resolved():
    # short handle (t = 1e-3) puts two branch roots ~t^2 apart; the moment
    # engine must still deliver a clean kernel and imaginary B-periods
    base = CURVE_G2
    h = attach_handle(base, solve_Ba(base).b1, complex(np.exp(0.9j)), 1e-3)
    basis = solve_Ba(h.curve)
    assert basis.kernel_gap > 1e6
    assert np.max(np.abs(b_periods(h.curve, basis.b1).real)) < 1e-9


# -------------------------------------------------------- derived pencil


def test_derived_pencil_combinations():
    basis = solve_Ba(CURVE_G2)
    dp = derived_pencil(basis)
    lhs0 = basis.b2 - basis.b1 * 1j
    lhsi = basis.b2 + basis.b1 * 1j
    assert np.allclose(dp.b0.coeffs, lhs0.coeffs, atol=1e-12)
    assert np.allclose(dp.binf.coeffs, lhsi.coeffs, atol=1e-12)
    assert dp.b0(0.0) == pytest.approx(0.0, abs=1e-12)
    assert dp.b0.coeffs[-1] == pytest.approx(-2j, abs=1e-12)


# ------------------------------------------------------------ sym and phi


def test_sym_matches_simpson_on_same_detour():
    curve = CURVE_G2
    hom = homology_cycles(curve)
    lam0 = complex(np.exp(2.1j))
    b = probe(curve, [0.3 - 0.2j, 0.0, 0.0, 0.0])
    s = sym_integral(curve, b, lam0)
    o = simpson_loop_integral(curve, b, hom.gamma_path(lam0))
    assert min(abs(s - o), abs(s + o)) < 1e-8


def test_phi_map_rows_are_real_and_frozen_value():
    basis = solve_Ba(CURVE_G1)
    mat = phi_map(CURVE_G1, basis, complex(np.exp(1j * np.pi)))
    assert mat.shape == (2, 2)
    assert np.allclose(mat, [[-1.31157273, 0.0], [0.0, 1.35047447]], atol=1e-6)


def test_phi_map_shape_grows_with_genus():
    basis = solve_Ba(CURVE_G2)
    mat = phi_map(CURVE_G2, basis, complex(np.exp(2.1j)))
    assert mat.shape == (2, 3)


def test_phi_rejects_marker_on_cut_crossing():
    basis = solve_Ba(CURVE_G1)
    with pytest.raises(ValidationError, match="collides"):
        phi_map(CURVE_G1, basis, 1.0 + 0.0j)


# --------------------------------------------------- rational proximity


def test_rational_distance_trivial_below_plane_dim():
    assert rational_plane_distance(np.array([[1.0, 2.0], [0.5, -1.0]])) == 0.0


def _pair_loop_distance(matrix, max_denominator, shortlist):
    """The rational probe as it was before the pairs were batched: one
    matrix_rank and one scipy subspace_angles call per shortlist pair."""
    import scipy.linalg

    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    dim = m.shape[1]
    q, r = np.linalg.qr(m.T)
    q = q[:, np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.max(np.abs(m))))]
    vf = periods._integer_directions(dim, max_denominator).astype(np.float64)
    proj = vf @ q
    sin2 = 1.0 - (proj * proj).sum(axis=1) / np.linalg.norm(vf, axis=1) ** 2
    k = min(shortlist, len(vf))
    short = vf[np.argpartition(sin2, k - 1)[:k]]
    best = np.pi / 2
    for i in range(k):
        for j in range(i + 1, k):
            pair = np.stack([short[i], short[j]], axis=1)
            if np.linalg.matrix_rank(pair) < 2:
                continue
            best = min(best, float(np.max(scipy.linalg.subspace_angles(pair, q))))
    return best


def _probe_matrices():
    rng = np.random.default_rng(17)
    integer = np.array([[1.0, 0.0, -2.0, 3.0], [0.0, 3.0, 1.0, -1.0]])
    row = rng.standard_normal(3)
    return {
        "random 2x3": rng.standard_normal((2, 3)),
        "random 2x4": rng.standard_normal((2, 4)),
        "rank one 2x3": np.stack([row, -2.5 * row]),
        "near-integer 2x3": integer[:, :3] + 1e-7 * rng.standard_normal((2, 3)),
        "near-integer 2x4": integer + 1e-5 * rng.standard_normal((2, 4)),
    }


@pytest.mark.parametrize("shortlist", [16, 64])
@pytest.mark.parametrize("name", sorted(_probe_matrices()))
def test_rational_distance_matches_subspace_angles_loop(name, shortlist):
    m = _probe_matrices()[name]
    got = rational_plane_distance(m, max_denominator=4, shortlist=shortlist)
    want = _pair_loop_distance(m, 4, shortlist)
    assert abs(got - want) <= 1e-12


def test_rational_distance_detects_integer_plane():
    m = np.array([[1.0, 0.0, -2.0], [0.0, 3.0, 1.0]])
    assert rational_plane_distance(m, max_denominator=4) < 1e-12
    rng = np.random.default_rng(5)
    off = rational_plane_distance(m + 1e-3 * rng.standard_normal(m.shape),
                                  max_denominator=4)
    assert 1e-5 < off < 1e-2


# ------------------------------------------------------------ rule cache


@pytest.mark.parametrize("n", [64, 257])
def test_gauss_rule_is_scipys_rule_shared_read_only(n):
    for kind, want in (("jacobi", roots_jacobi(n, 0.0, -0.5)),
                       ("legendre", roots_legendre(n))):
        x, w = _gauss_rule(kind, n)
        assert np.array_equal(x, want[0]) and np.array_equal(w, want[1])
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        again = _gauss_rule(kind, n)
        assert again[0] is x and again[1] is w


def test_periods_do_not_depend_on_rule_cache_state():
    # a rule table keyed by n alone would hand the Jacobi leg a Legendre
    # rule (or the reverse) depending on which was built first
    curve = CURVE_G2
    b = solve_Ba(curve).b1
    lam0 = complex(np.exp(2.1j))

    def cold(first_sym):
        _gauss_rule.cache_clear()
        periods._engine.cache_clear()
        if first_sym:
            s = sym_integral(curve, b, lam0)
            return b_periods(curve, b), s
        bp = b_periods(curve, b)
        return bp, sym_integral(curve, b, lam0)

    bp1, s1 = cold(first_sym=False)
    bp2, s2 = cold(first_sym=True)
    periods._engine.cache_clear()
    bp3, s3 = b_periods(curve, b), sym_integral(curve, b, lam0)   # warm rules
    assert np.array_equal(bp1, bp2) and np.array_equal(bp1, bp3)
    assert s1 == s2 == s3
