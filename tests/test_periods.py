"""Period engine: kernel solve, independent quadrature oracles, sym map."""

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from spectralcurves import periods
from spectralcurves.curve import build_curve, homology_cycles
from spectralcurves.errors import ResolutionError, ValidationError
from spectralcurves.periods import (
    QuadConfig,
    _gauss_rule,
    a_periods,
    b_periods,
    derived_pencil,
    oracle_a_period,
    phi_map,
    rational_plane_distance,
    simpson_loop_integral,
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
