"""Polynomial ring layer: arithmetic, reflection symmetry, coordinates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralcurves.errors import ValidationError
from spectralcurves.polyring import (
    CPoly,
    approx_gcd,
    real_coords,
    real_dim,
    real_place,
    real_place_coeffs,
    reality_check,
    resultant,
    rho_star,
    roots,
    symmetrize_reality,
)
from spectralcurves.polyring import _sylvester

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=6)


def poly_of(coeffs):
    return CPoly(np.asarray(coeffs, dtype=complex))


# ---------------------------------------------------------------- basics


def test_degree_accounting():
    p = CPoly([1.0, 2.0, 3.0])
    assert p.formal_degree == 2
    assert p.effective_degree() == 2
    padded = CPoly([1.0], degree=4)
    assert padded.formal_degree == 4
    assert padded.effective_degree() == 0
    assert CPoly([0.0, 0.0]).is_zero()


def test_immutability():
    p = CPoly([1.0, 2.0])
    with pytest.raises(AttributeError):
        p.coeffs = np.zeros(2)


def test_evaluation_matches_polyval():
    c = np.array([1.0 + 2.0j, -0.5, 3.0j, 0.25])
    p = CPoly(c)
    z = np.exp(1j * np.linspace(0, 2, 17)) * 1.3
    expect = np.polynomial.polynomial.polyval(z, c)
    assert np.allclose(p(z), expect, rtol=0, atol=1e-13)


def test_norm_inf_and_monic():
    p = CPoly([3.0, -6.0j, 1.5])
    assert p.norm_inf() == pytest.approx(6.0)
    m = p.monic()
    assert m.coeffs[-1] == pytest.approx(1.0)
    assert np.allclose(m.coeffs * 1.5, p.coeffs)


def test_times_lambda_shifts():
    p = CPoly([2.0, 1.0])
    q = p.times_lambda()
    assert q.formal_degree == 2
    assert np.allclose(q.coeffs, [0.0, 2.0, 1.0])


# ------------------------------------------------------------- ring laws


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, finite_complex)
def test_addition_is_pointwise(ca, cb, z):
    p, q = poly_of(ca), poly_of(cb)
    assert (p + q)(z) == pytest.approx(p(z) + q(z), abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, finite_complex)
def test_multiplication_is_pointwise(ca, cb, z):
    p, q = poly_of(ca), poly_of(cb)
    prod = p * q
    assert prod.formal_degree == p.formal_degree + q.formal_degree
    assert prod(z) == pytest.approx(p(z) * q(z), rel=1e-9, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(coeff_lists)
def test_derivative_linear_in_degree(ca):
    p = poly_of(ca)
    d = p.derivative()
    # finite-difference check at a benign point
    h = 1e-6
    z = 0.37 + 0.21j
    fd = (p(z + h) - p(z - h)) / (2 * h)
    assert d(z) == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_scalar_and_negation():
    p = CPoly([1.0, -2.0])
    assert np.allclose((-p).coeffs, [-1.0, 2.0])
    assert np.allclose((p * 2.0).coeffs, [2.0, -4.0])
    assert np.allclose((p - p).coeffs, 0.0)


# ------------------------------------------------------ reflection symmetry


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
def test_rho_star_is_involution(ca):
    p = poly_of(ca)
    back = rho_star(rho_star(p))
    assert np.array_equal(back.coeffs, p.coeffs)


def test_rho_star_reflects_roots():
    p = CPoly.from_roots([0.5, -0.2 + 0.4j])
    refl = np.sort_complex(1.0 / np.asarray([0.5, -0.2 + 0.4j]))
    got = np.sort_complex(roots(rho_star(p)))
    assert np.allclose(got, refl, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
def test_symmetrize_projects_onto_real_slice(ca):
    p = poly_of(ca)
    s = symmetrize_reality(p)
    ok, defect = reality_check(s, tol=1e-12)
    assert ok, defect
    again = symmetrize_reality(s)
    assert np.allclose(again.coeffs, s.coeffs, atol=1e-13)


def test_reflection_real_is_real_on_circle_after_halving():
    # lam^-m p(lam) is real on |lam| = 1 for reflection-real p of degree 2m
    p = symmetrize_reality(CPoly([0.3 - 1.0j, 2.0, 0.7 + 0.2j, -0.1j, 1.1]))
    z = np.exp(1j * np.linspace(-np.pi, np.pi, 37))
    vals = p(z) / z**2
    assert np.max(np.abs(vals.imag)) < 1e-12


def test_real_coordinates_roundtrip():
    for d in (1, 2, 3, 5):
        n = real_dim(d)
        assert n == d + 1
        x = np.linspace(-1.0, 1.0, n)
        p = real_place(d, x)
        assert reality_check(p)[0]
        assert np.allclose(real_coords(p), x, atol=1e-14)


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5])
def test_stacked_charts_and_sylvester_matrices_are_their_rows(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((4, 3, d + 1))
    x[x > 1.0] = -0.0
    stack = real_place_coeffs(d, x)
    q = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    sylv = _sylvester(stack, q)
    for i, j in np.ndindex(4, 3):
        row = real_place(d, x[i, j]).coeffs
        assert stack[i, j].tobytes() == row.tobytes()
        assert sylv[i, j].tobytes() == _sylvester(row, q[i, j]).tobytes()


# ------------------------------------------------------------ roots, gcd


def test_from_roots_and_roots_inverse():
    want = np.array([0.4 + 0.1j, -0.8j, 1.7])
    p = CPoly.from_roots(list(want), lead=0.5 - 0.25j)
    got = np.sort_complex(roots(p))
    assert np.allclose(got, np.sort_complex(want), atol=1e-10)


def test_roots_of_zero_poly_rejected():
    with pytest.raises(ValidationError):
        roots(CPoly([0.0, 0.0, 0.0]))


def test_approx_gcd_coprime_is_trivial():
    p = CPoly.from_roots([0.3, 0.9j])
    q = CPoly.from_roots([-0.5, 1.4])
    g = approx_gcd(p, q, tol=1e-8)
    assert g.formal_degree == 0


def test_approx_gcd_recovers_common_factor():
    common = [0.6 + 0.2j, -1.1]
    p = CPoly.from_roots(common + [0.3], lead=1.3)
    q = CPoly.from_roots(common + [-0.7j, 2.0], lead=-0.4j)
    g = approx_gcd(p, q, tol=1e-8)
    assert g.formal_degree == 2
    assert np.allclose(np.sort_complex(roots(g)), np.sort_complex(common), atol=1e-8)


def test_resultant_root_product_identity():
    pr = [0.3 + 0.1j, -0.5j]
    p = CPoly.from_roots(pr, lead=1.7 - 0.2j)
    q = CPoly.from_roots([0.9, 0.2 + 0.2j, -1.1], lead=0.6 + 1.0j)
    expect = (1.7 - 0.2j) ** 3 * np.prod(q(np.asarray(pr)))
    assert resultant(p, q) == pytest.approx(expect, rel=1e-12)


def test_resultant_vanishes_on_shared_root():
    p = CPoly.from_roots([0.77, 0.2j])
    q = CPoly.from_roots([0.77, -1.5])
    assert abs(resultant(p, q)) < 1e-12
