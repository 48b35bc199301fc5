"""Polynomial ring layer: arithmetic, reflection symmetry, coordinates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralcurves.errors import ResolutionError, ValidationError
from spectralcurves.polyring import (
    CPoly,
    _fromroots,
    approx_gcd,
    real_coords,
    real_place,
    real_place_coeffs,
    reality_check,
    resultant,
    rho_star,
    roots,
    symmetrize_reality,
)
from spectralcurves.polyring import _companion_roots, _conv, _sylvester

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


def _polyval_arguments():
    """Every kind of argument CPoly is called with: Python and NumPy scalars,
    lists, tuples, 0-d, 1-D and 2-D arrays, real and complex."""
    rng = np.random.default_rng(41)
    z = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    return [0.7, -2, 1.5 - 0.25j, np.float64(0.3), np.int64(3), np.complex128(0.2 + 0.9j),
            np.float32(0.6), [0.1, -0.4j, 2.0], (0.5, 1.25), np.array(0.8 - 0.1j),
            np.array(1.1), z[0], z.real[1], z, z.real, np.arange(5), z.real.astype(np.float32)]


@pytest.mark.parametrize("n", range(1, 12))
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_evaluation_is_bitwise_polyval(n, kind):
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n) + (1j * rng.standard_normal(n) if kind == "complex" else 0.0)
    p = CPoly(c)
    for lam in _polyval_arguments():
        want, got = np.polynomial.polynomial.polyval(lam, p.coeffs), p(lam)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_construction_from_an_array_keeps_the_callers_flags():
    a = np.array([1.0 + 2.0j, -0.5, 3.0j, 0.25])
    p = CPoly(a)
    assert a.flags.writeable and not p.coeffs.flags.writeable
    assert p == CPoly(list(a)) == CPoly(tuple(a))
    r = CPoly(a[::-1])           # a reversed view is stored as a contiguous copy
    assert r.coeffs.flags.c_contiguous and not np.shares_memory(r.coeffs, a)
    assert r == CPoly(list(a[::-1])) and rho_star(p) == r


def test_formal_degree_below_the_coefficients_is_refused_and_empty_is_zero():
    for coeffs in ([1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0], dtype=complex)):
        with pytest.raises(ValidationError, match="formal degree 1 below coefficient count 3"):
            CPoly(coeffs, degree=1)
        assert CPoly(coeffs, degree=4).coeffs.tobytes() == np.array(
            [1, 2, 3, 0, 0], dtype=complex).tobytes()
    for empty in ([], np.zeros(0, dtype=complex)):
        assert CPoly(empty) == CPoly([0.0]) and CPoly(empty).formal_degree == 0
        assert CPoly(empty, degree=2) == CPoly([0.0, 0.0, 0.0])


def test_norm_inf_and_monic():
    p = CPoly([3.0, -6.0j, 1.5])
    assert p.norm_inf() == pytest.approx(6.0)
    m = p.monic()
    assert m.coeffs[-1] == pytest.approx(1.0)
    assert np.allclose(m.coeffs * 1.5, p.coeffs)


def test_zero_polynomial_trims_to_zero_and_has_no_monic_form():
    zero = CPoly([0.0, 0.0, 0.0])
    assert zero.trimmed().coeffs.tobytes() == np.zeros(1, complex).tobytes()
    with pytest.raises(ValidationError, match="cannot normalize the zero polynomial"):
        zero.monic()


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
        x = np.linspace(-1.0, 1.0, d + 1)
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


def _sylvester_by_slices(cp, cq):
    """The Sylvester matrix built slice by slice, as _sylvester once did."""
    n, m = cp.shape[-1] - 1, cq.shape[-1] - 1
    s = np.zeros(cp.shape[:-1] + (n + m, n + m), dtype=np.complex128)
    for i in range(m):
        s[..., i, i: i + n + 1] = cp[..., ::-1]
    for i in range(n):
        s[..., m + i, i: i + m + 1] = cq[..., ::-1]
    return s


@pytest.mark.parametrize("n, m", [(0, 1), (1, 1), (1, 3), (4, 2), (5, 5)])
@pytest.mark.parametrize("lead", [(), (3,), (2, 4)])
def test_sylvester_gather_is_bitwise_the_slice_construction(n, m, lead):
    rng = np.random.default_rng(7 * n + m)
    cp = rng.standard_normal(lead + (n + 1,)) + 1j * rng.standard_normal(lead + (n + 1,))
    cq = rng.standard_normal(lead + (m + 1,)) + 1j * rng.standard_normal(lead + (m + 1,))
    cp[cp.real > 1.0] = -0.0
    for p, q in ((cp, cq), (cp.real, cq.real)):
        got, want = _sylvester(p, q), _sylvester_by_slices(p, q)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_companion_roots_are_bitwise_np_roots():
    rng = np.random.default_rng(29)
    cases = [np.zeros(3, complex), np.array([2 + 1j]), np.array([0, 3j, 0, 0]),
             np.array([0j, 0j, 5.0])]
    for deg in range(1, 11):
        for lead, trail in ((0, 0), (1, 0), (0, 2), (2, 1)):
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            cases.append(np.concatenate([np.zeros(lead, complex), c, np.zeros(trail, complex)]))
    for desc in cases:
        want, got = np.roots(desc), _companion_roots(desc)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_conv_is_bitwise_np_convolve():
    # every product of the package: CPoly.__mul__, _fromroots and the
    # tangent algebra of whitham
    rng = np.random.default_rng(31)
    for n in range(1, 13):
        for m in range(1, 13):
            for dtypes in ((float, float), (complex, complex), (float, complex)):
                a, v = (rng.standard_normal(k) + (1j * rng.standard_normal(k) if t is complex
                                                  else 0.0)
                        for k, t in zip((n, m), dtypes))
                for x, y in ((a, v), (v, a)):
                    want, got = np.convolve(x, y), _conv(x, y)
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------ roots, gcd


def test_from_roots_and_roots_inverse():
    want = np.array([0.4 + 0.1j, -0.8j, 1.7])
    p = CPoly.from_roots(list(want), lead=0.5 - 0.25j)
    got = np.sort_complex(roots(p))
    assert np.allclose(got, np.sort_complex(want), atol=1e-10)


@pytest.mark.parametrize("kind", ["real", "complex", "repeated"])
def test_fromroots_is_bitwise_numpy_polyfromroots(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for k in range(13):
        for _ in range(20):
            r = rng.normal(size=k)
            if kind != "real":
                r = r + 1j * rng.normal(size=k)
            if kind == "repeated" and k > 1:
                r[k // 2:] = r[0]
            want = np.polynomial.polynomial.polyfromroots(r)
            got = _fromroots(r)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(CPoly.from_roots(list(r), lead=0.5 - 0.25j).coeffs,
                                  (0.5 - 0.25j) * want)


def test_fromroots_of_other_dtypes_is_bitwise_numpy_polyfromroots():
    for r in ([3, -1, 2], np.array([0.5, -0.25, 2.0], dtype=np.float32), [1, 0.5j]):
        want = np.polynomial.polynomial.polyfromroots(r)
        got = _fromroots(r)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_roots_refuses_a_root_set_that_does_not_rebuild_the_polynomial(monkeypatch):
    p = CPoly.from_roots([0.4 + 0.1j, -0.8j, 1.7])
    good = roots(p)
    monkeypatch.setattr("spectralcurves.polyring._companion_roots", lambda desc: good + 1e-3)
    with pytest.raises(ResolutionError, match="root set not resolved: reconstruction residual"):
        roots(p)


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


def test_approx_gcd_of_zero_and_constant_inputs():
    # gcd(0, p) is p made monic, a constant shares no factor, and gcd(0, 0)
    # is refused
    p = CPoly.from_roots([0.3, 0.9j], lead=2.0 - 1.0j)
    zero = CPoly([0.0, 0.0])
    assert approx_gcd(zero, p) == approx_gcd(p, zero) == p.monic()
    assert approx_gcd(CPoly([3.0, 0.0]), p) == approx_gcd(p, CPoly([-2j])) == CPoly([1.0])
    assert approx_gcd(CPoly([2.0]), CPoly([3.0])) == CPoly([1.0])
    with pytest.raises(ValidationError, match="gcd of two zero polynomials is undefined"):
        approx_gcd(zero, CPoly([0.0]))


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
