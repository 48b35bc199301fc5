"""Isoperiodic tangents, flow integration, handle attachment."""

import dataclasses
import math

import numpy as np
import pytest

from spectralcurves import whitham
from spectralcurves.curve import build_curve
from spectralcurves.errors import InvariantError, ResolutionError, ValidationError
from spectralcurves.grassmann import plane_basis
from spectralcurves.invariants import GCD_TOL, _deflated_pair, classify, pencil_gcd
from spectralcurves.periods import PencilBasis, solve_Ba
from spectralcurves.polyring import CPoly, real_place, reality_check
from spectralcurves.whitham import (
    FlowAbort,
    _angular_logslope,
    _critical_angles,
    _der,
    _driver,
    _new_critical_pair,
    _rows,
    _slope_block,
    _times,
    attach_handle,
    bezout_solve,
    constant_Q_selector,
    flow,
    handle_invariant_check,
    rotation_selector,
    rotation_tangent,
    whitham_tangent,
)

from conftest import LOCUS_B, LOCUS_C, grow_to_genus3, random_curve, shared_plane

# reflection-real quadratic Q used by the generic-direction tests
Q_GENERIC = CPoly([0.4 + 0.25j, -0.3, 0.4 - 0.25j])


# a curve, a nearby one of the same genus, and one of genus 3 sharing its roots
HOST = build_curve([0.5, -0.3 + 0.4j])
FOREIGN = (build_curve([0.45, -0.3 + 0.35j]), build_curve([0.5, -0.3 + 0.4j, -0.4 - 0.3j]))


def tangent_scale(t):
    return max(1.0, t.a.norm_inf(), t.b1.norm_inf(), t.b2.norm_inf(),
               t.c1.norm_inf(), t.c2.norm_inf())


# ----------------------------------------------------------- directions


def test_rotation_tangent_is_machine_exact():
    for genus, seed in ((0, 0), (1, 51), (2, 52)):
        curve = build_curve([]) if genus == 0 else random_curve(genus, seed)
        basis = solve_Ba(curve)
        tan = rotation_tangent(curve, basis)
        res = tan.residuals()
        assert set(res) == {"pencil", "derivative1", "derivative2", "compatibility"}
        assert max(res.values()) < 1e-12 * tangent_scale(tan)
        # Q = 0 identically for the rigid rotation
        assert tan.Q.is_zero()


def test_rotation_tangent_formulas():
    curve = random_curve(2, 53)
    basis = solve_Ba(curve)
    tan = rotation_tangent(curve, basis)
    g = curve.genus
    expect = (curve.a.derivative().times_lambda() - curve.a * float(g)) * 1j
    assert np.allclose(tan.a_dot.coeffs, expect.coeffs, atol=1e-14)
    assert reality_check(tan.a_dot)[0]
    assert reality_check(tan.b1_dot)[0]


def test_generic_tangent_passes_all_residuals():
    for genus, seed in ((0, 59), (1, 54), (2, 55), (3, 60)):
        curve = random_curve(genus, seed)
        basis = solve_Ba(curve)
        tan = whitham_tangent(curve, basis, Q_GENERIC)
        res = tan.residuals()
        assert max(res.values()) < 1e-9 * tangent_scale(tan)
        assert reality_check(tan.a_dot)[0]


def test_tangent_gauge_fixes_rescaling():
    curve = random_curve(2, 56)
    tan = whitham_tangent(curve, solve_Ba(curve), Q_GENERIC)
    lead_a = complex(curve.a.coeffs[-1])
    lead_dot = complex(tan.a_dot.coeffs[-1])
    assert abs((np.conj(lead_a) * lead_dot).real) < 1e-9


def _hex(values):
    """float.hex of every real and imaginary part, signed zeros included."""
    return [float.hex(x) for x in np.asarray(values, dtype=complex).view(float).ravel()]


def _operator_form(tan):
    """The four residual polynomials and the two drivers, written with
    CPoly operators."""
    a = tan.a

    def driver(c):
        return ((a * c.derivative()).times_lambda() * 2.0 - a * c
                - (a.derivative() * c).times_lambda()) * 1j

    cross = tan.c1.derivative() * tan.c2 - tan.c2.derivative() * tan.c1
    residuals = {
        "pencil": tan.c1 * tan.b2 - tan.c2 * tan.b1 - tan.Q * a,
        "derivative1": a * tan.b1_dot * 2.0 - tan.a_dot * tan.b1 - driver(tan.c1),
        "derivative2": a * tan.b2_dot * 2.0 - tan.a_dot * tan.b2 - driver(tan.c2),
        "compatibility": (cross.times_lambda() * 1j + tan.c1 * tan.b2_dot
                          - tan.c2 * tan.b1_dot) * 2.0 - tan.a_dot * tan.Q,
    }
    return residuals, (driver(tan.c1), driver(tan.c2))


@pytest.mark.parametrize("genus", [0, 1, 2, 3])
def test_residuals_match_the_operator_form_bit_for_bit(genus):
    # genus 0: a is a constant, so a' is the degree-0 derivative [0]
    for seed in range(2):
        curve = random_curve(genus, 90 + seed)
        basis = solve_Ba(curve)
        g, half = curve.genus, (curve.genus + 1) / 2.0
        rot = rotation_tangent(curve, basis)
        assert _hex(rot.a_dot.coeffs) == _hex(
            ((curve.a.derivative().times_lambda() - curve.a * float(g)) * 1j).coeffs)
        for b, b_dot in ((basis.b1, rot.b1_dot), (basis.b2, rot.b2_dot)):
            assert _hex(b_dot.coeffs) == _hex(
                ((b.derivative().times_lambda() - b * half) * 1j).coeffs)
        for tan in (rot, whitham_tangent(curve, basis, Q_GENERIC)):
            want, drivers = _operator_form(tan)
            got = tan.residuals()
            assert list(got) == list(want)
            for key, poly in want.items():
                assert float.hex(got[key]) == float.hex(poly.norm_inf()), key
            a = tan.a.coeffs
            for c, drive in zip((tan.c1, tan.c2), drivers):
                assert _hex(_driver(a, _der(a), c.coeffs, _der(c.coeffs))) == _hex(drive.coeffs)


def _column_loop(p, degree, length):
    """Reference for _times: one unit CPoly per chart coordinate,
    multiplied through."""
    cols = [_rows(real_place(degree, e) * p, length) for e in np.eye(degree + 1)]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("genus", [0, 1, 2, 3, 4])
def test_times_matches_the_column_loop_bit_for_bit(genus):
    for seed in range(3):
        curve = random_curve(genus, 80 + seed)
        basis = solve_Ba(curve)
        for p in (curve.a, basis.b1, basis.b2):
            for degree in (genus + 1, 2 * genus):
                # the product's length, plus one zero-padded row
                length = len(p.coeffs) + degree + 1
                got = _times(p, degree, length)
                assert got.shape == (2 * length, degree + 1)
                assert np.array_equal(got, _column_loop(p, degree, length))


def test_bezout_identity():
    curve = random_curve(2, 57)
    basis = solve_Ba(curve)
    c1, c2 = bezout_solve(curve.a, basis.b1, basis.b2, Q_GENERIC)
    res = c1 * basis.b2 - c2 * basis.b1 - Q_GENERIC * curve.a
    assert res.norm_inf() < 1e-9 * max(1.0, curve.a.norm_inf())


def test_tangent_on_the_common_root_locus_needs_a_divisible_Q():
    # curve B shares a reflection pair: c1 b2 - c2 b1 vanishes there, so
    # Q a must too, and a does not
    curve = build_curve(LOCUS_B)
    basis = solve_Ba(curve)
    with pytest.raises(ValidationError, match="not divisible by the pencil gcd"):
        whitham_tangent(curve, basis, CPoly([0.1, 0.0, 0.1]))
    # the gcd itself, turned reversal-real, is divisible
    gcd = pencil_gcd(basis.b1, basis.b2)
    Q = gcd * complex(np.exp(-0.5j * np.angle(gcd.coeffs[0])))
    tan = whitham_tangent(curve, basis, Q)
    assert tan.scale() > 100.0
    assert max(tan.residuals().values()) <= 1e-13 * tan.scale()


def test_tangent_refuses_a_root_shared_by_a_and_the_pencil():
    # a pencil sharing the reflection pair of the curve's root 0.41 + 0.2i:
    # a, b1 and b2 vanish together there, so the tangent is not unique
    curve = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
    b1, b2 = plane_basis(shared_plane([], [0.41 + 0.2j], [0.2 - 0.3j]))
    basis = PencilBasis(curve, b1, b2, kernel_gap=math.nan)
    with pytest.raises(ValidationError, match="nonunique tangent: a, b1, b2 share the root"):
        whitham_tangent(curve, basis, Q_GENERIC)


@pytest.mark.parametrize("coeffs, message", [
    ([1.0, 2.0, 3.0], "not reversal-real"),
    ([np.nan, 0.0, np.nan], "non-finite coefficients"),
    ([1.0, 0.0, 0.0, 1.0], "formal degree at most 2"),
])
def test_constant_Q_selector_checks_Q_when_it_is_built(coeffs, message):
    with pytest.raises(ValidationError, match=message):
        constant_Q_selector(CPoly(coeffs))


# ----------------------------------------------------------------- flow


def test_rotation_flow_rotates_roots():
    curve = build_curve([0.5])
    recs = flow(curve, rotation_selector, dt=1e-2, steps=20)
    assert len(recs) == 21
    assert recs[0].t == 0.0
    t_end = recs[-1].t
    assert t_end == pytest.approx(0.2, rel=1e-12)
    expect = curve.eta[0] * np.exp(-1j * t_end)
    assert abs(recs[-1].curve.eta[0] - expect) < 1e-9


def test_flow_conserves_b_periods():
    curve = random_curve(2, 58)
    recs = flow(curve, rotation_selector, dt=1e-2, steps=10)
    drift = max(r.drift for r in recs[1:])
    assert drift < 1e-8
    # cumulative drift against the initial record, per cycle
    for key in ("periods_b1", "periods_b2"):
        first = getattr(recs[0], key)
        last = getattr(recs[-1], key)
        assert np.max(np.abs(last - first)) < 1e-8


def test_generic_flow_moves_moduli_isoperiodically():
    curve = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
    recs = flow(curve, constant_Q_selector(Q_GENERIC), dt=1e-2, steps=5)
    radial = np.max(np.abs(np.abs(np.asarray(recs[-1].curve.eta))
                           - np.abs(np.asarray(curve.eta))))
    assert radial > 1e-3  # genuinely deforms the moduli, not a rigid motion
    assert max(r.drift for r in recs[1:]) < 1e-7
    rep = classify(recs[-1].curve)
    assert rep.genus == curve.genus


@pytest.mark.parametrize("dt, steps", [
    (-1e-2, 5), (0.0, 5), (np.nan, 5), (np.inf, 5), (1e-2, 0), (1e-2, -3),
])
def test_flow_rejects_invalid_step_and_count(dt, steps):
    with pytest.raises(ValidationError, match="finite dt > 0 and steps >= 1"):
        flow(build_curve([0.5]), rotation_selector, dt=dt, steps=steps)


@pytest.mark.parametrize("steps", [1.5, 2.0, "3"])
def test_flow_refuses_a_steps_that_is_not_an_integer_before_any_work(steps, monkeypatch):
    # a steps of 1.5 would count down 1.5, 0.5, -0.5, ... and never reach 0
    def reached(*args, **kwargs):
        raise AssertionError("flow started work on steps=%r" % (steps,))

    monkeypatch.setattr(whitham, "solve_Ba", reached)
    with pytest.raises(ValidationError, match="steps >= 1, an integer"):
        flow(build_curve([0.5]), rotation_selector, dt=1e-3, steps=steps)


@pytest.mark.parametrize("dt, steps", [(True, 1), (1e-3, True), (np.True_, 1)])
def test_flow_refuses_a_bool_dt_or_steps_before_any_work(dt, steps, monkeypatch):
    # dt=True ran as dt 1.0 and steps=True as one step
    def reached(*args, **kwargs):
        raise AssertionError("flow started work on dt=%r, steps=%r" % (dt, steps))

    monkeypatch.setattr(whitham, "solve_Ba", reached)
    with pytest.raises(ValidationError, match="finite dt > 0 and steps >= 1"):
        flow(build_curve([0.5]), rotation_selector, dt=dt, steps=steps)


def test_flow_takes_a_numpy_integer_steps():
    recs = flow(build_curve([0.5]), rotation_selector, dt=1e-3, steps=np.int64(2))
    assert [r.t for r in recs] == pytest.approx([0.0, 1e-3, 2e-3])


@pytest.mark.parametrize("dt", [1e-16, 4e-16, 1e-9, 1e-3])
def test_flow_takes_every_step_asked_for(dt):
    # an absolute end test took no step at dt = 1e-16 and one at 4e-16
    curve = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
    recs = flow(curve, rotation_selector, dt=dt, steps=3)
    assert len(recs) == 4
    assert recs[-1].t == pytest.approx(3 * dt, rel=1e-12)
    assert all(r.t > prev.t for prev, r in zip(recs, recs[1:]))


@pytest.mark.parametrize("steps, builds", [(1, 4), (3, 12)])
def test_flow_builds_each_state_curve_once(monkeypatch, steps, builds):
    # one per stage k2, k3, k4 and one for the new state, whose curve is
    # also its next k1's; the first k1 runs on the input curve
    curve = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_curve(*args, **kwargs)

    monkeypatch.setattr(whitham, "build_curve", counting)
    assert len(flow(curve, rotation_selector, dt=1e-3, steps=steps)) == steps + 1
    assert len(calls) == builds


def test_flow_abort_carries_trajectory():
    # drive a root toward the unit circle until validation gives out
    curve = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
    strong = CPoly([0.4 + 0.25j, -0.3, 0.4 - 0.25j])
    with pytest.raises(FlowAbort) as exc_info:
        flow(curve, constant_Q_selector(strong), dt=2e-2, steps=40)
    trajectory = exc_info.value.trajectory
    assert len(trajectory) > 1
    assert trajectory[-1].t > 0.0
    # the aborted state is the near-degenerate one that broke the budget
    radii = np.abs(np.asarray(trajectory[-1].curve.eta))
    assert radii.max() > 0.95


# ----------------------------------------------------- handle attachment


def test_attach_handle_structure():
    curve = build_curve([0.5])
    basis = solve_Ba(curve)
    alpha = complex(np.exp(0.9j))
    h = attach_handle(curve, basis.b1, alpha, 1e-2)
    assert h.curve.genus == curve.genus + 1
    new = [e for e in h.curve.eta if min(abs(e - x) for x in curve.eta) > 1e-12]
    assert len(new) == 1
    assert new[0] == pytest.approx(alpha * np.exp(-1e-2), abs=1e-12)
    # normalization of the deformed pencil element at the origin
    want = -alpha * h.sqrt_alpha_bar * complex(basis.b1(0.0))
    assert complex(h.b_t(0.0)) == pytest.approx(want, abs=1e-9)
    assert reality_check(h.b_t)[0]
    # the handle curve's solved basis travels with it, bit for bit
    solved = solve_Ba(h.curve)
    assert (h.basis.b1, h.basis.b2) == (solved.b1, solved.b2)


def test_attach_handle_rejects_degenerate_parameters():
    curve = build_curve([0.5])
    b = solve_Ba(curve).b1
    with pytest.raises(ValidationError, match="nodal"):
        attach_handle(curve, b, complex(np.exp(0.9j)), 0.0)
    for t in (np.nan, np.inf, -1e-2):
        with pytest.raises(ValidationError, match="finite and positive"):
            attach_handle(curve, b, complex(np.exp(0.9j)), t)
    with pytest.raises(ValidationError, match="unit circle"):
        attach_handle(curve, b, 0.9 * np.exp(0.9j), 1e-2)
    for alpha in (complex(np.nan, np.nan), complex(np.nan, 0.0)):
        with pytest.raises(ValidationError, match="handle point must lie on the unit circle"):
            attach_handle(curve, b, alpha, 1e-2)


# ------------------------------------------- circle-map critical points


def _reference_slope_zeros(slope, grid):
    """Independent oracle for the critical points: scalar bisection, 80
    halvings of each sign-change interval of ``grid`` in turn."""
    def bisect(f, lo, hi, iters=80):
        flo = f(lo)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        return 0.5 * (lo + hi)

    v = slope(grid)
    return [bisect(lambda th: float(slope(np.array([th]))[0]), grid[i], grid[i + 1])
            for i in np.nonzero(np.signbit(v[:-1]) != np.signbit(v[1:]))[0]]


def _slope(pair):
    return lambda theta: _angular_logslope(_slope_block(*pair), theta)[0]


def _angle_mismatch(got, want):
    """Largest circular distance from an angle of either list to the
    nearest angle of the other; the lists must be equally long."""
    assert len(got) == len(want)
    if not len(got):
        return 0.0
    d = np.abs(np.angle(np.exp(1j * np.subtract.outer(got, want))))
    return max(d.min(axis=0).max(), d.min(axis=1).max())


def _six_call_slope(num, den, theta):
    """The slope with one polyval per polynomial of (num, num', num'', den,
    den', den'')."""
    lam = np.exp(1j * theta)
    n0, m0 = num(lam), den(lam)
    dn, dd = num.derivative(), den.derivative()
    ln, ld = dn(lam) / n0, dd(lam) / m0
    s = lam * (ln - ld)
    curv = lam * lam * (dn.derivative()(lam) / n0 - ln * ln
                        - dd.derivative()(lam) / m0 + ld * ld)
    return np.real(s), -np.imag(s + curv), np.abs(ln) + np.abs(ld)


def test_stacked_slope_matches_six_polyval_calls_bit_for_bit():
    # theta is an array: numpy's scalar complex arithmetic can round
    # differently from its array loops, whichever form the block takes
    pairs = [_deflated_pair(solve_Ba(random_curve(genus, 700 + genus)))
             for genus in (1, 2, 3)]
    # a degree-4 num against a degree-1 den (den'' = [0]) and a degree-0
    # one (den' = den'' = [0]): columns of every length from 1 to 5
    num = CPoly.from_roots([0.3 + 0.1j, 1.7 - 0.4j, -2.2j, 0.5])
    pairs += [(num, CPoly([0.4 - 0.2j, 1.1 + 0.3j])), (num, CPoly([2.0 - 1.0j]))]
    rng = np.random.default_rng(5)
    for num, den in pairs:
        block = _slope_block(num, den)
        assert block.shape == (max(len(num.coeffs), len(den.coeffs)), 6)
        for size in (1, 7, 33):
            theta = rng.uniform(-np.pi, np.pi, size)
            lam = np.exp(1j * theta)
            rows = np.polynomial.polynomial.polyval(lam, block)
            for row, p in zip(rows, (num, num.derivative(), num.derivative().derivative(),
                                     den, den.derivative(), den.derivative().derivative())):
                assert _hex(row) == _hex(p(lam))
            for got, want in zip(_angular_logslope(block, theta),
                                 _six_call_slope(num, den, theta)):
                assert _hex(got) == _hex(want)


def test_critical_angles_match_grid_bisection_on_random_bases():
    grid = np.linspace(-np.pi, np.pi, 16001)
    for genus in (1, 2, 3):
        for seed in range(4):
            pair = _deflated_pair(solve_Ba(random_curve(genus, 700 + seed)))
            got = _critical_angles(*pair)
            want = _reference_slope_zeros(_slope(pair), grid)
            assert len(got) == len(want) >= 2
            assert _angle_mismatch(got, want) <= 1e-12


def _clear_angle(curve):
    """The angle of S^1 farthest from every cut and every critical point
    of the curve's circle map."""
    marks = np.concatenate([_critical_angles(*_deflated_pair(solve_Ba(curve))),
                            curve.cut_angles])
    psi = np.linspace(-np.pi, np.pi, 721)
    dist = np.abs(np.angle(np.exp(1j * np.subtract.outer(psi, marks)))).min(axis=1)
    return float(psi[np.argmax(dist)])


@pytest.mark.parametrize("make_curve", [
    lambda: build_curve([0.41 + 0.2j, -0.33 - 0.41j]),
    lambda: grow_to_genus3((-1, 1)),
], ids=["readme-genus2", "genus3"])
def test_handle_check_splits_near_double_pair_at_small_t(make_curve):
    # at t = 1e-3 the new critical pair is about sqrt(2) t apart, a
    # near-double root of W
    curve, t = make_curve(), 1e-3
    psi = _clear_angle(curve)
    alpha = complex(np.exp(1j * psi))
    chk = handle_invariant_check(curve, alpha, t)
    assert chk.t == t
    assert chk.deg_f_after == chk.deg_f_before + 1
    assert chk.winding_after - chk.winding_before == -chk.sign_slope
    got = np.angle(np.asarray(chk.new_circle_critical_points))
    assert t < abs(np.angle(np.exp(1j * (got[1] - got[0])))) < 2.0 * t
    deformed = attach_handle(curve, None, alpha, t)
    want = [z for z in _reference_slope_zeros(
                _slope(_deflated_pair(deformed.basis)),
                psi + np.linspace(-0.05, 0.05, 20001))
            if abs(z - psi) < 10.0 * t]
    assert _angle_mismatch(got, want) <= 1e-11


def _poisson_pair(a):
    """(num, den) of the circle map whose angular slope is
    P_a - P_b - P_c - P_conj(c), P_z the Poisson kernel of the disc at z:
    num has the root a in the disc and the reflections of b, c, conj(c)."""
    b, c = 0.6, 0.5 * np.exp(1.2j)
    num = CPoly.from_roots([a, 1.0 / b, 1.0 / np.conj(c), 1.0 / c])
    return num, CPoly(np.conj(num.coeffs[::-1]))


def test_unresolvable_near_circle_pair_raises():
    # the slope is even in theta and largest at 0, where it vanishes when
    # P_a(0) = P_b(0) + 2 P_c(0): a double critical point at theta = 0
    def poisson0(z):
        return (1.0 - abs(z) ** 2) / abs(1.0 - z) ** 2

    x = poisson0(0.6) + 2.0 * poisson0(0.5 * np.exp(1.2j))
    a0 = (x - 1.0) / (x + 1.0)
    # within a few dozen ulps of a0 the pair is within rounding of a double
    # root, also at 20 ulps, where the computed slope does change sign twice
    for ulps in (-40, -1, 0, 1, 20):
        with pytest.raises(InvariantError, match="not resolved"):
            _critical_angles(*_poisson_pair(a0 + ulps * np.spacing(a0)))
    # a little larger, the pair splits along the circle and is returned
    pair = _poisson_pair(a0 + 1e-8)
    got = _critical_angles(*pair)
    want = _reference_slope_zeros(_slope(pair), np.linspace(-1e-3, 1e-3, 2001))
    assert len(want) == 2
    assert _angle_mismatch(got, want) <= 1e-11
    # a little smaller, it leaves the circle: no critical point at all
    pair = _poisson_pair(a0 - 1e-8)
    assert len(_critical_angles(*pair)) == 0
    assert _reference_slope_zeros(_slope(pair), np.linspace(-np.pi, np.pi, 16001)) == []


def test_critical_points_closer_than_their_errors_are_refused(monkeypatch):
    # the gap check behind the count: with the slope's rounding scale
    # inflated, every polished zero's error bound exceeds its gaps
    pair = _deflated_pair(solve_Ba(build_curve([0.5])))
    assert len(_critical_angles(*pair)) == 2
    real = _angular_logslope

    def inflated(block, theta):
        s, ds, scale = real(block, theta)
        return s, ds, 1e16 * scale

    monkeypatch.setattr(whitham, "_angular_logslope", inflated)
    with pytest.raises(InvariantError, match="not resolved"):
        _critical_angles(*pair)


def test_handle_check_classifies_its_base_curve_once(monkeypatch):
    # the base map's report, deflated pair and critical angles depend on
    # (basis, tol) alone, so a second alpha on one curve reuses them
    curve = build_curve([0.5])
    whitham._base_map.cache_clear()
    seen = []

    def counting_classify(c, *args, **kwargs):
        seen.append(c)
        return classify(c, *args, **kwargs)

    monkeypatch.setattr(whitham, "classify", counting_classify)
    checks = [handle_invariant_check(curve, complex(np.exp(1j * psi)), 1e-2)
              for psi in (0.9, 2.3)]
    assert sum(c == curve for c in seen) == 1
    assert len(seen) == 1 + len(checks)           # one deformed curve per alpha
    assert checks[0].winding_before == checks[1].winding_before


def test_slope_block_is_built_once_per_pair(monkeypatch):
    # the speed of the handle check rests on this: every slope evaluation
    # of a pair reads one block, never re-differentiating the pair
    curve = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
    num, den = _deflated_pair(solve_Ba(curve))
    base = (num, den, num.derivative(), den.derivative())
    calls = []
    derivative = CPoly.derivative

    def counting(p):
        calls.append(p)
        return derivative(p)

    monkeypatch.setattr(CPoly, "derivative", counting)
    _critical_angles(num, den)
    # W = num' den - num den' takes two, the block's num', num'', den', den'' four
    assert len(calls) == 6
    calls.clear()
    whitham._base_map.cache_clear()
    chk = handle_invariant_check(curve, complex(np.exp(0.9j)), 1e-2)
    assert chk.t == 1e-2
    # the base map's critical angles and the slope at alpha share one block
    assert sum(any(p == q for q in base) for p in calls) == 6


def test_handle_check_refuses_at_once_when_alpha_crowds_a_cut(monkeypatch):
    # alpha = e^{0.7i} is 1.5e-4 from cut 1 of this curve: every smaller t
    # only moves the new branch points toward alpha, so the first cut
    # layout refusal is final and keeps its own type
    curve = random_curve(2, 34)
    calls = []

    def counting_attach(*args, **kwargs):
        calls.append(args[3])
        return attach_handle(*args, **kwargs)

    monkeypatch.setattr(whitham, "attach_handle", counting_attach)
    with pytest.raises(ResolutionError, match="cut layout failed"):
        handle_invariant_check(curve, complex(np.exp(0.7j)), 1e-2)
    assert calls == [1e-2]


def test_handle_check_laws_on_one_triple():
    curve = build_curve([0.5])
    chk = handle_invariant_check(curve, complex(np.exp(0.9j)), 1e-2)
    assert chk.t == 1e-2  # law held at the requested size, no halving
    assert chk.deg_f_after == chk.deg_f_before + 1
    assert chk.winding_after - chk.winding_before == -chk.sign_slope
    assert abs(chk.sign_slope) == 1
    assert len(chk.new_circle_critical_points) == 2
    alpha = complex(np.exp(0.9j))
    for z in chk.new_circle_critical_points:
        assert abs(abs(z) - 1.0) < 1e-9
        assert abs(z - alpha) < 0.1


def test_handle_check_on_the_genus_zero_curve():
    # the base map lambda -> lambda has no critical point: the pair is new
    chk = handle_invariant_check(build_curve([]), complex(np.exp(0.9j)), 1e-2)
    assert (chk.t, chk.deg_f_before, chk.deg_f_after) == (1e-2, 1, 2)
    assert (chk.winding_before, chk.winding_after, chk.sign_slope) == (1, 0, 1)
    got = np.angle(np.asarray(chk.new_circle_critical_points))
    assert np.all(np.abs(got - 0.9) < 1e-2)


def test_handle_check_verifies_where_its_margin_is_wide():
    # at t = 0.1 the successor margin 0.05 + 2t is 0.25: the base critical
    # point 0.27 from alpha moves by 0.03, and the pair verifies at 0.1
    curve, psi, t = build_curve([0.5]), 0.2, 0.1
    chk = handle_invariant_check(curve, complex(np.exp(1j * psi)), t)
    assert chk.t == t
    assert (chk.deg_f_before, chk.deg_f_after) == (2, 3)
    deformed = attach_handle(curve, None, complex(np.exp(1j * psi)), t)
    zeros = _reference_slope_zeros(_slope(_deflated_pair(deformed.basis)),
                                   np.linspace(-np.pi, np.pi, 16001))
    assert len(zeros) == 4
    want = sorted(zeros, key=lambda z: abs(z - psi))[:2]
    got = np.angle(np.asarray(chk.new_circle_critical_points))
    assert _angle_mismatch(got, want) <= 1e-11


def _one_check_angles():
    """Base and deformed critical angles of build_curve([0.5]) with a
    handle at e^{0.9i}, t = 1e-2: (-0.427, -1.373) and (-0.427, -0.007,
    0.007, -1.373) as offsets from 0.9."""
    curve, psi, t = build_curve([0.5]), 0.9, 1e-2
    crit0 = _critical_angles(*_deflated_pair(solve_Ba(curve)))
    deformed = attach_handle(curve, None, complex(np.exp(1j * psi)), t)
    return crit0, _critical_angles(*_deflated_pair(deformed.basis)), psi, t


def test_third_law_takes_the_pair_nearest_alpha_and_refuses_broken_counts():
    crit0, crit1, psi, t = _one_check_angles()
    pair = _new_critical_pair(crit0, crit1, psi, t)
    assert sorted(abs(p - psi) for p in pair) == pytest.approx([0.00703, 0.00711], abs=1e-5)
    with pytest.raises(InvariantError, match="2 before and 3 after"):
        _new_critical_pair(crit0, crit1[1:], psi, t)
    # a successor moved past 0.05 + 2t = 0.07 is refused, one within it not
    far = np.argmin(np.abs(np.angle(np.exp(1j * (crit1 - (psi - 1.373))))))
    for move, ok in ((0.069, True), (0.071, False)):
        moved = crit1.copy()
        moved[far] -= move
        if ok:
            assert _new_critical_pair(crit0, moved, psi, t) == pair
        else:
            with pytest.raises(InvariantError, match="2 before and 4 after, the farthest 0.07"):
                _new_critical_pair(crit0, moved, psi, t)


def test_third_law_leaves_each_base_point_its_own_successor():
    # the base point at psi + t moved to psi + 0.9t: it is no half of the
    # new pair, though it lies nearer alpha than psi + 1.5t
    psi, t = 0.9, 1e-2
    pair = _new_critical_pair([psi + t], [psi - 0.5 * t, psi + 0.9 * t, psi + 1.5 * t], psi, t)
    assert sorted(pair) == pytest.approx([psi - 0.5 * t, psi + 1.5 * t], abs=1e-15)
    # two base points claiming one successor leave three unclaimed
    with pytest.raises(InvariantError, match="2 before and 4 after"):
        _new_critical_pair([psi + t, psi + 1.1 * t],
                           [psi - 0.5 * t, psi + 0.9 * t, psi + 1.5 * t, psi + 3 * t], psi, t)
    # and a new point farther than 0.05 + 2t from alpha is refused
    with pytest.raises(InvariantError, match="the farthest 0.08 away"):
        _new_critical_pair([psi + 1.0], [psi - 0.08, psi + 0.01, psi + 1.0], psi, t)


def test_handle_check_applies_the_third_law_to_its_own_counts(monkeypatch):
    # a deformed map that lost one critical point fails the third law at
    # the requested t, and the check goes on to halve t
    curve = build_curve([0.5])
    whitham._base_map.cache_clear()
    real_angles, real_pair, refused = _critical_angles, _new_critical_pair, []

    def losing_one(num, den, block=None):
        theta = real_angles(num, den, block)
        return theta if block is not None else theta[1:]    # the base map passes a block

    def spying(*args):
        try:
            return real_pair(*args)
        except InvariantError as exc:
            refused.append(str(exc))
            raise

    monkeypatch.setattr(whitham, "_critical_angles", losing_one)
    monkeypatch.setattr(whitham, "_new_critical_pair", spying)
    with pytest.raises((InvariantError, ResolutionError)):
        handle_invariant_check(curve, complex(np.exp(0.9j)), 1e-2)
    whitham._base_map.cache_clear()
    assert refused[0] == ("critical-point law failed: expected each base critical point "
                          "of the circle map to keep a successor of its own and two new "
                          "ones near alpha, all within 0.05 + 2t: 2 before and 3 after, "
                          "the farthest 0.42 away (t=0.01)")


def test_handle_near_the_common_root_stratum_collapses():
    # a whitham benchmark input (seed 95, op 1051): at t = 3e-3 the
    # deformed pencil is within gcd tolerance of a common root
    eta = [-0.16526390132706809 - 0.21011795351346307j,
           0.46555348358128235 - 0.5148181138842565j]
    alpha = complex(np.exp(-1.2372787010193307j))
    with pytest.raises(ResolutionError, match="common-root stratum at t=0.003"):
        handle_invariant_check(build_curve(eta), alpha, 3e-3)


@pytest.mark.parametrize("genus, seed, psi", [(2, 5, -0.0698), (3, 11, 1.6755)])
def test_stratum_refusal_after_halvings_names_the_law_failure(genus, seed, psi):
    # alpha this close to a base critical point fails the critical-point
    # law at every t until the deformed pencil meets the stratum: the
    # refusal carries that failure and does not advise a larger t
    with pytest.raises(ResolutionError) as info:
        handle_invariant_check(random_curve(genus, seed), complex(np.exp(1j * psi)), 0.1)
    message = str(info.value)
    assert "common-root stratum at t=0.0015625" in message
    assert "; last law failure: critical-point law failed" in message
    assert "larger handle parameter" not in message


def test_first_attempt_stratum_refusal_advises_a_larger_handle_parameter():
    eta = [-0.16526390132706809 - 0.21011795351346307j,
           0.46555348358128235 - 0.5148181138842565j]
    alpha = complex(np.exp(-1.2372787010193307j))
    with pytest.raises(ResolutionError) as info:
        handle_invariant_check(build_curve(eta), alpha, 3e-3)
    assert str(info.value).endswith(
        "(try a larger handle parameter or an alpha farther from the base "
        "map's critical points)")


def counting_attach(monkeypatch):
    calls = []
    real = whitham.attach_handle

    def counted(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(whitham, "attach_handle", counted)
    return calls


def test_handle_check_refuses_a_base_pencil_with_a_common_root():
    # curve C's pencil shares a root on S^1: its circle map has no handle laws
    with pytest.raises(ValidationError,
                       match=r"requires a coprime pencil \(gcd degree 0\), got 1"):
        handle_invariant_check(build_curve(LOCUS_C), complex(np.exp(0.3j)), 1e-2)


def test_handle_check_refuses_alpha_at_a_critical_point_of_the_base_map():
    curve = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
    crit = whitham._base_map(solve_Ba(curve), GCD_TOL)[2]
    with pytest.raises(ValidationError, match=r"alpha is \(numerically\) a critical point"):
        handle_invariant_check(curve, complex(np.exp(1j * crit[0])), 1e-2)


def test_handle_check_refuses_an_alpha_off_the_circle_at_once(monkeypatch):
    calls = counting_attach(monkeypatch)
    with pytest.raises(ValidationError, match="must lie on the unit circle"):
        handle_invariant_check(build_curve([0.5]), 1.01 * np.exp(0.9j), 1e-2)
    assert calls == [1e-2]


def test_handle_check_refuses_a_t_whose_law_window_covers_the_circle(monkeypatch):
    # from t = (pi - 0.05) / 2 the third law's window 0.05 + 2t is all of
    # S^1: such t are refused before any work; attach_handle takes them
    curve, alpha = build_curve([0.5]), complex(np.exp(0.9j))
    calls = counting_attach(monkeypatch)
    for t in (1.6, 3.0):
        with pytest.raises(ValidationError, match=r"needs 0.05 \+ 2t < pi, got t = %g$" % t):
            handle_invariant_check(curve, alpha, t)
    assert calls == []
    assert attach_handle(curve, None, alpha, 3.0).curve.genus == 2
    chk = handle_invariant_check(curve, alpha, 1.5)
    assert (chk.t, chk.deg_f_after) == (1.5 / 8, 3)


@pytest.mark.parametrize("t", [True, "0.01"])
def test_handle_parameter_that_is_not_a_real_number_is_refused(t, monkeypatch):
    # True was taken as t = 1.0, and a string parsed by float()
    curve, alpha = build_curve([0.5]), complex(np.exp(0.9j))
    with pytest.raises(ValidationError, match="handle parameter must be finite and positive"):
        attach_handle(curve, None, alpha, t=t)
    calls = counting_attach(monkeypatch)
    with pytest.raises(ValidationError, match="handle parameter must be finite and positive"):
        handle_invariant_check(curve, alpha, t)
    assert calls == []


@pytest.mark.parametrize("alpha", ["0.6+0.8j", True])
def test_handle_point_that_is_not_a_number_is_refused(alpha, monkeypatch):
    # "0.6+0.8j" was parsed by complex(), True taken as alpha = 1
    curve = build_curve([0.5, -0.3 + 0.4j])
    with pytest.raises(ValidationError, match="handle point must be a number"):
        attach_handle(curve, None, alpha, 1e-2)
    calls = counting_attach(monkeypatch)
    with pytest.raises(ValidationError, match="handle point must be a number"):
        handle_invariant_check(curve, alpha, 1e-2)
    assert calls == []


def test_handle_check_keeps_the_type_of_a_resolution_error(monkeypatch):
    # only a failed law halves t: a refusal of the deformed curve's
    # classification propagates from the first attempt
    curve = build_curve([0.5])
    handle_invariant_check(curve, complex(np.exp(0.9j)), 1e-2)     # base map cached
    calls = counting_attach(monkeypatch)

    def refusing(curve, basis=None, tol=None):
        raise ResolutionError("winding not resolved; refine or deflate gcd")

    monkeypatch.setattr(whitham, "classify", refusing)
    with pytest.raises(ResolutionError, match="winding not resolved"):
        handle_invariant_check(curve, complex(np.exp(0.9j)), 1e-2)
    assert calls == [1e-2]


def test_handle_check_raises_the_last_failed_law_after_twelve_halvings(monkeypatch):
    calls = counting_attach(monkeypatch)

    def refusing(crit0, crit1, psi, t_used):
        raise InvariantError("refused at t=%g" % t_used)

    monkeypatch.setattr(whitham, "_new_critical_pair", refusing)
    # from t = 1.5 the last attempt, 1.5 / 2^11, stays clear of the stratum
    with pytest.raises(InvariantError, match="not verified down to t=0.000732422: "
                                             "refused at t=0.000732422"):
        handle_invariant_check(build_curve([0.5]), complex(np.exp(0.9j)), 1.5)
    assert calls == [1.5 * 0.5 ** k for k in range(12)]


def test_flow_solves_accepted_states_and_retries_without_k1(monkeypatch):
    # the aborting flow above: a retried step reuses its state's k1, and
    # only accepted states (and the initial one) get a solved basis
    curve = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
    select = constant_Q_selector(CPoly([0.4 + 0.25j, -0.3, 0.4 - 0.25j]))
    seen, solved = [], []

    def counting_select(c, basis):
        seen.append(c)
        return select(c, basis)

    def counting_solve(c, quad=None):
        solved.append(c)
        return solve_Ba(c, quad=quad)

    monkeypatch.setattr(whitham, "solve_Ba", counting_solve)
    with pytest.raises(FlowAbort) as exc_info:
        flow(curve, counting_select, dt=2e-2, steps=40)
    trajectory = exc_info.value.trajectory
    assert [sum(c is r.curve for c in seen) for r in trajectory] == [1] * len(trajectory)
    # every other selector call is one of three stages of an attempt
    attempts = (len(seen) - len(trajectory)) // 3
    assert len(seen) == len(trajectory) + 3 * attempts
    assert attempts == len(trajectory) - 1 + 9        # accepted, then 9 rejected
    assert [c is r.curve for c, r in zip(solved, trajectory)] == [True] * len(trajectory)
    assert len(solved) == len(trajectory)


# ------------------------------------------------------------ tangent and Bezout refusals


def test_tangent_check_refuses_a_perturbed_a_dot():
    curve = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
    tan = whitham_tangent(curve, solve_Ba(curve), Q_GENERIC)
    tan.check()
    bad = dataclasses.replace(tan, a_dot=tan.a_dot + CPoly([1e-3]))
    with pytest.raises(ResolutionError, match="tangent residuals exceed 1e-09 relative"):
        bad.check()


def test_bezout_solve_refuses_an_inconsistent_solution(monkeypatch):
    # a least-squares solution moved off the solution set by fault injection
    curve = build_curve([0.5])
    basis = solve_Ba(curve)
    monkeypatch.setattr(whitham, "real_place", lambda d, x: real_place(d, np.asarray(x) + 0.5))
    with pytest.raises(ResolutionError, match="pencil relation inconsistent"):
        bezout_solve(curve.a, basis.b1, basis.b2, Q_GENERIC)


@pytest.mark.parametrize("other", FOREIGN, ids=["genus 2", "genus 3"])
def test_whitham_tangent_refuses_a_basis_of_another_curve(other):
    # it returned a tangent for the neighbour's basis, and the genus-3 one
    # ended in "pencil relation inconsistent" (exit 3)
    with pytest.raises(ValidationError, match="basis belongs to another curve"):
        whitham_tangent(HOST, solve_Ba(other), [0.1, 0.05, 0.1])
    # an equal curve built apart is the same curve
    same = dataclasses.replace(solve_Ba(HOST), curve=build_curve([0.5, -0.3 + 0.4j]))
    assert same.curve is not HOST and same.curve == HOST
    whitham_tangent(HOST, same, [0.1, 0.05, 0.1]).check()


@pytest.mark.parametrize("other", FOREIGN, ids=["genus 2", "genus 3"])
def test_rotation_tangent_refuses_a_basis_of_another_curve(other):
    with pytest.raises(ValidationError, match="basis belongs to another curve"):
        rotation_tangent(HOST, solve_Ba(other))
