"""Isoperiodic tangents, flow integration, handle attachment."""

import numpy as np
import pytest

from spectralcurves.curve import build_curve
from spectralcurves.errors import InvariantError, ValidationError
from spectralcurves.invariants import _deflated_pair, classify
from spectralcurves.periods import solve_Ba
from spectralcurves.polyring import CPoly, real_place, reality_check
from spectralcurves.whitham import (
    FlowAbort,
    _angular_logslope,
    _critical_angles,
    _rows,
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

from conftest import grow_to_genus3, random_curve

# reflection-real quadratic Q used by the generic-direction tests
Q_GENERIC = CPoly([0.4 + 0.25j, -0.3, 0.4 - 0.25j])


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
    return lambda theta: _angular_logslope(*pair, theta)[0]


def _angle_mismatch(got, want):
    """Largest circular distance from an angle of either list to the
    nearest angle of the other; the lists must be equally long."""
    assert len(got) == len(want)
    if not len(got):
        return 0.0
    d = np.abs(np.angle(np.exp(1j * np.subtract.outer(got, want))))
    return max(d.min(axis=0).max(), d.min(axis=1).max())


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
