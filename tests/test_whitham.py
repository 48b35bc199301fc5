"""Isoperiodic tangents, flow integration, handle attachment."""

import numpy as np
import pytest

from spectralcurves import whitham
from spectralcurves.curve import build_curve
from spectralcurves.errors import ValidationError
from spectralcurves.invariants import classify
from spectralcurves.periods import b_periods, solve_Ba
from spectralcurves.polyring import CPoly, reality_check
from spectralcurves.whitham import (
    FlowAbort,
    _angular_logslope,
    _slope_zeros,
    attach_handle,
    bezout_solve,
    constant_Q_selector,
    flow,
    handle_invariant_check,
    rotation_selector,
    rotation_tangent,
    whitham_tangent,
)

from conftest import random_curve

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
    for genus, seed in ((1, 54), (2, 55)):
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


def test_attach_handle_rejects_degenerate_parameters():
    curve = build_curve([0.5])
    b = solve_Ba(curve).b1
    with pytest.raises(ValidationError, match="nodal"):
        attach_handle(curve, b, complex(np.exp(0.9j)), 0.0)
    with pytest.raises(ValidationError, match="unit circle"):
        attach_handle(curve, b, 0.9 * np.exp(0.9j), 1e-2)


# --------------------------------------------- critical-point bisection


def _reference_slope_zeros(slope, grid):
    """The scalar bisection _slope_zeros replaced: 80 halvings of each
    sign-change interval in turn, one point per slope call."""
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


def _counted(slope):
    def f(theta):
        f.calls += 1
        return slope(theta)
    f.calls = 0
    return f


def _assert_matches_reference(slope, grid):
    f = _counted(slope)
    got = _slope_zeros(f, grid)
    assert f.calls <= 81
    assert got == _reference_slope_zeros(slope, grid)
    return got


def test_slope_zeros_equal_scalar_bisection_on_random_bases():
    full = np.linspace(-np.pi, np.pi, 4001)
    for genus in (1, 2, 3):
        for seed in range(3):
            slope = _angular_logslope(solve_Ba(random_curve(genus, 700 + seed)))
            zeros = _assert_matches_reference(slope, full)
            assert zeros
            # the only sign change of this grid is in its last interval
            z = zeros[0]
            last = np.append(np.linspace(z - 1e-2, z - 1e-3, 100), z + 1e-3)
            assert len(_assert_matches_reference(slope, last)) == 1
            # no sign change: a short window where |slope| peaks
            top = full[np.argmax(np.abs(slope(full)))]
            quiet = np.linspace(top - 1e-3, top + 1e-3, 101)
            assert _assert_matches_reference(slope, quiet) == []


def test_slope_zeros_bisect_all_brackets_in_81_calls():
    grid = np.linspace(-np.pi, np.pi, 3001)
    zeros = _assert_matches_reference(lambda th: np.sin(40.0 * th + 0.1), grid)
    assert len(zeros) == 80


def test_slope_zeros_equal_scalar_bisection_in_handle_check(monkeypatch):
    seen = []

    def recording(slope, grid):
        seen.append((slope, grid))
        return _slope_zeros(slope, grid)

    monkeypatch.setattr(whitham, "_slope_zeros", recording)
    chk = handle_invariant_check(random_curve(2, 52), complex(np.exp(0.9j)), 1e-2)
    assert len(chk.new_circle_critical_points) == 2
    assert len(seen) >= 2 and all(len(grid) > 8001 for _, grid in seen)
    for slope, grid in seen:
        _assert_matches_reference(slope, grid)


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
