"""Period engine: kernel solve, independent quadrature oracles, sym map."""

import functools
import logging
import math
import re
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from spectralcurves import periods
from spectralcurves.curve import build_curve, homology_cycles
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
from spectralcurves.polyring import (CPoly, _chart_units, real_coords, real_place_coeffs,
                                     reality_check, symmetrize_reality)
from spectralcurves.whitham import attach_handle

from conftest import random_curve
from sheets import a_loop, continue_sqrt, gamma_path, y_along

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
    loop = a_loop(homology_cycles(curve), j)
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
        solve_Ba(CURVE_G2, quad=QuadConfig(nodes=8, tol=1e-300))


@pytest.mark.parametrize("kwargs", [
    {"nodes": 0}, {"nodes": -4}, {"nodes": 8.0}, {"tol": 0.0}, {"tol": -1.0},
    {"tol": float("nan")}, {"tol": float("inf")},
])
def test_quad_config_refuses_bad_settings(kwargs):
    with pytest.raises(ValidationError, match="quadrature needs"):
        QuadConfig(**kwargs)


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


# ------------------------------------------------- stacked A-cycle levels

# A genus-3 curve whose branch point 0.7 e^{0.0043i} sits 3.0e-3 from cut
# 0, the segment [0.5, 2]; cuts 1 and 2 see no crowding.
CURVE_CROWDED = build_curve([0.5, 0.7 * np.exp(0.0043j), 0.6 * np.exp(2.5j)])


def gauss_chebyshev_a_moments(curve, j, n):
    """Moments of A_j by the n-point Gauss-Chebyshev rule, one cycle on its
    own: the smooth factor as a root product, each root the sign of the
    principal root nearer the previous one (from the principal root at the
    outer end of the cut), powers by ``**`` and each sum by math.fsum."""
    eta, part = curve.eta[j], curve.partners[j]
    others = [z for k, z in enumerate(curve.branch_points) if k % curve.genus != j]

    def smooth(z):
        return curve.lead * z * np.prod([z - r for r in others], axis=0)

    x = np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))
    lam = eta + (part - eta) * (x + 1.0) / 2.0
    y, prev = np.sqrt(smooth(lam)), np.sqrt(smooth(part))
    for i in range(n):
        if (y[i] * np.conj(prev)).real < 0:
            y[i] = -y[i]
        prev = y[i]
    sums = [lam ** (k - 1.0) / y for k in range(curve.genus + 2)]
    return np.array([-2j * (np.pi / n) * complex(math.fsum(t.real), math.fsum(t.imag))
                     for t in sums])


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_coarse_estimate_is_the_independent_n_point_rule():
    # the n-point nodes are every third 3n-point node from index 1, so one
    # pass gives both estimates of a comparison
    for curve, levels in ((CURVE_G2, (64, 192)), (random_curve(3, 15), (64, 192)),
                          (CURVE_CROWDED, (576,))):
        eng = periods.PeriodEngine(curve, periods.DEFAULT_QUAD)
        for n in levels:
            coarse, fine, ok = eng._a_level(np.arange(curve.genus), n)
            assert ok.all()
            for j in range(curve.genus):
                assert _rel(coarse[j], gauss_chebyshev_a_moments(curve, j, n)) <= 1e-15
                assert _rel(fine[j], gauss_chebyshev_a_moments(curve, j, 3 * n)) <= 1e-15


def test_crowded_cycle_triples_alone():
    eng = periods.PeriodEngine(CURVE_CROWDED, periods.DEFAULT_QUAD)
    levels = []
    real = eng._a_level
    eng._a_level = lambda todo, n: levels.append(list(todo)) or real(todo, n)
    moments = eng.a_matrix()
    assert levels[0] == [0, 1, 2] and len(levels) >= 2
    assert all(todo == [0] for todo in levels[1:])
    assert eng.a_nodes[0] >= 576 and list(eng.a_nodes[1:]) == [192, 192]
    for j, n in enumerate(eng.a_nodes):
        assert _rel(moments[j], gauss_chebyshev_a_moments(CURVE_CROWDED, j, n)) <= 1e-14


def test_tracking_failure_holds_back_only_its_own_cycle(monkeypatch):
    # a cycle whose square root cannot be tracked at one level goes on to
    # the next; the others are settled by that same pass
    real = periods.track_sqrt
    passes = []

    def failing_first_row_once(values):
        root, ok = real(values)
        if not passes:
            ok[0] = False
        passes.append(len(ok))
        return root, ok

    monkeypatch.setattr(periods, "track_sqrt", failing_first_row_once)
    eng = periods.PeriodEngine(CURVE_G2, periods.DEFAULT_QUAD)
    moments = eng.a_matrix()
    assert passes == [2, 1] and list(eng.a_nodes) == [576, 192]
    for j, n in enumerate(eng.a_nodes):
        assert _rel(moments[j], gauss_chebyshev_a_moments(CURVE_G2, j, n)) <= 1e-14


def test_unreachable_tolerance_names_the_a_cycle_without_warning():
    eng = periods.PeriodEngine(CURVE_G2, QuadConfig(tol=1e-300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResolutionError, match=r"quadrature .* cycle \('A', 0\)"):
            eng.a_matrix()


def test_scan_op_on_a_clear_curve_takes_one_a_pass(monkeypatch):
    # what a scan op asks of the A-cycles -- the solve, its classification,
    # the plane and a period check -- is one stacked pass on a curve whose
    # branch points keep clear of the cuts
    from spectralcurves.grassmann import B_map
    from spectralcurves.invariants import classify

    curve = build_curve([0.45, 0.5 * np.exp(1.6j), 0.55 * np.exp(3.1j), 0.4 * np.exp(4.7j)])
    periods._engine.cache_clear()
    real = periods.PeriodEngine._a_level
    passes = []
    monkeypatch.setattr(periods.PeriodEngine, "_a_level",
                        lambda self, todo, n: passes.append(n) or real(self, todo, n))
    basis = solve_Ba(curve)
    classify(curve, basis)
    B_map(curve)
    assert np.max(np.abs(a_periods(curve, basis.b2))) < 1e-9
    assert passes == [64]


# ------------------------------------------ stacked B and gamma lassos


def _fsum(values):
    return complex(math.fsum(values.real), math.fsum(values.imag))


def gauss_lasso_moments(curve, key, n):
    """Moments of the lasso ``key`` (('B', j) or ('gamma', lambda0)) at n
    leg points, one cycle on its own: the engine's Gauss rules, the root
    continued by the running product of ``sheets.continue_sqrt`` (the
    circle's from the leg's end value), powers by ``**`` and each sum by
    math.fsum."""
    hom = homology_cycles(curve)
    kind, where = key
    if kind == "B":
        start, target = hom.b_leg(where)
        angle = hom.leg_angles[where]
        others = [z for k, z in enumerate(curve.branch_points) if k != where]

        def sq(z):     # lambda * a / (lambda - eta_j) as a root product
            return curve.lead * z * np.prod([z - r for r in others], axis=0)

        x, w = _gauss_rule("jacobi", n)
        jac, y_scale = np.sqrt((target - start) / 2.0), np.sqrt(target - start)
    else:
        start, target = hom.gamma_leg(where)
        angle = float(np.angle(target))

        def sq(z):
            return z * curve.a(z)

        x, w = _gauss_rule("legendre", n)
        jac, y_scale = (target - start) / 2.0, 1.0
    lam = start + (target - start) * (x + 1.0) / 2.0
    path = np.concatenate([[start], lam, [target]])
    root = continue_sqrt(sq(path), np.sqrt(sq(start)))
    leg = [jac * _fsum(w * lam ** (k - 1.0) / root[1:-1]) for k in range(curve.genus + 2)]
    xc, wc = _gauss_rule("legendre", max(n, 64))
    theta = angle + np.pi * (np.concatenate([[-1.0], xc]) + 1.0)
    u = continue_sqrt(curve.r0 * curve.a(curve.r0 * np.exp(1j * theta)),
                      y_scale * root[-1] * np.exp(-0.5j * angle))[1:]
    theta = theta[1:]
    circle = [1j * np.pi * _fsum(wc * curve.r0 ** k * np.exp(1j * (k - 0.5) * theta) / u)
              for k in range(curve.genus + 2)]
    return 2.0 * np.array(leg) + np.array(circle)


def _refine_nodes(monkeypatch):
    """Record the keys and accepted rule sizes of every refinement."""
    real = periods.PeriodEngine._refine
    sizes = {}

    def recording(self, keys, level, size, grow):
        out, nodes = real(self, keys, level, size, grow)
        sizes.update(zip(keys, nodes.tolist()))
        return out, nodes

    monkeypatch.setattr(periods.PeriodEngine, "_refine", recording)
    return sizes


@pytest.mark.parametrize("genus, seed", [(1, 3), (2, 14), (3, 15), (2, 7), (3, 8)])
def test_lasso_rows_match_independent_per_cycle_rules(monkeypatch, genus, seed):
    curve = random_curve(genus, seed)
    lam0 = complex(np.exp(1j * (np.pi + curve.cut_angles[0])))
    sizes = _refine_nodes(monkeypatch)
    eng = periods.PeriodEngine(curve, periods.DEFAULT_QUAD)
    b_rows, gamma_row = eng.b_matrix(), eng.gamma_moments(lam0)
    assert list(eng.b_nodes) == [sizes[("B", j)] for j in range(genus)]
    for j in range(genus):
        want = gauss_lasso_moments(curve, ("B", j), sizes[("B", j)])
        assert _rel(b_rows[j], want) <= 1e-13
    want = gauss_lasso_moments(curve, ("gamma", lam0), sizes[("gamma", lam0)])
    assert _rel(gamma_row, want) <= 1e-13


def _counting_lasso_passes(monkeypatch):
    """Record (rule, rows, leg points of the finer rule) of every lasso pass,
    from an empty engine memo."""
    periods._engine.cache_clear()
    real = periods.PeriodEngine._lasso
    passes = []

    def counted(self, todo, n, ends, kind):
        passes.append((kind, len(todo), n))
        return real(self, todo, n, ends, kind)

    monkeypatch.setattr(periods.PeriodEngine, "_lasso", counted)
    return passes


@pytest.mark.parametrize("fault", ["untracked", "unmatched"])
def test_lasso_tracking_failure_holds_back_only_its_own_row(monkeypatch, fault):
    # the first leg pass, which holds both first rules, cannot track B_0's
    # 64-point leg, or ends it off the value the circle continues; B_1
    # still settles at 128 points, and B_0, with no estimate at 64,
    # compares 128 with 256
    real = periods.track_sqrt
    failed = []

    def failing_first_row_once(values):
        root, ok = real(values)
        if not failed:
            if fault == "untracked":
                ok[0, 0] = False
            else:
                root[0, 0, -1] *= 1.01
            failed.append(ok.shape)
        return root, ok

    passes = _counting_lasso_passes(monkeypatch)
    monkeypatch.setattr(periods, "track_sqrt", failing_first_row_once)
    eng = periods.PeriodEngine(CURVE_G2, periods.DEFAULT_QUAD)
    rows = eng.b_matrix()
    assert failed == [(2, 2)] and passes == [("jacobi", 2, 128), ("jacobi", 1, 256)]
    assert list(eng.b_nodes) == [256, 128]
    for j, n in enumerate(eng.b_nodes):
        assert _rel(rows[j], gauss_lasso_moments(CURVE_G2, ("B", j), n)) <= 1e-13


def test_unreachable_tolerance_names_the_lasso():
    eng = periods.PeriodEngine(CURVE_G2, QuadConfig(nodes=8, tol=1e-300))
    with pytest.raises(ResolutionError, match=r"quadrature .* cycle \('B', 0\)"):
        eng.b_matrix()
    lam0 = complex(np.exp(2.1j))
    with pytest.raises(ResolutionError, match=re.escape("cycle %s" % (("gamma", lam0),))):
        eng.gamma_moments(lam0)


def test_unreachable_tolerance_is_refused_once_the_change_stops_falling(monkeypatch):
    # at the default 64 nodes, cold rules: the B-rows reach the rounding
    # floor by 256 points and stop falling, so no rule past 1024 is built
    built = []

    def counting_rule(kind, n):
        built.append(n)
        return _gauss_rule(kind, n)

    _gauss_rule.cache_clear()
    monkeypatch.setattr(periods, "_gauss_rule", counting_rule)
    eng = periods.PeriodEngine(CURVE_G2, QuadConfig(tol=1e-300))
    t0 = time.perf_counter()
    with pytest.raises(ResolutionError, match=r"cycle \('B', \d\) within 1024 nodes"):
        eng.b_matrix()
    assert time.perf_counter() - t0 < 0.5
    assert max(built) == 1024


def test_gamma_clearance_is_refused_before_any_quadrature(monkeypatch):
    monkeypatch.setattr(periods, "_gauss_rule", None)
    eng = periods.PeriodEngine(CURVE_G1, periods.DEFAULT_QUAD)
    with pytest.raises(ValidationError, match="collides"):
        eng.gamma_moments(1.0)


def test_phi_map_on_a_clear_curve_stacks_the_b_rows(monkeypatch):
    curve = build_curve([0.45, 0.5 * np.exp(2.1j), 0.55 * np.exp(-2.2j)])
    basis = solve_Ba(curve)
    passes = _counting_lasso_passes(monkeypatch)
    phi_map(curve, basis, complex(np.exp(1.0j)))
    assert passes == [("jacobi", 3, 128), ("legendre", 1, 128)]


def test_flow_step_takes_one_b_pass_per_level_for_each_curve(monkeypatch):
    from spectralcurves.whitham import flow, rotation_selector

    passes = _counting_lasso_passes(monkeypatch)
    records = flow(CURVE_G2, rotation_selector, dt=1e-3, steps=1)
    assert len(records) == 2
    assert passes == [("jacobi", 2, 128)] * 2


def _lasso_ends(eng, kind):
    """``ends`` as b_matrix gives them ("jacobi": every B-lasso) or as
    gamma_moments does ("legendre": gamma(e^{2.1i}))."""
    if kind == "jacobi":
        return np.array([eng.homology.b_leg(j) for j in range(eng.curve.genus)],
                        dtype=complex).T[..., None]
    return np.array(eng.homology.gamma_leg(complex(np.exp(2.1j))))[:, None, None]


def _bits(x):
    """Equal for two outputs exactly when their bits are: arrays by dtype,
    shape and bytes, a refusal by its message."""
    if isinstance(x, (tuple, list)):
        return [_bits(v) for v in x]
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    return x


def _refined(eng, level, size, keys):
    try:
        return _bits(eng._refine(keys, level, size, 2))
    except ResolutionError as exc:
        return str(exc)


def _one_rule_a_pass(eng, ends, kind):
    """The level of the previous layout, one pass a rule from the n-point
    rule on: ``_lasso`` of an engine at 3n nodes, whose fused pass (at 6n)
    no doubling of n reaches."""
    quad = QuadConfig(nodes=3 * eng.quad.nodes, tol=eng.quad.tol)
    return functools.partial(periods.PeriodEngine(eng.curve, quad)._lasso, ends=ends, kind=kind)


@pytest.mark.parametrize("kind", ["jacobi", "legendre"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 48, 50, 64, 100, 256])
def test_fused_first_lasso_level_is_two_separate_passes(n, kind):
    # one pass holds the n- and 2n-point rules, the shorter padded by its
    # last node: each rule's moments and flags keep the bits of its own pass
    eng = periods.PeriodEngine(CURVE_G2, QuadConfig(nodes=n))
    ends = _lasso_ends(eng, kind)
    todo = np.arange(ends.shape[1])
    apart = _one_rule_a_pass(eng, ends, kind)
    got = eng._lasso(todo, 2 * n, ends, kind)
    assert got[0] is not None and got[2].shape == (2, len(todo)) and got[2].all()
    coarse, fine = apart(todo, n), apart(todo, 2 * n)
    assert _bits(got) == _bits((coarse[1], fine[1], np.stack([coarse[2], fine[2]])))
    assert _bits(apart(todo, 4 * n)) == _bits(eng._lasso(todo, 4 * n, ends, kind))
    # and so the refinement, its refusals included, and b_nodes
    keys = [(kind, j) for j in todo]
    fused = functools.partial(eng._lasso, ends=ends, kind=kind)
    want = _refined(eng, apart, n, keys)
    assert _refined(eng, fused, 2 * n, keys) == want
    if kind == "jacobi" and not isinstance(want, str):
        assert _bits([eng.b_matrix(), eng.b_nodes]) == want


@pytest.mark.parametrize("fault", ["coarse", "fine", "both"])
def test_fused_first_level_keeps_each_rules_tracking_failure(monkeypatch, fault):
    # B_0's 64-point rule, its 128-point rule or both fail to track in the
    # fused pass: B_0 then compares 128 with 256 (no estimate at 64) or 256
    # with 512 (none at 128), as with one pass a rule, and B_1 settles at 128
    failing = {"coarse": [0], "fine": [1], "both": [0, 1]}[fault]
    real, calls = periods.track_sqrt, []

    def failing_b0(plan):
        def track(values):
            root, ok = real(values)
            for rule in plan.get(len(calls), ()):
                ok[rule, 0] = False
            calls.append(ok.shape)
            return root, ok
        return track

    eng = periods.PeriodEngine(CURVE_G2, periods.DEFAULT_QUAD)
    ends, keys = _lasso_ends(eng, "jacobi"), [("B", 0), ("B", 1)]
    # the one-pass layout tracks each leg in its pass's first call of two
    monkeypatch.setattr(periods, "track_sqrt", failing_b0({2 * r: [0] for r in failing}))
    want = _refined(eng, _one_rule_a_pass(eng, ends, "jacobi"), 64, keys)
    calls.clear()
    monkeypatch.setattr(periods, "track_sqrt", failing_b0({0: failing}))
    assert _refined(eng, functools.partial(eng._lasso, ends=ends, kind="jacobi"), 128,
                    keys) == want
    assert calls[0] == (2, 2)
    assert want[1] == _bits(np.array([256 if fault == "coarse" else 512, 128]))


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


def test_derived_pencil_needs_no_rescale_on_graph_form_bases():
    # derived_pencil takes b2 - i b1 as it is: graph form makes its top
    # coefficient -2i exactly, on solved and on handle bases alike
    bases = [solve_Ba(random_curve(g, s)) for g in range(5) for s in range(3)]
    bases += [attach_handle(random_curve(g, s), None, np.exp(1j * psi), t).basis
              for g, s in ((1, 0), (2, 1)) for t in (1e-2, 1e-3) for psi in (0.9, 2.0, -2.5)]
    for basis in bases:
        dp = derived_pencil(basis)
        assert dp.b0.coeffs[-1] == -2j
        assert dp.b0 == basis.b2 + basis.b1 * (-1j)
        assert dp.binf == CPoly(np.conj(dp.b0.coeffs[::-1]))


# ------------------------------------------------------------ sym and phi


def test_sym_matches_simpson_on_same_detour():
    curve = CURVE_G2
    hom = homology_cycles(curve)
    lam0 = complex(np.exp(2.1j))
    b = probe(curve, [0.3 - 0.2j, 0.0, 0.0, 0.0])
    s = sym_integral(curve, b, lam0)
    o = simpson_loop_integral(curve, b, gamma_path(hom, lam0))
    assert min(abs(s - o), abs(s + o)) < 1e-8


def test_phi_map_rows_are_real_and_frozen_value():
    basis = solve_Ba(CURVE_G1)
    mat = phi_map(CURVE_G1, basis, complex(np.exp(1j * np.pi)))
    assert mat.shape == (2, 2)
    assert np.allclose(mat, [[-1.31157273, 0.0], [0.0, 1.35047447]], atol=1e-6)


@pytest.mark.parametrize("roots", [[0.45, -0.3 + 0.35j], [0.5, -0.3 + 0.4j, -0.4 - 0.3j]],
                         ids=["genus 2", "genus 3"])
def test_phi_map_refuses_a_basis_of_another_curve(roots):
    # the genus-2 neighbour's basis ended in an imaginary residue (exit 3)
    curve = build_curve([0.5, -0.3 + 0.4j])
    with pytest.raises(ValidationError, match="basis belongs to another curve"):
        phi_map(curve, solve_Ba(build_curve(roots)), 1j)


def test_phi_map_shape_grows_with_genus():
    basis = solve_Ba(CURVE_G2)
    mat = phi_map(CURVE_G2, basis, complex(np.exp(2.1j)))
    assert mat.shape == (2, 3)


@pytest.mark.parametrize("lam0", ["-1", True])
def test_gamma_base_point_that_is_not_a_number_is_refused(lam0):
    # "-1" was parsed by complex(), True taken as lambda0 = 1
    basis = solve_Ba(CURVE_G2)
    for call in (lambda: sym_integral(CURVE_G2, basis.b1, lam0),
                 lambda: phi_map(CURVE_G2, basis, lam0)):
        with pytest.raises(ValidationError, match="gamma base point must be a number"):
            call()


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


@pytest.mark.parametrize("kwargs", [
    {"max_denominator": 0}, {"max_denominator": -3}, {"shortlist": 1}, {"shortlist": 0},
    {"shortlist": -2}, {"max_denominator": 40000}, {"max_denominator": 40000, "shortlist": 8},
    {"max_denominator": 2.5}, {"shortlist": 2.5}, {"max_denominator": 3.0},
])
def test_rational_distance_refuses_bounds_before_building_a_grid(monkeypatch, kwargs):
    # refused values never reach the direction grid
    monkeypatch.setattr(periods, "_integer_directions", None)
    with pytest.raises(ValidationError, match="max_denominator"):
        rational_plane_distance(np.array([[1.0, 0.2, -0.3], [0.1, 1.0, 0.7]]), **kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rational_distance_refuses_a_matrix_that_is_not_finite(monkeypatch, bad):
    # a NaN QR keeps no column, which would read as a rational plane (distance 0.0)
    m = np.array([[1.0, 0.2, -0.3], [0.1, 1.0, 0.7]])
    m[1, 2] = bad
    monkeypatch.setattr(periods, "_integer_directions", None)
    with pytest.raises(ValidationError, match="needs a finite matrix"):
        rational_plane_distance(m)


def test_rational_distance_takes_numpy_integer_bounds():
    m = np.array([[1.0, 0.0, -2.0], [0.0, 3.0, 1.0]])
    assert rational_plane_distance(m, max_denominator=np.int64(4), shortlist=np.int32(8)) < 1e-12


def test_rational_distance_grid_cap_admits_genus_four_at_twelve(monkeypatch):
    # (2*12+1)^5 = 9.8e6 points is under the cap, (2*13+1)^5 = 1.4e7 over
    assert 25 ** 5 <= periods.MAX_DIRECTION_GRID < 27 ** 5
    monkeypatch.setattr(periods, "_integer_directions", None)
    with pytest.raises(ValidationError, match=r"\^5 <= 10000000"):
        rational_plane_distance(np.eye(2, 5), max_denominator=13)


def test_rational_distance_detects_integer_plane():
    m = np.array([[1.0, 0.0, -2.0], [0.0, 3.0, 1.0]])
    assert rational_plane_distance(m, max_denominator=4) < 1e-12
    rng = np.random.default_rng(5)
    off = rational_plane_distance(m + 1e-3 * rng.standard_normal(m.shape),
                                  max_denominator=4)
    assert 1e-5 < off < 1e-2


def _former_rational_plane_distance(matrix, max_denominator, shortlist):
    """The rational probe's body before the direction lattice was cached:
    the directions and their norms built on every call."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    dim = m.shape[1]
    q, r = np.linalg.qr(m.T)
    q = q[:, np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.max(np.abs(m))))]
    if q.shape[1] in (0, dim):
        return 0.0
    vf = periods._integer_directions(dim, max_denominator).astype(np.float64)
    norms = np.linalg.norm(vf, axis=1)
    sin2 = np.empty(len(vf))
    step = 1_000_000
    for i in range(0, len(vf), step):
        proj = vf[i:i + step] @ q
        sin2[i:i + step] = 1.0 - (proj * proj).sum(axis=1) / (norms[i:i + step] ** 2)
    k = min(shortlist, len(vf))
    short = vf[np.argpartition(sin2, k - 1)[:k]]
    i, j = np.triu_indices(k, 1)
    planes, _ = np.linalg.qr(np.stack([short[i], short[j]], axis=2))
    small, large = (planes, q) if q.shape[1] >= 2 else (q, planes)
    outside = small - large @ (np.swapaxes(large, -1, -2) @ small)
    sines = np.linalg.svd(outside, compute_uv=False)[:, 0]
    worst = np.arcsin(np.minimum(sines, 1.0))
    return float(np.min(worst, initial=np.pi / 2))


@pytest.mark.parametrize("shortlist", [16, 64])
@pytest.mark.parametrize("bound", [1, 4, 12])
def test_rational_distance_is_bitwise_its_uncached_form(bound, shortlist):
    for name, m in sorted(_probe_matrices().items()):
        want = _former_rational_plane_distance(m, bound, shortlist)
        got = rational_plane_distance(m, max_denominator=bound, shortlist=shortlist)
        assert got.hex() == want.hex(), name


def test_direction_lattice_is_the_integer_directions_read_only_one_entry():
    for dim in (2, 3, 4):
        for bound in range(1, 13):
            vf, norms = periods._direction_lattice(dim, bound)
            want = periods._integer_directions(dim, bound).astype(np.float64)
            assert vf.dtype == want.dtype and vf.tobytes() == want.tobytes()
            assert norms.tobytes() == np.linalg.norm(want, axis=1).tobytes()
            assert not vf.flags.writeable and not norms.flags.writeable
            with pytest.raises(ValueError):
                vf[0, 0] = 0.0
            assert periods._direction_lattice(dim, bound)[0] is vf
            assert periods._direction_lattice.cache_info().currsize == 1


def test_rational_distance_shares_one_lattice_entry_across_integer_types():
    m = np.array([[1.0, 0.2, -0.3], [0.1, 1.0, 0.7]])
    periods._direction_lattice.cache_clear()
    rational_plane_distance(m, max_denominator=np.int64(5))
    rational_plane_distance(m, max_denominator=5)
    info = periods._direction_lattice.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def test_rational_distance_refuses_a_bool_bound(monkeypatch):
    # True ran at bound 1, and would key the lattice as 1
    monkeypatch.setattr(periods, "_integer_directions", None)
    with pytest.raises(ValidationError, match="max_denominator"):
        rational_plane_distance(np.array([[1.0, 0.2, -0.3], [0.1, 1.0, 0.7]]),
                                max_denominator=True)


def test_rational_distance_refuses_a_numpy_bound_whose_grid_wraps(monkeypatch):
    # (2 * 200 + 1)^3 wrapped in int16 arithmetic and passed the grid cap
    monkeypatch.setattr(periods, "_integer_directions", None)
    with pytest.raises(ValidationError, match=r"\^3 <= 10000000, got 200 and 256"):
        rational_plane_distance(np.array([[1.0, 0.2, -0.3], [0.1, 1.0, 0.7]]),
                                max_denominator=np.int16(200))


def test_b_periods_refuse_a_numerator_above_degree_g_plus_one():
    with pytest.raises(ValidationError, match="numerator degree 4 exceeds g\\+1 = 3"):
        b_periods(CURVE_G2, CPoly([1.0, 0.0, 0.0, 0.0, 1.0]))


# ------------------------------------------------------------ rule cache


def _mpmath_weight(kind, n, x0):
    """40-digit Gauss weight at the root of P_n (Legendre) or of
    P_n^(0,-1/2) (Jacobi) next to x0, by the textbook formulas
    w = 2 (1 - x^2) / (n P_{n-1}(x))^2 and w = sqrt(2) / ((1 - x^2) P_n'(x)^2)
    with P_n' = (n + 1/2)/2 P_{n-1}^(1,1/2).  The secant gets two starting
    points: from x0 alone it stops short at the last node of n = 257."""
    with mpmath.workdps(40):
        if kind == "legendre":
            r = mpmath.findroot(lambda t: mpmath.legendre(n, t),
                                (mpmath.mpf(x0), mpmath.mpf(x0) + 1e-18), verify=False)
            return 2 * (1 - r * r) / (n * mpmath.legendre(n - 1, r)) ** 2
        r = mpmath.findroot(lambda t: mpmath.jacobi(n, 0, -0.5, t),
                            (mpmath.mpf(x0), mpmath.mpf(x0) + 1e-18), verify=False)
        dp = (n + mpmath.mpf(0.5)) / 2 * mpmath.jacobi(n - 1, 1, 0.5, r)
        return mpmath.sqrt(2) / ((1 - r * r) * dp * dp)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
def test_gauss_rule_is_exact_accurate_shared_read_only(n):
    eps = np.finfo(float).eps
    for kind, want_x in (("jacobi", roots_jacobi(n, 0.0, -0.5)[0]),
                         ("legendre", roots_legendre(n)[0])):
        x, w = _gauss_rule(kind, n)
        assert np.all(np.diff(x) > 0) and np.max(np.abs(x - want_x)) <= 1e-15
        # degree 2n - 1: a node one ulp off moves x^k by k ulps, and the
        # weights and the sum add a few ulps more; the error is measured
        # against the integral of |integrand|, which is what the sum rounds
        for k in range(2 * n):
            if kind == "legendre":
                got, scale = np.sum(w * x**k), 2.0 / (k + 1)
                want = scale if k % 2 == 0 else 0.0
            else:
                want = scale = 2.0 ** (k + 0.5) / (k + 0.5)
                got = np.sum(w * (1.0 + x) ** k)
            assert abs(got - want) <= 8 * (k + 1) * eps * scale, (kind, k)
        # endpoint weights are where the rounded node makes the weight
        # formula ill-conditioned (scipy's rule is 5.3e-10 off at n = 257)
        for i in sorted({0, 1, n // 2, n - 2, n - 1} & set(range(n))):
            ref = _mpmath_weight(kind, n, x[i])
            assert abs(w[i] / float(ref) - 1.0) <= 1e-11, (kind, i)
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


# --------------------------------------------------------------- basis memo


def _counting_a_period_svd(monkeypatch, genus):
    """Count SVDs of a g x (g+2) A-period map, from an empty engine memo."""
    periods._engine.cache_clear()
    real = np.linalg.svd

    def counted(a, *args, **kwargs):
        if np.shape(a) == (genus, genus + 2):
            counted.calls += 1
        return real(a, *args, **kwargs)

    counted.calls = 0
    monkeypatch.setattr(np.linalg, "svd", counted)
    return counted


def test_solve_ba_reuses_one_basis_per_curve_and_quad(monkeypatch):
    curve = random_curve(2, 31)
    svd = _counting_a_period_svd(monkeypatch, 2)
    basis = solve_Ba(curve)
    assert svd.calls == 1
    assert solve_Ba(curve) is basis
    assert solve_Ba(curve, quad=periods.DEFAULT_QUAD) is basis
    assert svd.calls == 1
    other_quad = solve_Ba(curve, quad=QuadConfig(nodes=128))
    assert other_quad is not basis
    assert svd.calls == 2
    periods._engine.cache_clear()
    fresh = solve_Ba(curve)
    assert fresh is not basis and svd.calls == 3
    assert fresh.b1 == basis.b1 and fresh.b2 == basis.b2


def test_solve_ba_does_not_keep_a_failed_solve(monkeypatch):
    curve = random_curve(2, 32)
    svd = _counting_a_period_svd(monkeypatch, 2)
    real = periods.graph_form
    monkeypatch.setattr(periods, "graph_form", lambda frame: real(frame) + 1.0)
    for calls in (1, 2):
        with pytest.raises(ValidationError, match="basis A-period residual"):
            solve_Ba(curve)
        assert svd.calls == calls
    monkeypatch.setattr(periods, "graph_form", real)
    basis = solve_Ba(curve)
    assert svd.calls == 3 and solve_Ba(curve) is basis


def test_b_map_after_solve_ba_runs_no_second_svd(monkeypatch):
    from spectralcurves.grassmann import B_map

    curve = random_curve(3, 33)
    svd = _counting_a_period_svd(monkeypatch, 3)
    basis = solve_Ba(curve)
    plane = B_map(curve)
    assert svd.calls == 1
    assert np.array_equal(plane.M[:, 0], real_coords(basis.b1)[2:])


# ------------------------------------------------- solve_Ba's own checks


def _engine_with(curve, fault):
    """The shared engine of ``curve``, its A-matrix replaced by fault(A)."""
    periods._engine.cache_clear()
    eng = periods.get_engine(curve)
    eng._a = fault(eng.a_matrix().copy())
    return eng


def test_solve_ba_calls_no_public_a_periods(monkeypatch):
    # the basis check is one product of the held A-matrix with [b1 b2]
    monkeypatch.setattr(periods, "a_periods", None)
    periods._engine.cache_clear()
    curve = random_curve(3, 34)
    basis = solve_Ba(curve)
    monkeypatch.undo()
    for b in (basis.b1, basis.b2):
        assert np.max(np.abs(a_periods(curve, b))) < 1e-10


def test_solve_ba_refuses_a_rank_deficient_a_period_map():
    curve = random_curve(2, 35)

    def twin_rows(a):
        a[1] = a[0]
        return a

    eng = _engine_with(curve, twin_rows)
    with pytest.raises(ValidationError, match="A-period matrix is rank deficient"):
        solve_Ba(curve)
    assert eng.basis is None


def test_solve_ba_refuses_a_kernel_gap_below_1e6():
    curve = random_curve(2, 35)

    def near_twin_rows(a):
        a[1] = a[0] + 1e-11 * a[1]
        return a

    eng = _engine_with(curve, near_twin_rows)
    with pytest.raises(ValidationError, match=r"kernel gap \S+ below 1e6"):
        solve_Ba(curve)
    assert eng.basis is None


def test_solve_ba_warns_on_a_basis_residual_between_10_and_1000_tol(monkeypatch, caplog):
    curve = random_curve(2, 37)
    periods._engine.cache_clear()
    unit = _chart_units(3)[2]          # the first middle coordinate
    delta = 1e-7 / float(np.max(np.abs(periods.get_engine(curve).a_matrix() @ unit)))
    real = periods.graph_form

    def moved(frame):
        out = real(frame)
        out[0, 2] += delta
        return out

    monkeypatch.setattr(periods, "graph_form", moved)
    with caplog.at_level(logging.WARNING, logger="spectralcurves.periods"):
        basis = solve_Ba(curve)
    assert "solved basis A-period residual 1.000e-07" in caplog.text
    monkeypatch.setattr(periods, "graph_form", real)
    periods._engine.cache_clear()
    moved_by = real_coords(basis.b1) - real_coords(solve_Ba(curve).b1)
    assert np.allclose(moved_by, [0.0, 0.0, delta, 0.0], rtol=1e-6, atol=1e-15)


def test_a_period_map_reality_check_names_the_first_offending_row(caplog):
    # adding i*d to every moment of a row gives its chart values an
    # imaginary residue of 2 d: row 0 is logged, row 1 raised
    curve = random_curve(3, 38)

    def tilt(a):
        a[0] += 1e-7j
        a[1] += 1e-2j
        a[2] += 1e-2j
        return a

    eng = _engine_with(curve, tilt)
    with caplog.at_level(logging.WARNING, logger="spectralcurves.periods"):
        with pytest.raises(ResolutionError, match="^homology/reality inconsistency: A-period map "
                                                  "row 1 has imaginary residue 2.000e-02$"):
            solve_Ba(curve)
    assert "A-period map row 0 imaginary residue 2.000e-07 above tol 1.0e-09" in caplog.text
    assert "row 2" not in caplog.text and eng.basis is None


def test_a_period_map_residue_below_1000_tol_is_logged_and_solved(caplog):
    curve = random_curve(3, 38)
    _engine_with(curve, lambda a: a + np.array([[0.0], [1e-7j], [0.0]]))
    with caplog.at_level(logging.WARNING, logger="spectralcurves.periods"):
        basis = solve_Ba(curve)
    assert "A-period map row 1 imaginary residue 2.000e-07" in caplog.text
    assert "row 0" not in caplog.text and basis.kernel_gap > 1e6


@pytest.mark.parametrize("quad", [5, "fine", (64, 1e-10)])
def test_engine_refuses_a_quad_that_is_not_a_quad_config(quad):
    with pytest.raises(ValidationError, match="quad must be a QuadConfig"):
        solve_Ba(CURVE_G1, quad=quad)


def test_quad_config_refuses_bool_nodes():
    with pytest.raises(ValidationError, match="nodes >= 1"):
        QuadConfig(nodes=True)


def test_quad_config_refuses_bool_tol():
    with pytest.raises(ValidationError, match="finite tol > 0"):
        QuadConfig(tol=True)


def test_chebyshev_rule_is_the_a_cycle_nodes_shared_read_only():
    for n in (64, 192, 5):
        x, w = _gauss_rule("chebyshev", n)
        want = np.cos((2 * np.arange(1, n + 1) - 1) * (np.pi / (2 * n)))
        assert x.tobytes() == want.tobytes() and w == np.pi / n
        assert _gauss_rule("chebyshev", n)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0


def test_chart_units_are_the_chart_of_the_identity_read_only():
    for d in range(6):
        units = _chart_units(d)
        assert units.tobytes() == real_place_coeffs(d, np.eye(d + 1)).tobytes()
        assert _chart_units(d) is units and not units.flags.writeable
