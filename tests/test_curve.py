"""Curve construction, validation, sheet tracking, homology layout."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralcurves.curve import (
    SpectralCurve,
    build_curve,
    continue_sqrt,
    curve_from_dict,
    curve_from_json,
    curve_to_dict,
    curve_to_json,
    homology_cycles,
    rotate_curve,
    y_along,
)
from spectralcurves.errors import ResolutionError, ValidationError
from spectralcurves.polyring import reality_check

from conftest import sample_eta


def polyline_winding(loop, z0):
    """Winding number of a closed polyline around z0 (angle accumulation)."""
    rel = np.asarray(loop) - z0
    dth = np.angle(rel[1:] / rel[:-1])
    return int(round(float(np.sum(dth)) / (2 * np.pi)))


# ------------------------------------------------------------ construction


def test_genus_zero_curve():
    c = build_curve([])
    assert c.genus == 0
    assert c.eta == ()
    assert abs(abs(c.lead) - 1.0) < 1e-14
    assert c.a.formal_degree == 0


def test_structure_and_reflection_partners():
    eta = [0.5, -0.2 + 0.4j]
    c = build_curve(eta)
    assert c.genus == 2
    assert np.allclose(c.partners, 1.0 / np.conj(np.asarray(eta)))
    assert c.a.formal_degree == 2 * c.genus
    assert abs(abs(c.lead) - 1.0) < 1e-14
    # every declared root actually annihilates a
    assert np.max(np.abs(c.a(np.asarray(c.branch_points)))) < 1e-12


def test_weight_positive_on_circle():
    c = build_curve([0.3 - 0.6j, 0.7, -0.25j])
    z = np.exp(1j * np.linspace(-np.pi, np.pi, 257))
    vals = c.a(z) / z**c.genus
    assert np.max(np.abs(vals.imag)) < 1e-10
    assert np.min(vals.real) > 0.0


def test_a_is_reflection_real():
    c = build_curve([0.4 + 0.1j, -0.6])
    ok, defect = reality_check(c.a, tol=1e-12)
    assert ok, defect


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 123456), st.integers(1, 4))
def test_random_curves_build_and_validate(seed, genus):
    rng = np.random.default_rng(seed)
    c = build_curve(sample_eta(genus, rng))
    assert c.genus == genus
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 64))
    vals = c.a(z) / z**genus
    assert np.min(vals.real) > 0
    assert np.max(np.abs(vals.imag)) < 1e-9


def test_rejects_root_outside_disc():
    with pytest.raises(ValidationError, match="unit circle|open-disc"):
        build_curve([1.0])
    with pytest.raises(ValidationError):
        build_curve([1.2 + 0.1j])


def test_rejects_origin_root():
    with pytest.raises(ValidationError, match="punctured"):
        build_curve([0.0])


def test_rejects_degenerate_cut_pair():
    with pytest.raises(ValidationError, match="closer than"):
        build_curve([0.5, 0.5 + 1e-9])


def test_rotation_moves_roots_rigidly():
    c = build_curve([0.5, -0.2 + 0.4j])
    phi = 0.7
    r = rotate_curve(c, phi)
    assert r.genus == c.genus
    assert np.allclose(np.asarray(r.eta), np.asarray(c.eta) * np.exp(1j * phi))
    assert abs(abs(r.lead) - 1.0) < 1e-14


def test_serialization_roundtrip():
    c = build_curve([0.31 - 0.2j, -0.5])
    d = curve_to_dict(c)
    c2 = curve_from_dict(d)
    assert np.allclose(np.asarray(c2.eta), np.asarray(c.eta))
    c3 = curve_from_json(curve_to_json(c))
    assert np.allclose(np.asarray(c3.eta), np.asarray(c.eta))


def test_malformed_record_names_field():
    with pytest.raises(ValidationError, match="eta"):
        curve_from_dict({"roots": [[0.5, 0.0]]})


# --------------------------------------------------------- sheet tracking


def test_tracked_path_satisfies_curve_equation():
    c = build_curve([0.45 + 0.3j])
    hom = homology_cycles(c)
    sp = hom.a_cycle(0)
    w = sp.points * c.a(sp.points)
    assert np.max(np.abs(sp.y_values**2 - w)) < 1e-10 * max(1.0, np.max(np.abs(w)))


def test_continue_sqrt_refuses_quarter_turns_and_zeros():
    assert np.allclose(continue_sqrt([1.0, np.exp(0.49j * np.pi)], 1.0),
                       [1.0, np.exp(0.245j * np.pi)])
    for step in (1j, np.exp(2.0j), -1.0):
        with pytest.raises(ResolutionError, match="under-resolved"):
            continue_sqrt([1.0, step], 1.0)
    with pytest.raises(ResolutionError, match="zero"):
        continue_sqrt([1.0, 0.0, 1.0], 1.0)


def test_y_along_is_the_continuation_of_curve_values():
    c = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
    loop = homology_cycles(c).b_lasso(1)
    for sign in (1, -1):
        sp = y_along(c, loop, seed_sign=sign)
        w = c.w(sp.points)
        assert np.array_equal(sp.y_values, continue_sqrt(w, sign * np.sqrt(w[0])))
        assert np.max(np.abs(sp.y_values**2 - w)) < 1e-12 * max(1.0, np.max(np.abs(w)))


def test_a_cycle_closes_on_one_sheet():
    c = build_curve([0.45 + 0.3j, -0.3 - 0.35j])
    hom = homology_cycles(c)
    for j in range(c.genus):
        sp = hom.a_cycle(j)
        assert sp.closed
        assert sp.sign_flip == 1


def test_b_lasso_swaps_sheet():
    c = build_curve([0.45 + 0.3j, -0.3 - 0.35j])
    hom = homology_cycles(c)
    for j in range(c.genus):
        sp = hom.b_cycle(j)
        assert sp.closed
        assert sp.sign_flip == -1


def test_gamma_joins_the_two_points_over_lambda0():
    c = build_curve([0.5])
    hom = homology_cycles(c)
    lam0 = np.exp(1.9j)
    sp = hom.gamma(lam0)
    assert abs(sp.points[0] - lam0) < 1e-12
    assert abs(sp.points[-1] - lam0) < 1e-12
    assert abs(sp.y_values[-1] + sp.y_values[0]) < 1e-9 * abs(sp.y_values[0])


def test_gamma_clearance_guard():
    c = build_curve([0.5])
    hom = homology_cycles(c)
    with pytest.raises(ValidationError, match="unit circle"):
        hom.gamma_leg(0.5 + 0.0j)
    # base point radially aligned with the cut crossing
    with pytest.raises(ValidationError, match="collides"):
        hom.gamma_leg(1.0 + 0.0j)


# ------------------------------------------------------------- homology


def test_a_loop_encircles_exactly_its_cut():
    c = build_curve([0.45 + 0.3j, -0.3 - 0.35j])
    hom = homology_cycles(c)
    for j in range(c.genus):
        loop = hom.a_loop(j)
        assert abs(loop[0] - loop[-1]) < 1e-12
        # one consistent orientation around both endpoints of the cut
        assert polyline_winding(loop, c.eta[j]) == -1
        assert polyline_winding(loop, c.partners[j]) == -1
        assert polyline_winding(loop, 0.0) == 0
        other = 1 - j
        assert polyline_winding(loop, c.eta[other]) == 0
        assert polyline_winding(loop, c.partners[other]) == 0


def test_b_leg_endpoints():
    c = build_curve([0.45 + 0.3j])
    hom = homology_cycles(c)
    start, target = hom.b_leg(0)
    assert start == c.eta[0]
    assert abs(abs(target) - c.r0) < 1e-14
