"""Curve construction, validation, sheet tracking, homology layout."""

import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralcurves.curve import (
    _segment_distance,
    build_curve,
    curve_from_dict,
    curve_from_json,
    curve_to_dict,
    curve_to_json,
    homology_cycles,
    rotate_curve,
    track_sqrt,
)
from spectralcurves import periods
from spectralcurves.errors import ResolutionError, ValidationError
from spectralcurves.invariants import classify
from spectralcurves.periods import b_periods, solve_Ba, sym_integral
from spectralcurves.polyring import reality_check

from conftest import random_curve, sample_eta
from sheets import (a_cycle, a_loop, b_cycle, b_lasso, continue_sqrt, gamma, y_along,
                    y_squared)


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


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
def test_rejects_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValidationError, match="tolerance must be finite and positive"):
        build_curve([0.5], tol=tol)


@pytest.mark.parametrize("eta, tol", [
    ([[0.5, 0.1]], 1e-9),         # the [re, im] layout of a JSON curve record
    ([[0.5], [0.1]], 1e-9),
    (0.5, 1e-9),
    ("abc", 1e-9),
    ([0.5], "x"),
    ([0.5], None),
])
def test_rejects_roots_that_are_not_a_flat_sequence_of_numbers(eta, tol):
    with pytest.raises(ValidationError):
        build_curve(eta, tol=tol)


def test_rejects_a_bool_tolerance():
    # True passed 0 < tol < inf and gave a curve with tol 1.0
    with pytest.raises(ValidationError, match="tolerance must be finite and positive"):
        build_curve([0.5], tol=True)


@pytest.mark.parametrize("eta", [["0.5"], [0.5, False], np.array([True, False])])
def test_rejects_roots_that_are_strings_or_bools(eta):
    # "0.5" was parsed into a genus-1 curve, False refused as a root at the origin
    with pytest.raises(ValidationError, match="sequence of numbers"):
        build_curve(eta)


def test_segment_distance_to_a_point_is_the_distance_to_it():
    p, z = 0.3 - 0.2j, -0.1 + 0.4j
    assert _segment_distance(p, p, z) == abs(z - p)
    assert _segment_distance(p, p, p) == 0.0


def test_repr_names_genus_and_roots():
    assert repr(build_curve([0.5, 0.25j])) == "SpectralCurve(genus=2, eta=[(0.5+0j), 0.25j])"


def test_partners_are_python_complex_reflections():
    c = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
    for z, w in zip(c.eta, c.partners):
        assert type(w) is complex and w == complex(1.0 / np.conj(z))


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


def test_record_whose_genus_does_not_match_its_roots_is_refused():
    with pytest.raises(ValidationError, match="genus 2 does not match 1 roots"):
        curve_from_dict({"eta": [[0.5, 0.0]], "genus": 2})


# --------------------------------------------------------- sheet tracking


def test_tracked_path_satisfies_curve_equation():
    c = build_curve([0.45 + 0.3j])
    hom = homology_cycles(c)
    sp = a_cycle(hom, 0)
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


def test_track_sqrt_flags_failed_rows_alone_and_warns_nothing():
    theta = np.linspace(0.0, 6.0 * np.pi, 200)   # three turns: two sign flips
    good = 2.0 * np.exp(1j * theta)
    rows = np.stack([good, good, good])
    rows[1, 50] = 0.0                  # an exact zero
    rows[2, 100:] *= 1j                # a quarter turn between samples
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root, ok = track_sqrt(rows)
    assert ok.tolist() == [True, False, False]
    assert np.all(root[1:] == 1.0)
    assert np.max(np.abs(root[0] - np.sqrt(2.0) * np.exp(0.5j * theta))) <= 1e-15
    assert np.max(np.abs(root[0] - continue_sqrt(good, np.sqrt(good[0])))) <= 1e-13


def test_y_along_is_the_continuation_of_curve_values():
    c = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
    loop = b_lasso(homology_cycles(c), 1)
    for sign in (1, -1):
        sp = y_along(c, loop, seed_sign=sign)
        w = y_squared(c, sp.points)
        assert np.array_equal(sp.y_values, continue_sqrt(w, sign * np.sqrt(w[0])))
        assert np.max(np.abs(sp.y_values**2 - w)) < 1e-12 * max(1.0, np.max(np.abs(w)))


def test_a_cycle_closes_on_one_sheet():
    c = build_curve([0.45 + 0.3j, -0.3 - 0.35j])
    hom = homology_cycles(c)
    for j in range(c.genus):
        sp = a_cycle(hom, j)
        assert sp.closed
        assert sp.sign_flip == 1


def test_b_lasso_swaps_sheet():
    c = build_curve([0.45 + 0.3j, -0.3 - 0.35j])
    hom = homology_cycles(c)
    for j in range(c.genus):
        sp = b_cycle(hom, j)
        assert sp.closed
        assert sp.sign_flip == -1


def test_gamma_joins_the_two_points_over_lambda0():
    c = build_curve([0.5])
    hom = homology_cycles(c)
    lam0 = np.exp(1.9j)
    sp = gamma(hom, lam0)
    assert abs(sp.points[0] - lam0) < 1e-12
    assert abs(sp.points[-1] - lam0) < 1e-12
    assert abs(sp.y_values[-1] + sp.y_values[0]) < 1e-9 * abs(sp.y_values[0])


def test_gamma_clearance_guard():
    c = build_curve([0.5])
    hom = homology_cycles(c)
    with pytest.raises(ValidationError, match="unit circle"):
        hom.gamma_leg(0.5 + 0.0j)
    for nan in (complex(np.nan, np.nan), complex(np.nan, 0.0)):
        with pytest.raises(ValidationError, match="unit circle"):
            hom.gamma_leg(nan)
    # base point radially aligned with the cut crossing
    with pytest.raises(ValidationError, match="collides"):
        hom.gamma_leg(1.0 + 0.0j)


@pytest.mark.parametrize("lam0", ["-1", True, np.True_])
def test_gamma_base_point_that_is_not_a_number_is_refused(lam0):
    # "-1" was parsed by complex() into the leg from lambda0 = -1
    hom = homology_cycles(build_curve([0.5, -0.3 + 0.4j]))
    with pytest.raises(ValidationError, match="gamma base point must be a number"):
        hom.gamma_leg(lam0)
    assert hom.gamma_leg(np.complex128(-1.0)) == hom.gamma_leg(-1)


# ------------------------------------------------------------- homology


def test_a_loop_encircles_exactly_its_cut():
    c = build_curve([0.45 + 0.3j, -0.3 - 0.35j])
    hom = homology_cycles(c)
    for j in range(c.genus):
        loop = a_loop(hom, j)
        assert abs(loop[0] - loop[-1]) < 1e-12
        # one consistent orientation around both endpoints of the cut
        assert polyline_winding(loop, c.eta[j]) == -1
        assert polyline_winding(loop, c.partners[j]) == -1
        assert polyline_winding(loop, 0.0) == 0
        other = 1 - j
        assert polyline_winding(loop, c.eta[other]) == 0
        assert polyline_winding(loop, c.partners[other]) == 0


def test_wedge_is_bounded_by_the_other_branch_points_alone():
    # the nearest other branch point is more than 0.35 / 0.45 rad from cut 2
    assert homology_cycles(random_curve(3, 11)).wedge_half_angle[2] == 0.35


@pytest.mark.parametrize("genus, seed, nudge, legs", [
    (2, 145, 0.5, ["0x1.85ed9d9f88ddap+1", "0x1.703410631da2ap+1"]),
    (4, 26, -0.5, ["0x1.18b6d8a5bd3e6p+1", "-0x1.155ef8f17fa48p-1",
                   "0x1.308fd6d45251cp+1", "0x1.e77e2e17e63d0p+0"]),
    # no nudge clears 5e-3: the clearest one is kept, with a warning
    (2, 205, -1.5, ["0x1.2cbc7dcd2a9ebp+0", "0x1.2f67c05aedffcp+0"]),
])
def test_b_leg_nudges_are_frozen(genus, seed, nudge, legs, caplog):
    c = random_curve(genus, seed)
    with caplog.at_level(logging.WARNING, logger="spectralcurves.curve"):
        hom = homology_cycles(c)
    assert [a.hex() for a in hom.leg_angles] == legs
    assert (hom.leg_angles[0] - c.cut_angles[0]) / hom.wedge_half_angle[0] == \
        pytest.approx(nudge)
    assert ("B-leg 0 clearance only" in caplog.text) == (nudge == -1.5)


def test_b_leg_endpoints():
    c = build_curve([0.45 + 0.3j])
    hom = homology_cycles(c)
    start, target = hom.b_leg(0)
    assert start == c.eta[0]
    assert abs(abs(target) - c.r0) < 1e-14


def test_radially_overlapping_cuts_are_refused_when_the_engine_is_built():
    curve = build_curve([0.25, 0.2 * np.exp(5e-4j)])
    for layout in (homology_cycles, solve_Ba):
        with pytest.raises(ResolutionError, match="cuts at angle 0.000000 overlap radially"):
            layout(curve)


# a branch point 4e-3 beside each root: every B-leg chord passes within
# 4e-3 of it, below the 5e-3 the leg search asks for
CROWDED_LEGS = [0.5, 0.5 + 0.004j]


def test_a_only_use_lays_out_no_b_legs(monkeypatch, caplog):
    curve = build_curve(CROWDED_LEGS)
    with caplog.at_level(logging.WARNING, logger="spectralcurves.curve"):
        homology_cycles(curve)
    assert caplog.text.count("clearance only 4.00e-03") == 2
    caplog.clear()
    periods._engine.cache_clear()

    def no_leg_search(*args):
        raise AssertionError("B-leg search ran")

    monkeypatch.setattr(periods, "_leg_angles", no_leg_search)
    with caplog.at_level(logging.WARNING, logger="spectralcurves.curve"):
        rep = classify(curve, solve_Ba(curve))
    assert rep.stratum == "V_1" and "clearance only" not in caplog.text


@pytest.mark.parametrize("eta", [CROWDED_LEGS, [0.45, 0.5 * np.exp(2.1j), 0.55 * np.exp(-2.2j)]])
def test_b_cycles_read_the_legs_of_homology_cycles(eta):
    curve = build_curve(eta)
    periods._engine.cache_clear()
    b = solve_Ba(curve).b1
    eng = periods.get_engine(curve)
    assert "homology" not in vars(eng)         # not laid out by the A-only solve
    b_periods(curve, b)
    sym_integral(curve, b, complex(np.exp(1.0j)))
    want = homology_cycles(curve)
    assert eng.homology == want
    assert np.array(eng.homology.leg_angles).tobytes() == np.array(want.leg_angles).tobytes()
    for j in range(curve.genus):
        assert np.array(eng.homology.b_leg(j)).tobytes() == np.array(want.b_leg(j)).tobytes()
