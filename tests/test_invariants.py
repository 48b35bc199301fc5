"""Winding invariants, gcd validation, stratum classification."""

from types import SimpleNamespace

import numpy as np
import pytest

from spectralcurves.curve import build_curve, rotate_curve
from spectralcurves.errors import InvariantError, ResolutionError, ValidationError
from spectralcurves.invariants import (
    circle_map,
    classify,
    deg_f,
    pencil_gcd,
    winding_arg,
    winding_roots,
)
from spectralcurves.periods import solve_Ba
from spectralcurves.polyring import CPoly, real_place, roots, symmetrize_reality

from conftest import random_curve

# classification is expensive enough to share across assertions
FROZEN_MINUS = [-0.3967 - 0.5356j, -0.2717 - 0.7730j, -0.0925 + 0.3364j]
FROZEN_PLUS = [0.1969 - 0.7506j, 0.3100 - 0.5850j, 0.4369 - 0.7826j]


def synthetic_pencil(u, v, curve=None):
    """Pencil with b1 + i b2 = u and b1 - i b2 = v (need not be reflection-real)."""
    return SimpleNamespace(
        b1=(u + v) * 0.5,
        b2=(u - v) * (-0.5j),
        curve=curve or build_curve([0.5]),
    )


# ------------------------------------------------------------- classify


def test_genus_zero_report():
    rep = classify(build_curve([]))
    assert rep.deg_f == 1
    assert rep.winding_arg == rep.winding_roots == 1
    assert rep.gcd_degree == 0
    assert rep.stratum == "V_1"
    assert rep.v_index == 1
    assert rep.genus0_flags == (True, True, True)


def test_genus_one_lands_in_central_stratum():
    for seed in range(8):
        rep = classify(random_curve(1, seed))
        assert rep.deg_f == 2
        assert rep.winding == 0
        assert rep.gcd_degree == 0
        assert rep.stratum == "V_0"


def test_frozen_extreme_winding_curves():
    rep = classify(build_curve(FROZEN_MINUS))
    assert (rep.stratum, rep.deg_f, rep.winding_arg, rep.winding_roots) == ("V_-2", 4, -2, -2)
    rep = classify(build_curve(FROZEN_PLUS))
    assert (rep.stratum, rep.deg_f, rep.winding_arg, rep.winding_roots) == ("V_2", 4, 2, 2)


def test_winding_bounds_and_parity():
    for genus in (1, 2, 3):
        for seed in range(4):
            rep = classify(random_curve(genus, seed))
            df = rep.genus + 1 - rep.gcd_degree
            assert rep.deg_f == df
            assert (rep.winding_arg - df) % 2 == 0
            assert -df < rep.winding_arg <= df
            if rep.gcd_degree == 0 and rep.genus >= 1:
                assert abs(rep.winding_arg) <= df - 2
            assert rep.winding_arg == rep.winding_roots


def test_classification_is_rotation_invariant():
    c = build_curve(FROZEN_MINUS)
    base = classify(c)
    for phi in (0.4, -1.9):
        rep = classify(rotate_curve(c, phi))
        assert rep.stratum == base.stratum
        assert rep.winding_arg == base.winding_arg
        assert rep.deg_f == base.deg_f


# ------------------------------------------------------- the two windings


def test_winding_algorithms_agree_directly():
    for genus, seed in ((1, 11), (2, 12), (3, 13)):
        curve = random_curve(genus, seed)
        basis = solve_Ba(curve)
        assert winding_arg(basis) == winding_roots(basis)


def test_boundary_root_is_loud():
    # a root 2e-10 off the unit circle that is *not* shared by the pencil:
    # the count is ill-posed and must refuse rather than guess
    u = CPoly.from_roots([(1.0 + 2e-10) * np.exp(1.1j), 0.3])
    v = CPoly.from_roots([0.7, 1.6])
    pb = synthetic_pencil(u, v)
    with pytest.raises(InvariantError, match="boundary"):
        winding_roots(pb)


def test_winding_roots_counts_reflection_split():
    # b1 + i b2 = u with one disc root; b1 - i b2 = v with two
    u = CPoly.from_roots([0.4, 1.7])
    v = CPoly.from_roots([0.2, 0.5])
    assert winding_roots(synthetic_pencil(u, v)) == 1 - 2


# ----------------------------------------------------------------- gcd


def test_solved_pencil_is_coprime():
    basis = solve_Ba(random_curve(2, 21))
    assert pencil_gcd(basis.b1, basis.b2).formal_degree == 0
    assert deg_f(basis) == 3


def test_gcd_double_root_sharpened_by_partner():
    # b1 = (lam-1)^2 knows its root only to sqrt(eps); the partner's simple
    # root pins the shared root to full precision after refinement
    b1 = real_place(2, np.array([1.0, 0.0, -2.0]))
    b2 = real_place(2, np.array([0.0, 1.0, 0.0]))
    gcd = pencil_gcd(b1, b2)
    assert gcd.formal_degree == 1
    (root,) = roots(gcd)
    assert abs(root - 1.0) < 1e-9


def test_gcd_two_circle_roots():
    rts = [np.exp(1.2j), np.exp(-1.4j), 0.3]
    u = CPoly.from_roots(rts)
    gcd = pencil_gcd(symmetrize_reality(u), symmetrize_reality(u * (-1j)))
    assert gcd.formal_degree == 2
    got = roots(gcd)
    assert np.max(np.abs(np.abs(got) - 1.0)) < 1e-9


# ------------------------------------------------------------ gcd memo


def _counting_approx_gcd(monkeypatch):
    import spectralcurves.invariants as inv

    real = inv.approx_gcd

    def counted(p, q, tol=1e-9):
        counted.calls += 1
        return real(p, q, tol=tol)

    counted.calls = 0
    monkeypatch.setattr(inv, "approx_gcd", counted)
    return counted


def test_gcd_memo_is_bitwise_equal_cold_warm_and_cleared():
    coprime = solve_Ba(random_curve(2, 21))
    u = CPoly.from_roots([np.exp(1.2j), np.exp(-1.4j), 0.3])
    shared = (symmetrize_reality(u), symmetrize_reality(u * (-1j)))
    pencils = [(coprime.b1, coprime.b2), shared]

    def run(order):
        return {i: pencil_gcd(*pencils[i]).coeffs.tobytes() for i in order}

    pencil_gcd.cache_clear()
    cold = run((0, 1))
    assert run((0, 1)) == cold                      # warm
    pencil_gcd.cache_clear()
    assert run((1, 0)) == cold                      # cleared, other order
    pencil_gcd.cache_clear()
    assert run((0, 1)) == cold


def test_gcd_memo_does_not_cache_errors(monkeypatch):
    counted = _counting_approx_gcd(monkeypatch)
    zero = CPoly([0.0, 0.0, 0.0])
    for calls in (1, 2):
        with pytest.raises(ValidationError, match="zero polynomials"):
            pencil_gcd(zero, zero)
        assert counted.calls == calls


def test_classify_computes_one_gcd_per_basis(monkeypatch):
    basis = solve_Ba(random_curve(2, 22))
    pencil_gcd.cache_clear()
    counted = _counting_approx_gcd(monkeypatch)
    rep = classify(basis.curve, basis)
    assert rep.gcd_degree == 0
    assert counted.calls == 1


# ------------------------------------------------------------ circle map


def test_circle_map_is_unimodular_on_circle():
    for genus, seed in ((1, 31), (2, 32)):
        basis = solve_Ba(random_curve(genus, seed))
        f = circle_map(basis)
        z = np.exp(1j * np.linspace(-np.pi, np.pi, 129))
        assert np.max(np.abs(np.abs(f(z)) - 1.0)) < 1e-9


def test_genus_zero_circle_map_is_identity():
    f = circle_map(solve_Ba(build_curve([])))
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 256, endpoint=False))
    assert np.max(np.abs(f(z) - z)) < 1e-9


# ------------------------------------------------------ window seeding


def test_winding_window_seeding_skips_only_typed_root_failures(monkeypatch):
    import spectralcurves.invariants as inv

    basis = solve_Ba(random_curve(2, 12))
    expected = winding_arg(basis)

    def unresolved(p, tol=1e-9):
        raise ResolutionError("root set not resolved")

    monkeypatch.setattr(inv, "roots", unresolved)
    # seeding is an accelerator: without it the refined grid still counts
    assert winding_arg(basis) == expected

    def broken(p, tol=1e-9):
        raise TypeError("not a typed resolution failure")

    monkeypatch.setattr(inv, "roots", broken)
    with pytest.raises(TypeError, match="not a typed"):
        winding_arg(basis)
