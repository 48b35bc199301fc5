"""Acceptance gate.

One test per contracted behavior of the package, each printing a single
pass/fail line under ``pytest -v``.  The random-curve suite is built once
per module and shared; every sampled curve is seeded by (genus, index) so
the gate is deterministic across runs and worker counts.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from spectralcurves.curve import build_curve
from spectralcurves.errors import InvariantError, ValidationError
from spectralcurves.grassmann import B_map, gr_classify, stratum_dimension_probe
from spectralcurves.invariants import circle_map, classify, winding_roots
from spectralcurves.periods import b_periods, solve_Ba
from spectralcurves.polyring import CPoly
from spectralcurves.whitham import (
    flow,
    handle_invariant_check,
    rotation_selector,
    rotation_tangent,
    whitham_tangent,
)

from conftest import grow_to_genus3, sample_eta, shared_plane

SUITE_SEED = 2026
SUITE_GENERA = (1, 2, 3, 4)
SUITE_SIZE = 100

Q_GENERIC = CPoly([0.4 + 0.25j, -0.3, 0.4 - 0.25j])


def suite_curve(genus, index, seed=SUITE_SEED):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(genus, index)))
    return build_curve(sample_eta(genus, rng))


@pytest.fixture(scope="module")
def suite():
    """100 random curves per genus in 1..4, solved and classified once."""
    t0 = time.perf_counter()
    rows = {}
    for genus in SUITE_GENERA:
        batch = []
        for index in range(SUITE_SIZE):
            curve = suite_curve(genus, index)
            basis = solve_Ba(curve)
            batch.append((curve, basis, classify(curve, basis)))
        rows[genus] = batch
    return SimpleNamespace(rows=rows, elapsed=time.perf_counter() - t0)


# ---------------------------------------------------------------------------


def test_c01_genus_zero_closed_form():
    t0 = time.perf_counter()
    basis = solve_Ba(build_curve([]))
    assert np.max(np.abs(basis.b1.coeffs - np.array([1.0, 1.0]))) < 1e-9
    assert np.max(np.abs(basis.b2.coeffs - np.array([1j, -1j]))) < 1e-9
    f = circle_map(basis)
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 256, endpoint=False))
    assert np.max(np.abs(f(z) - z)) < 1e-9
    rep = classify(basis.curve, basis)
    assert rep.deg_f == 1
    assert rep.winding_arg == 1
    assert time.perf_counter() - t0 < 1.0


def test_c02_kernel_dimension_and_imaginary_periods(suite):
    t0 = time.perf_counter()
    for genus in SUITE_GENERA:
        for curve, basis, _rep in suite.rows[genus]:
            assert basis.kernel_gap > 1e6
            for b in (basis.b1, basis.b2):
                assert np.max(np.abs(b_periods(curve, b).real)) < 1e-7
    assert suite.elapsed + (time.perf_counter() - t0) < 120.0


def test_c03_winding_bounds_hold_without_exception(suite):
    for genus in SUITE_GENERA:
        for _curve, _basis, rep in suite.rows[genus]:
            df = rep.genus + 1 - rep.gcd_degree
            assert rep.deg_f == df
            assert (rep.winding_arg - df) % 2 == 0
            assert -df < rep.winding_arg <= df
            if rep.gcd_degree == 0 and rep.genus >= 1:
                assert abs(rep.winding_arg) <= df - 2


def test_c04_winding_algorithms_agree_and_boundary_is_loud(suite):
    for genus in SUITE_GENERA:
        for _curve, _basis, rep in suite.rows[genus]:
            assert rep.winding_arg == rep.winding_roots
    # a root of u 2e-10 off the unit circle, its reflection in v = rho*(conj u)
    # and a gcd tol below their split, so not shared: refuse, not guess
    u = CPoly.from_roots([(1.0 + 2e-10) * np.exp(1.1j), 0.3])
    v = CPoly(np.conj(u.coeffs[::-1]))
    pencil = SimpleNamespace(b1=(u + v) * 0.5, b2=(u - v) * (-0.5j),
                             curve=build_curve([0.5]))
    with pytest.raises(InvariantError, match="boundary"):
        winding_roots(pencil, 1e-12)


def test_c05_genus_one_moduli_are_uniform():
    for index in range(500):
        rng = np.random.default_rng(np.random.SeedSequence(77, spawn_key=(index,)))
        rep = classify(build_curve(sample_eta(1, rng)))
        assert rep.deg_f == 2
        assert rep.winding_arg == 0
        assert rep.gcd_degree == 0


def test_c06_strata_are_reachable(suite):
    t0 = time.perf_counter()
    seen_g2 = {rep.stratum for _c, _b, rep in suite.rows[2]}
    assert {"V_-1", "V_1"} <= seen_g2
    for jumps, stratum in (((-1, -1), "V_-2"), ((-1, 1), "V_0"), ((1, 1), "V_2")):
        rep = classify(grow_to_genus3(jumps))
        assert rep.genus == 3
        assert rep.stratum == stratum
    assert time.perf_counter() - t0 < 600.0


def test_c07_handle_attachment_laws():
    cases = [
        (build_curve([0.5]), (0.9, 1.7, 2.6)),
        (build_curve([-0.35 + 0.42j]), (0.6, -1.3, 2.9)),
        (build_curve([0.41 + 0.2j, -0.33 - 0.41j]), (0.9, -2.2, 1.9)),
        (build_curve([0.2 - 0.55j, -0.52 + 0.21j]), (1.4, -0.7)),
    ]
    triples = 0
    for curve, angles in cases:
        for psi in angles:
            for t in (1e-2, 1e-3):
                chk = handle_invariant_check(curve, complex(np.exp(1j * psi)), t)
                assert chk.t == t, "law needed halving at t=%g" % t
                assert chk.deg_f_after == chk.deg_f_before + 1
                assert chk.winding_after - chk.winding_before == -chk.sign_slope
                assert len(chk.new_circle_critical_points) == 2
                triples += 1
    assert triples >= 20


def test_c08_tangent_residuals(suite):
    def scale(tan):
        return max(1.0, tan.a.norm_inf(), tan.b1.norm_inf(), tan.b2.norm_inf(),
                   tan.c1.norm_inf(), tan.c2.norm_inf())

    g0 = build_curve([])
    tan = rotation_tangent(g0, solve_Ba(g0))
    assert max(tan.residuals().values()) < 1e-12 * scale(tan)
    assert tan.Q.is_zero()
    for genus in (1, 2, 3):
        for curve, basis, _rep in suite.rows[genus][:3]:
            rot = rotation_tangent(curve, basis)
            assert max(rot.residuals().values()) < 1e-12 * scale(rot)
            assert rot.Q.is_zero()
            gen = whitham_tangent(curve, basis, Q_GENERIC)
            res = gen.residuals()
            assert set(res) == {"pencil", "derivative1", "derivative2",
                                "compatibility"}
            assert max(res.values()) < 1e-9 * scale(gen)


def cumulative_drift(records):
    out = 0.0
    for key in ("periods_b1", "periods_b2"):
        first = getattr(records[0], key)
        last = getattr(records[-1], key)
        out = max(out, float(np.max(np.abs(last - first))))
    return out


def test_c09_flow_conserves_periods_at_third_order():
    curve = build_curve([0.41 + 0.2j, -0.33 - 0.41j])
    fine = flow(curve, rotation_selector, dt=1e-3, steps=100)
    assert cumulative_drift(fine) < 1e-6
    for rec in fine[1:]:
        assert rec.drift < 1e-6
    # halving dt over a fixed horizon must cut the drift by at least 8x
    coarse = cumulative_drift(flow(curve, rotation_selector, dt=2e-2, steps=25))
    halved = cumulative_drift(flow(curve, rotation_selector, dt=1e-2, steps=50))
    assert coarse / halved >= 8.0


def test_c10_stratum_probe_dimensions():
    S1 = {
        1: shared_plane([np.exp(0.4j)], [], [0.35]),
        2: shared_plane([np.exp(-1.1j)], [], [0.3, -0.4j]),
        3: shared_plane([np.exp(0.7j)], [], [0.3, -0.2 + 0.4j, 0.5j]),
    }
    for genus, plane in S1.items():
        rep = stratum_dimension_probe(plane)
        assert rep.case == "S1_simple"
        assert rep.dimension == 2 * genus - 1
        assert not rep.singular

    pairs = {
        2: shared_plane([], [0.55 + 0.2j], [0.3]),
        3: shared_plane([], [0.5 - 0.3j], [0.3, 0.2 + 0.5j]),
    }
    for genus, plane in pairs.items():
        rep = stratum_dimension_probe(plane)
        assert rep.case == "pair_off_circle"
        assert rep.dimension == 2 * genus - 2
        assert not rep.singular
    # at genus 1 that stratum leaves the graph chart entirely
    with pytest.raises(ValidationError, match="graph"):
        shared_plane([], [0.5 + 0.1j], [])

    doubles = {
        2: shared_plane([np.exp(1.2j), np.exp(-1.4j)], [], [0.3]),
        3: shared_plane([np.exp(1.3j), np.exp(-0.5j)], [], [0.25, -0.45]),
    }
    for genus, plane in doubles.items():
        rep = stratum_dimension_probe(plane)
        assert rep.case == "S1_double"
        assert rep.singular
        assert rep.sheets == 2
        assert rep.sheet_dimensions == (2 * genus - 1, 2 * genus - 1)


def test_c11_period_map_commutes_with_classification(suite):
    for genus in SUITE_GENERA:
        for curve, _basis, rep in suite.rows[genus]:
            gr = gr_classify(B_map(curve))
            assert gr["gcd_degree"] == rep.gcd_degree
            want = sorted(
                (complex(z) for z in rep.gcd_roots if abs(abs(z) - 1.0) <= 1e-6),
                key=lambda z: np.angle(z))
            got = sorted((complex(z) for z in gr["S1_roots"]),
                         key=lambda z: np.angle(z))
            assert len(want) == len(got)
            for a, b in zip(want, got):
                assert abs(a - b) < 1e-6
