"""Graph-coordinate planes, the period correspondence, stratum probes."""

import warnings

import numpy as np
import pytest

from spectralcurves import grassmann
from spectralcurves.curve import build_curve, rotate_curve
from spectralcurves.errors import InvariantError, ResolutionError, ValidationError
from spectralcurves.grassmann import (
    B_map,
    GrPlane,
    _basis_coeffs,
    _fit_design,
    _membership_residuals,
    _windowed_circle_min,
    gr_classify,
    immersion_rank,
    plane_basis,
    plane_from_dict,
    plane_from_json,
    plane_from_pencil,
    plane_to_dict,
    plane_to_json,
    stratum_dimension_probe,
)
from spectralcurves.invariants import GCD_TOL, _common_roots, classify
from spectralcurves.periods import solve_Ba
from spectralcurves.polyring import resultant

from conftest import counting_approx_gcd, counting_roots, random_curve, shared_plane


# ------------------------------------------------------------ chart layer


def test_plane_basis_normalization():
    plane = GrPlane(genus=2, M=np.array([[0.3, -1.1], [0.7, 0.2]]))
    b1, b2 = plane_basis(plane)
    assert complex(b1(0.0)) == 1.0
    assert complex(b2(0.0)) == 1j
    assert b1.coeffs[-1] == pytest.approx(1.0)
    assert b2.coeffs[-1] == pytest.approx(-1j)


def test_plane_from_pencil_inverts_basis_up_to_mixing():
    plane = GrPlane(genus=2, M=np.array([[0.3, -1.1], [0.7, 0.2]]))
    b1, b2 = plane_basis(plane)
    # an arbitrary real recombination spans the same plane
    w1 = b1 * 2.0 + b2 * 0.5
    w2 = b1 * (-1.0) + b2 * 3.0
    back = plane_from_pencil(w1, w2)
    assert back.genus == plane.genus
    assert np.allclose(back.M, plane.M, atol=1e-12)


def test_plane_without_graph_form_is_rejected():
    # every element of this pencil shares the reflection pair of mu, which
    # forces an element vanishing at the origin: no graph coordinates
    with pytest.raises(ValidationError, match="graph"):
        shared_plane([], [0.5 + 0.1j], [])


@pytest.mark.parametrize("genus, M", [(-1, []), (1, [[np.nan, 0.0]])])
def test_plane_rejects_negative_genus_and_non_finite_entries(genus, M):
    with pytest.raises(ValidationError, match="nonnegative|non-finite"):
        GrPlane(genus, M)


def test_plane_serialization_roundtrip():
    plane = GrPlane(genus=1, M=np.array([[-2.0, 0.5]]))
    back = plane_from_dict(plane_to_dict(plane))
    assert back.genus == 1
    assert np.allclose(back.M, plane.M)
    again = plane_from_json(plane_to_json(plane))
    assert np.allclose(again.M, plane.M)


# ------------------------------------------------------ period->plane map


@pytest.mark.parametrize("genus", [0, 1, 2, 3, 4])
def test_period_map_plane_holds_the_solved_basis_and_its_gcd(genus, monkeypatch):
    # graph form is exact on both sides, so the plane's basis is the solved
    # basis bit for bit and gr_classify meets classify's gcd in the memo
    counted = counting_approx_gcd(monkeypatch)
    for seed in range(3):
        curve = random_curve(genus, 60 + seed)
        basis = solve_Ba(curve)
        b1, b2 = plane_basis(B_map(curve))
        assert (b1, b2) == (basis.b1, basis.b2)
        assert (hash(b1), hash(b2)) == (hash(basis.b1), hash(basis.b2))
        _common_roots.cache_clear()
        counted.calls = 0
        classify(curve, basis)
        gr_classify(B_map(curve))
        assert counted.calls == 1


def test_period_map_frozen_values():
    assert np.allclose(B_map(build_curve([0.5])).M, [[-2.24631994, 0.0]], atol=1e-7)
    got = B_map(build_curve([0.41 + 0.2j, -0.33 - 0.41j])).M
    want = [[-0.63145048, -0.87719962], [-1.58788558, -0.0701987]]
    assert np.allclose(got, want, atol=1e-7)


def test_period_map_commutes_with_classification():
    for genus, seed in ((1, 61), (2, 62), (3, 63)):
        curve = random_curve(genus, seed)
        rep = classify(curve)
        gr = gr_classify(B_map(curve))
        assert gr["gcd_degree"] == rep.gcd_degree
        assert gr["in_R"] == (rep.gcd_degree > 0)
        assert len(gr["S1_roots"]) == len([z for z in rep.gcd_roots
                                           if abs(abs(z) - 1.0) <= 1e-6])


def test_gr_classify_on_and_off_stratum():
    on = shared_plane([np.exp(0.4j)], [], [0.35])
    got = gr_classify(on)
    assert got["gcd_degree"] == 1 and got["in_R"]
    assert len(got["S1_roots"]) == 1
    assert got["S1_roots"][0] == pytest.approx(np.exp(0.4j), abs=1e-8)

    off = GrPlane(genus=1, M=np.array([[0.4, 0.6]]))
    got = gr_classify(off)
    assert got["gcd_degree"] == 0 and not got["in_R"] and got["S1_roots"] == []


def test_immersion_rank_values():
    assert immersion_rank(build_curve([])) == 0
    assert immersion_rank(build_curve([0.5])) == 2
    assert immersion_rank(build_curve([0.41 + 0.2j, -0.33 - 0.41j])) == 4


@pytest.mark.parametrize("sv, rank", [
    ([], 0), ([0.0, 0.0], 0), ([3.0, 2.0, 1.0], 3), ([3.0, 2.0, 1e-5, 1e-6], 2),
    ([1.0, 1e-2, 1e-4, 1e-6], None), ([1.0, 0.0], 1),
], ids=["empty", "zero", "full", "gap", "no-gap", "exact-zero"])
def test_rank_with_gap(sv, rank):
    assert grassmann._rank_with_gap(sv) == rank


@pytest.mark.parametrize("ranks", [(None, None), (2, None), (2, 1)], ids=["none", "one", "differ"])
def test_immersion_rank_refuses_an_unresolved_rank(ranks, monkeypatch):
    answers = iter(ranks)
    monkeypatch.setattr(grassmann, "_rank_with_gap", lambda sv: next(answers))
    with pytest.raises(ResolutionError, match="rank not resolved at fd_step 0.001"):
        immersion_rank(build_curve([0.5]))


def test_immersion_rank_rotation_invariant():
    c = build_curve([0.5])
    assert immersion_rank(rotate_curve(c, 0.7)) == immersion_rank(c)


# --------------------------------------------------------- stratum probe


E = np.exp
# (circle roots, reflection-pair roots, fill roots) of shared planes
ARC_PLANES = [
    ([E(0.4j)], [], [0.35]),
    ([E(-2.2j)], [], [-0.3 + 0.2j]),
    ([E(0.4j)], [], [0.35, -0.2 + 0.3j]),
    ([E(1.2j), E(-1.4j)], [], [0.3]),
    ([E(-1.1j)], [], [0.3, -0.4j, 0.2 + 0.45j]),
    ([E(2.0j), E(3.1j)], [], [0.4, -0.3j]),
]
PAIR_PLANES = [
    ([], [0.55 + 0.2j], [-0.3j]),
    ([], [-0.4 + 0.35j], [0.25]),
    ([], [0.3 - 0.5j], [0.2, -0.45 + 0.1j]),
    ([], [-0.6j], [0.35 + 0.3j, -0.2]),
]


def test_probe_requires_stratum_membership():
    with pytest.raises(ValidationError, match="gcd degree 0"):
        stratum_dimension_probe(GrPlane(genus=1, M=np.array([[0.4, 0.6]])))


def test_probe_rejects_genus_zero():
    with pytest.raises(ValidationError, match="genus-0"):
        stratum_dimension_probe(GrPlane(genus=0, M=np.zeros((0, 2))))


def test_probe_codimension_one_circle_root():
    rep = stratum_dimension_probe(shared_plane([np.exp(0.4j)], [], [0.35]))
    assert rep.case == "S1_simple"
    assert rep.dimension == 1
    assert rep.normal_rank == 1
    assert not rep.singular
    rep2 = stratum_dimension_probe(shared_plane([np.exp(-1.1j)], [], [0.3, -0.4j]))
    assert rep2.dimension == 3 and rep2.case == "S1_simple"


def test_probe_codimension_two_reflection_pair():
    rep = stratum_dimension_probe(shared_plane([], [0.55 + 0.2j], [0.3]))
    assert rep.case == "pair_off_circle"
    assert rep.dimension == 2
    assert rep.normal_rank == 2
    assert not rep.singular


def test_probe_detects_two_sheet_crossing():
    rep = stratum_dimension_probe(
        shared_plane([np.exp(1.2j), np.exp(-1.4j)], [], [0.3]))
    assert rep.case == "S1_double"
    assert rep.singular
    assert rep.sheets == 2
    assert rep.sheet_dimensions == (3, 3)
    assert rep.dimension == 3


def test_probe_refuses_first_order_leakage():
    # a genus-2 pair at |mu| = 0.97 is split as two arc clusters, and at
    # radius 3e-4 its tangent moves do not persist.  The ratio sits at the
    # rounding floor, so its value follows the last digits of the arc
    # centres, the angles of the polished gcd roots
    plane = shared_plane([], [0.97 * np.exp(2j)], [0.2 - 0.3j])
    with pytest.raises(ResolutionError, match="persistence ratio 10.1 < 200"):
        stratum_dimension_probe(plane, 3e-4)


def test_probe_reads_its_plane_once(monkeypatch):
    # two companion solves in approx_gcd and one in _refine_gcd give the gcd
    # and its polished roots; the case split and the report reuse them
    plane = shared_plane(*ARC_PLANES[3])
    _common_roots.cache_clear()
    counted = counting_roots(monkeypatch)
    rep = stratum_dimension_probe(plane)
    assert rep.case == "S1_double"
    assert counted.calls == 3


def test_probe_refuses_a_deeper_stratum():
    # a circle root and a reflection pair: gcd degree 3
    plane = shared_plane([np.exp(0.3j)], [0.5 * np.exp(1j)], [0.2 - 0.1j])
    assert gr_classify(plane)["gcd_degree"] == 3
    with pytest.raises(ResolutionError, match="degree 3 is a deeper stratum"):
        stratum_dimension_probe(plane)


@pytest.mark.parametrize("radius", [0.0, np.inf, np.nan, -1e-3])
def test_probe_rejects_radius_that_is_not_finite_and_positive(radius):
    with pytest.raises(ValidationError, match="finite and positive"):
        stratum_dimension_probe(GrPlane(genus=1, M=np.array([[-2.0, 0.0]])),
                                radius=radius)


@pytest.mark.parametrize("radius", ["1e-3", None, 1e-3 + 0j])
def test_probe_rejects_radius_that_is_not_a_real_number(radius):
    with pytest.raises(ValidationError, match="finite and positive"):
        stratum_dimension_probe(GrPlane(genus=1, M=np.array([[-2.0, 0.0]])),
                                radius=radius)


@pytest.mark.parametrize("spec", [ARC_PLANES[0], PAIR_PLANES[0], ARC_PLANES[3],
                                  ARC_PLANES[4]])
def test_probe_refuses_a_fit_that_resolves_no_normal_direction(spec):
    # at radius 1e-17 the residual moves sit at the rounding floor, so no
    # fitted form has a positive eigenvalue; a sheet has codimension >= 1
    with pytest.raises(ResolutionError,
                       match="no normal direction resolved for .* at radius 1e-17"):
        stratum_dimension_probe(shared_plane(*spec), radius=1e-17)


@pytest.mark.parametrize("spec, radius, message", [
    (ARC_PLANES[2], 1.0,
     r"normal rank for arc@0.4000 inconsistent across radii \(2 at 1e\+00, 1 at 1e-01\)"),
    (ARC_PLANES[4], 2.0,
     r"normal subspace for arc@-1.1000 inconsistent across radii \(alignment 0.307\)"),
])
def test_probe_refuses_normals_that_disagree_across_radii(spec, radius, message):
    with pytest.raises(ResolutionError, match=message):
        stratum_dimension_probe(shared_plane(*spec), radius=radius)


@pytest.mark.parametrize("roots, error, message", [
    ([0.5], InvariantError, "degree one with root 0.5"),
    ([0.5, 3.0], InvariantError, "not a reflection pair"),
    ([0.5, 0.6], ResolutionError, "layout not resolved"),
])
def test_probe_case_split_refuses_gcd_roots_it_cannot_place(roots, error, message):
    with pytest.raises(error, match=message):
        _membership_residuals(2, roots, GCD_TOL)


@pytest.mark.parametrize("seed", [None, 1.5, -1, np.random.default_rng(1)])
def test_probe_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        stratum_dimension_probe(shared_plane(*ARC_PLANES[0]), seed=seed)


def test_probe_refuses_a_bool_radius_and_seed():
    # True ran at radius 1.0 (ending in a ResolutionError) and as seed 1
    plane = shared_plane(*ARC_PLANES[0])
    with pytest.raises(ValidationError, match="finite and positive"):
        stratum_dimension_probe(plane, radius=True)
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        stratum_dimension_probe(plane, seed=True)


def test_probe_refuses_a_radius_pair_with_a_validation_error():
    # the refusal message took a tuple for its format arguments (TypeError)
    with pytest.raises(ValidationError, match=r"radius \(0.001, 0.002\) must be finite"):
        stratum_dimension_probe(shared_plane(*ARC_PLANES[0]), radius=(1e-3, 2e-3))


def test_probe_is_deterministic():
    plane = shared_plane([np.exp(0.4j)], [], [0.35])
    a = stratum_dimension_probe(plane, seed=7)
    b = stratum_dimension_probe(plane, seed=7)
    assert a == b


# ------------------------------------------------ batched residuals


def _residuals(plane):
    """The probe's residual map of a plane, read from its memoised gcd roots."""
    roots = _common_roots(*plane_basis(plane), GCD_TOL)[1]
    return _membership_residuals(plane.genus, roots, GCD_TOL)


def _scalar_windowed_circle_min(b1, b2, psi0, width, coarse=96):
    """One plane's windowed circle minimum as it was computed before the
    residuals were batched: grid search, then scipy's bounded Brent."""
    from scipy.optimize import minimize_scalar

    def f(theta):
        lam = np.exp(1j * np.asarray(theta))
        return np.abs(b1(lam)) ** 2 + np.abs(b2(lam)) ** 2

    grid = psi0 + np.linspace(-width, width, coarse)
    vals = f(grid)
    k = int(np.argmin(vals))
    lo = grid[max(0, k - 1)]
    hi = grid[min(coarse - 1, k + 1)]
    res = minimize_scalar(lambda t: float(f(t)), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-14})
    return min(float(res.fun), float(vals[k]))


def _scalar_resultant_residual(plane):
    """One plane's normalized |resultant|, as computed before batching."""
    q1, q2 = plane_basis(plane)
    scale = (q1.norm_inf() * q2.norm_inf()) ** (plane.genus + 1)
    return abs(resultant(q1, q2)) / max(scale, 1e-300)


def _perturbations(plane, n, scale, seed):
    rng = np.random.default_rng(seed)
    return plane.M[None] + scale * rng.standard_normal((n, plane.genus, 2))


@pytest.mark.parametrize("spec", ARC_PLANES)
def test_windowed_minimum_matches_scipy_brent(spec):
    plane = shared_plane(*spec)
    g = plane.genus
    stack = _perturbations(plane, 24, 1e-3, seed=g)
    c1, c2 = _basis_coeffs(g, stack)
    for z in spec[0]:
        psi0 = float(np.angle(z))
        got = _windowed_circle_min(c1, c2, [psi0], 0.3)[:, 0]
        want = [_scalar_windowed_circle_min(*plane_basis(GrPlane(g, m)),
                                            psi0, 0.3) for m in stack]
        assert got.shape == (len(stack),)
        assert np.allclose(got, want, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("scale", [3e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("spec", ARC_PLANES)
def test_windowed_minimum_is_below_a_fine_grid(spec, scale):
    # the window's minimum over 200,001 angles, from CPoly evaluation
    plane = shared_plane(*spec)
    g = plane.genus
    stack = _perturbations(plane, 8, scale, seed=g)
    c1, c2 = _basis_coeffs(g, stack)
    for z in spec[0]:
        psi0 = float(np.angle(z))
        lam = np.exp(1j * (psi0 + np.linspace(-0.3, 0.3, 200_001)))
        got = _windowed_circle_min(c1, c2, [psi0], 0.3)[:, 0]
        for m, value in zip(stack, got):
            b1, b2 = plane_basis(GrPlane(g, m))
            grid = np.min(np.abs(b1(lam)) ** 2 + np.abs(b2(lam)) ** 2)
            assert value <= grid + 1e-15


def test_windowed_minimum_at_an_arc_end_no_critical_angle_reaches():
    # Off the stratum, with a window around psi0 = pi that holds the
    # maximum: f falls from the maximum for more than pi to the left, so
    # the critical angle beyond the low end a is clipped to the other
    # end, and only the arc-end candidate finds the minimum at a.
    plane = GrPlane(2, np.array([[-1.22, 0.06], [-0.03, -1.48]]))
    c1, c2 = _basis_coeffs(2, plane.M[None])
    b1, b2 = plane_basis(plane)
    for psi0 in (np.pi, 3.0, -3.0, 0.5):
        lam = np.exp(1j * (psi0 + np.linspace(-0.3, 0.3, 200_001)))
        grid = np.min(np.abs(b1(lam)) ** 2 + np.abs(b2(lam)) ** 2)
        got = _windowed_circle_min(c1, c2, [psi0], 0.3)[0, 0]
        assert grid * (1.0 - 1e-9) <= got <= grid * (1.0 + 1e-13)


# Real-symmetric planes (b1 real, b2 imaginary coefficients), so f is
# even about psi0 and about psi0 + pi, and the top coefficient of the
# derivative polynomial in tan((theta - psi0) / 2), which is
# f'(psi0 + pi), vanishes: exactly at psi0 = 0, to rounding at psi0 = pi.
# At M = 0 of genus 1, f = |1 + l^2|^2 + |1 - l^2|^2 = 4 on the circle and
# every coefficient vanishes.  The mask marks the chart entries that keep
# the plane real-symmetric.
SYMMETRIC_PLANES = [
    (GrPlane(1, np.array([[-2.0, 0.0]])), 0.0, [[1, 0]]),
    (shared_plane([-1.0], [], [0.35, -0.4]), np.pi, [[1, 0], [0, 1]]),
    (GrPlane(1, np.zeros((1, 2))), 0.7, [[0, 0]]),
]


@pytest.mark.parametrize("plane, psi0, mask", SYMMETRIC_PLANES)
def test_windowed_minimum_with_vanishing_top_coefficient(plane, psi0, mask):
    g = plane.genus
    rng = np.random.default_rng(3)
    stack = plane.M[None] + 1e-3 * rng.standard_normal((9, g, 2)) * mask
    stack[0] = plane.M
    c1, c2 = _basis_coeffs(g, stack)
    assert not c1.imag.any() and not c2.real.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _windowed_circle_min(c1, c2, [psi0], 0.3)[:, 0]
    want = [_scalar_windowed_circle_min(*plane_basis(GrPlane(g, m)), psi0, 0.3)
            for m in stack]
    assert np.all(np.isfinite(got))
    assert np.allclose(got, want, rtol=1e-6, atol=1e-15)


@pytest.mark.parametrize("spec", ARC_PLANES + PAIR_PLANES)
def test_residual_rows_do_not_depend_on_the_stack(spec):
    plane = shared_plane(*spec)
    stack = _perturbations(plane, 17, 1e-3, seed=5)
    _, labels, rho = _residuals(plane)
    whole = rho(stack)
    assert whole.shape == (len(stack), len(labels))
    rows = np.concatenate([rho(stack[i:i + 1]) for i in range(len(stack))])
    assert whole.tobytes() == rows.tobytes()
    assert rho(stack[::-1]).tobytes() == whole[::-1].tobytes()
    # nor does an arc's column depend on the other arcs of the plane
    psis = [float(np.angle(z)) for z in spec[0]]
    both = _windowed_circle_min(*_basis_coeffs(plane.genus, stack), psis, 0.3)
    for j, psi in enumerate(psis):
        one = _windowed_circle_min(*_basis_coeffs(plane.genus, stack), [psi], 0.3)
        assert both[:, j].tobytes() == one[:, 0].tobytes()


@pytest.mark.parametrize("spec", PAIR_PLANES)
def test_resultant_residual_is_the_scalar_resultant_bit_for_bit(spec):
    plane = shared_plane(*spec)
    case, labels, rho = _residuals(plane)
    assert case == "pair_off_circle" and len(labels) == 1
    stack = np.concatenate([plane.M[None],
                            _perturbations(plane, 12, 1e-3, seed=1),
                            _perturbations(plane, 12, 1e-1, seed=2)])
    want = [_scalar_resultant_residual(GrPlane(plane.genus, m)) for m in stack]
    assert np.array_equal(rho(stack)[:, 0], want)


def test_resultant_residual_refuses_coefficients_it_would_trim():
    plane = shared_plane(*PAIR_PLANES[0])
    _, [_], rho = _residuals(plane)
    huge = np.stack([plane.M, plane.M])
    huge[1, 0, 0] = 2e9
    with pytest.raises(ValidationError, match="below 1e9"):
        rho(huge)
    assert np.all(np.isfinite(rho(huge[:1])))


# Discrete report fields of the probe on planes of genus 2 and 3, frozen
# from the pair-by-pair scipy implementation: (spec, (genus, gcd_degree,
# case, dimension, singular, sheets, sheet_dimensions, normal_rank,
# samples)).
FROZEN_PROBES = [
    (([E(0.4j)], [], [0.35, -0.2 + 0.3j]),
     (2, 1, "S1_simple", 3, False, 1, (3,), 1, 45)),
    (([E(2.5j)], [], [0.5j, 0.25 - 0.1j]),
     (2, 1, "S1_simple", 3, False, 1, (3,), 1, 45)),
    (([E(-1.1j)], [], [0.3, -0.4j, 0.2 + 0.45j]),
     (3, 1, "S1_simple", 5, False, 1, (5,), 1, 84)),
    (([E(3.0j)], [], [0.15 + 0.15j, -0.5, 0.4 - 0.3j]),
     (3, 1, "S1_simple", 5, False, 1, (5,), 1, 84)),
    (PAIR_PLANES[0], (2, 2, "pair_off_circle", 2, False, 1, (2,), 2, 45)),
    (PAIR_PLANES[1], (2, 2, "pair_off_circle", 2, False, 1, (2,), 2, 45)),
    (PAIR_PLANES[2], (3, 2, "pair_off_circle", 4, False, 1, (4,), 2, 84)),
    (PAIR_PLANES[3], (3, 2, "pair_off_circle", 4, False, 1, (4,), 2, 84)),
    (([E(1.2j), E(-1.4j)], [], [0.3]),
     (2, 2, "S1_double", 3, True, 2, (3, 3), 2, 45)),
    (([E(0.3j), E(1.4j)], [], [-0.25 + 0.2j]),
     (2, 2, "S1_double", 3, True, 2, (3, 3), 2, 45)),
    (([E(2.0j), E(3.1j)], [], [0.4, -0.3j]),
     (3, 2, "S1_double", 5, True, 2, (5, 5), 2, 84)),
    (([E(-0.5j), E(0.6j)], [], [0.2 + 0.3j, -0.45]),
     (3, 2, "S1_double", 5, True, 2, (5, 5), 2, 84)),
]


@pytest.mark.parametrize("spec, want", FROZEN_PROBES)
def test_probe_discrete_fields_frozen(spec, want):
    rep = stratum_dimension_probe(shared_plane(*spec))
    got = (rep.genus, rep.gcd_degree, rep.case, rep.dimension, rep.singular,
           rep.sheets, rep.sheet_dimensions, rep.normal_rank, rep.samples)
    assert got == want
    assert rep.persistence_ratio > 200.0


def test_probe_makes_one_fit_pass_and_one_persistence_pass(monkeypatch):
    # the base point and both fit radii go to the residual map as one
    # stack, the persistence moves as a second, and no lstsq is solved
    calls = []
    real = grassmann._membership_residuals

    def counted(genus, roots, tol):
        case, labels, rho = real(genus, roots, tol)

        def rho_counted(mats):
            calls.append(len(mats))
            return rho(mats)

        return case, labels, rho_counted

    def no_lstsq(*args, **kwargs):
        raise AssertionError("lstsq called")

    planes = [shared_plane(*spec) for spec in (ARC_PLANES[2], PAIR_PLANES[0],
                                               ARC_PLANES[3], ARC_PLANES[5])]
    monkeypatch.setattr(grassmann, "_membership_residuals", counted)
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    for plane in planes:
        calls.clear()
        rep = stratum_dimension_probe(plane)
        tangent = min(3, 2 * plane.genus - rep.normal_rank)
        assert calls == [2 * rep.samples + 1, 2 * tangent]


@pytest.mark.parametrize("radius", [1e-3, 3e-4, 1e-4, 3e-5])
@pytest.mark.parametrize("spec", ARC_PLANES + PAIR_PLANES)
def test_cached_fit_matches_lstsq(spec, radius):
    # the pseudo-inverse fixed per (dim, samples, seed) against lstsq on
    # features rebuilt from the directions, on the probe's own residuals
    plane = shared_plane(*spec)
    dim = 2 * plane.genus
    rep = stratum_dimension_probe(plane, radius)
    dirs, pinv = _fit_design(dim, rep.samples, 11)
    assert not dirs.flags.writeable and not pinv.flags.writeable
    _, _, rho = _residuals(plane)
    rho0 = rho(plane.M[None])[0]
    ys = (rho(plane.M + radius * dirs.reshape(-1, *plane.M.shape)) - rho0) / radius**2
    iu = np.triu_indices(dim)
    features = np.concatenate([dirs, [np.outer(v, v)[iu] for v in dirs]], axis=1)
    for y in ys.T:
        want = np.linalg.lstsq(features, y, rcond=None)[0]
        assert np.linalg.norm(pinv @ y - want) <= 1e-13 * np.linalg.norm(want)
