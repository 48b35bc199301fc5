"""Winding invariants, gcd validation, stratum classification."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from spectralcurves.curve import build_curve, rotate_curve
from spectralcurves.errors import (InvariantError, ResolutionError, SpectralError,
                                   ValidationError)
from spectralcurves.grassmann import B_map, gr_classify
from spectralcurves.invariants import (
    GCD_TOL,
    _circle_count,
    _common_roots,
    _deflated_pair,
    _disc_count,
    _refine_gcd,
    circle_map,
    classify,
    deg_f,
    pencil_gcd,
    winding_arg,
    winding_roots,
)
from spectralcurves.periods import derived_pencil, solve_Ba
from spectralcurves.polyring import CPoly, _der, real_place, roots, symmetrize_reality
from spectralcurves.whitham import attach_handle, handle_invariant_check

from conftest import (LOCUS_A, LOCUS_B, LOCUS_C, counting_approx_gcd, counting_roots,
                      random_curve)

# classification is expensive enough to share across assertions
FROZEN_MINUS = [-0.3967 - 0.5356j, -0.2717 - 0.7730j, -0.0925 + 0.3364j]
FROZEN_PLUS = [0.1969 - 0.7506j, 0.3100 - 0.5850j, 0.4369 - 0.7826j]


def synthetic_pencil(u, v=None, curve=None):
    """Pencil with b1 + i b2 = u and b1 - i b2 = v; v defaults to the circle
    reflection rho*(conj u), which makes b1 and b2 reflection-real."""
    v = CPoly(np.conj(u.coeffs[::-1])) if v is None else v
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


@pytest.mark.parametrize("eta", [[0.9999], [0.9999, 0.9999j]])
def test_near_nodal_curve_is_unresolved_not_a_bug(eta):
    # every root within 1e-4 of S^1: the gcd at GCD_TOL swallows the pencil
    # down to deg f = 1, which no curve of positive genus has
    with pytest.raises(ResolutionError, match="gcd of degree %d at tolerance 1e-06"
                       % len(eta)):
        classify(build_curve(eta))


def test_near_nodal_genus_one_resolves_at_3e_4():
    assert classify(build_curve([np.exp(-3e-4)])).stratum == "V_0"


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
    # a root of u 2e-10 off the unit circle, and its reflection in v, at a
    # gcd tol below their split, so the pencil does not share it: the count
    # is ill-posed and must refuse rather than guess
    u = CPoly.from_roots([(1.0 + 2e-10) * np.exp(1.1j), 0.3])
    pb = synthetic_pencil(u)
    assert pencil_gcd(pb.b1, pb.b2, 1e-12).formal_degree == 0
    with pytest.raises(InvariantError, match="boundary"):
        winding_roots(pb, 1e-12)


def test_winding_roots_counts_reflection_split():
    # u = b1 + i b2 with these roots; v = rho*(conj u) has them reflected
    for rts, winding in (((0.4, 1.7), 0), ((0.4, -0.2j), 2), ((2.5, 1.7j), -2)):
        pb = synthetic_pencil(CPoly.from_roots(rts))
        assert winding_roots(pb) == winding_arg(pb) == winding


def test_pencil_that_is_not_reflection_real_is_refused():
    # v with roots that are not those of u reflected: b1, b2 are not
    # reflection-real, and neither count, nor classify, reads such a pencil
    pb = synthetic_pencil(CPoly.from_roots([0.4, 1.7]), CPoly.from_roots([0.2, 0.5]))
    for count in (winding_roots, winding_arg, lambda b: classify(b.curve, b), circle_map):
        with pytest.raises(ValidationError, match="not reflection-real"):
            count(pb)


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


def test_refine_gcd_keeps_the_candidate_root_where_newton_cannot_polish():
    # lam^2 has derivative 0 at its root, which stops Newton at once; lam - 2
    # pulls a candidate root at 0.5 farther than 0.05, which is not kept
    sq, far = CPoly([0.0, 0.0, 1.0]), CPoly([-2.0, 1.0])
    for gcd, p, want in ((CPoly([0.0, 1.0]), sq, [0]), (CPoly([-0.5, 1.0]), far, [0.5])):
        assert _refine_gcd(gcd, p, p.derivative(), p, p.derivative()).tolist() == want


def _candidate_recorder(monkeypatch):
    """Record the degree of each candidate the gcd solve hands _common_roots,
    and count the candidates it refines."""
    import spectralcurves.invariants as inv
    import spectralcurves.polyring as polyring

    real_solve, real_refine = polyring._gcd_candidates, inv._refine_gcd
    built, refined = [], []

    def recording(p, q, tol):
        for gcd in real_solve(p, q, tol):
            built.append(gcd.formal_degree)
            yield gcd

    def refining(gcd, *elements):
        refined.append(gcd.formal_degree)
        return real_refine(gcd, *elements)

    monkeypatch.setattr(inv, "_gcd_candidates", recording)
    monkeypatch.setattr(inv, "_refine_gcd", refining)
    return built, refined


def test_gcd_solve_walks_the_candidates_of_a_handle_pencil(monkeypatch):
    # at t = 1e-3 the handle's nearly-common root pair passes the first
    # threshold and fails deflation, and the next distinct degree is 0: one
    # SVD and two companion solves, plus the one candidate's re-solve
    h = attach_handle(build_curve([0.5]), None, complex(np.exp(0.9j)), 1e-3)
    _common_roots.cache_clear()
    solves = counting_approx_gcd(monkeypatch)
    built, refined = _candidate_recorder(monkeypatch)
    solved = counting_roots(monkeypatch)
    svds, real_svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or real_svd(*a, **k))
    gcd, rts = _common_roots(h.basis.b1, h.basis.b2, GCD_TOL)
    assert (gcd.formal_degree, len(rts)) == (0, 0)
    assert (built, refined) == ([1, 0], [1])
    assert (solves.calls, len(svds), solved.calls) == (1, 1, 2 + len(refined))


@pytest.mark.parametrize("pencil, degrees, paired", [
    ((CPoly.from_roots([0.6 + 0.2j, -0.5j, 0.3]),
      CPoly.from_roots([0.6 + 0.2j, -0.5j + 1e-9, 0.2 - 0.7j])), [2, 1], True),
    ((CPoly([0.0]), CPoly.from_roots([0.6 + 0.2j, -0.5j])), [2], False),
], ids=["split-pair", "zero-element"])
def test_gcd_refusal_builds_each_distinct_candidate_once(pencil, degrees, paired, monkeypatch):
    # one shared root and one pair 1e-9 apart leave a common factor at every
    # threshold, of degree 2 and then 1; gcd(0, q) is q, unpaired.  With
    # deflation refusing, each candidate is built and refined once before
    # the refusal
    import spectralcurves.invariants as inv

    def refuse(p, gcd):
        raise ResolutionError("gcd deflation refused")

    _common_roots.cache_clear()
    built, refined = _candidate_recorder(monkeypatch)
    solved = counting_roots(monkeypatch)
    monkeypatch.setattr(inv, "_deflate", refuse)
    with pytest.raises(ResolutionError, match="^gcd estimate failed to stabilize under "
                                              "tolerance tightening$"):
        _common_roots(*pencil, GCD_TOL)
    assert built == refined == degrees
    assert solved.calls == 2 * paired + len(refined)


# ------------------------------------------------------------ gcd memo


def test_gcd_memo_is_bitwise_equal_cold_warm_and_cleared():
    coprime = solve_Ba(random_curve(2, 21))
    u = CPoly.from_roots([np.exp(1.2j), np.exp(-1.4j), 0.3])
    shared = (symmetrize_reality(u), symmetrize_reality(u * (-1j)))
    pencils = [(coprime.b1, coprime.b2), shared]

    def run(order):
        return {i: (pencil_gcd(*pencils[i]).coeffs.tobytes(),
                    _common_roots(*pencils[i])[1].tobytes()) for i in order}

    _common_roots.cache_clear()
    cold = run((0, 1))
    assert len(_common_roots(*shared)[1]) == 2
    assert run((0, 1)) == cold                      # warm
    _common_roots.cache_clear()
    assert run((1, 0)) == cold                      # cleared, other order
    _common_roots.cache_clear()
    assert run((0, 1)) == cold


def test_gcd_memo_does_not_cache_errors(monkeypatch):
    counted = counting_approx_gcd(monkeypatch)
    zero = CPoly([0.0, 0.0, 0.0])
    for calls in (1, 2):
        with pytest.raises(ValidationError, match="zero polynomials"):
            pencil_gcd(zero, zero)
        assert counted.calls == calls


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0],
                         ids=["nan", "inf", "negative", "zero"])
def test_gcd_tol_must_be_finite_and_positive(tol):
    # nan, inf, 0 and -1 are refused where the gcd is read, not taken for a zero pencil or a tol
    curve = build_curve([0.5])
    basis = solve_Ba(curve)
    for call in (lambda: classify(curve, basis, tol=tol),
                 lambda: gr_classify(B_map(curve), tol=tol),
                 lambda: pencil_gcd(basis.b1, basis.b2, tol)):
        with pytest.raises(ValidationError, match="gcd tol must be finite and positive"):
            call()


def test_gcd_tol_that_is_a_bool_or_a_pair_is_refused():
    # True was read as tol 1 ("gcd of two zero polynomials is undefined"),
    # and a pair ended in the refusal's own formatting (TypeError)
    curve = build_curve([0.5, -0.3 + 0.4j])
    basis = solve_Ba(curve)
    with pytest.raises(ValidationError, match="gcd tol must be finite and positive"):
        classify(curve, basis, tol=True)
    with pytest.raises(ValidationError, match=r"got \(1e-06, 1e-06\)"):
        classify(curve, basis, tol=(1e-6, 1e-6))
    with pytest.raises(ValidationError, match="gcd tol must be finite and positive"):
        pencil_gcd(basis.b1, basis.b2, True)


def test_classify_computes_one_gcd_per_basis(monkeypatch):
    basis = solve_Ba(random_curve(2, 22))
    _common_roots.cache_clear()
    counted = counting_approx_gcd(monkeypatch)
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


def _handle_bases():
    for genus, seed in ((1, 0), (2, 1)):
        for t in (1e-2, 1e-3):
            for psi in (0.9, 2.0, -2.5):
                yield attach_handle(random_curve(genus, seed), None, np.exp(1j * psi), t).basis


def test_circle_map_matches_derived_pencil_formula():
    # f~ = u/v from the deflated b1 +- i b2 against -b0/binf of the public
    # derived pencil.  The two roundings differ by a few eps relative to
    # the evaluation scale ||v||_1 / |v(z)|, which a zero of v near S^1
    # (7e-4 from it at genus 4, seed 1) lifts above 1e-12 absolute.
    z = np.exp(2j * np.pi * np.arange(512) / 512)
    bases = [solve_Ba(random_curve(g, s)) for g in range(5) for s in range(3)]
    for basis in bases + list(_handle_bases()):
        dp = derived_pencil(basis)
        v = basis.b1 - basis.b2 * 1j
        scale = np.maximum(1.0, np.sum(np.abs(v.coeffs)) / np.abs(v(z)))
        gap = np.abs(circle_map(basis)(z) + dp.b0(z) / dp.binf(z))
        assert np.max(gap / scale) < 1e-12


# ------------------------------------------------- Schur-Cohn disc count


def test_winding_arg_solves_no_roots_and_winding_roots_reraises(monkeypatch):
    import spectralcurves.invariants as inv

    basis = solve_Ba(random_curve(2, 12))
    expected = winding_roots(basis)
    assert expected == -1

    for exc in (ResolutionError("root set not resolved"),
                TypeError("not a typed resolution failure")):
        def failing(p, tol=1e-9, exc=exc):
            raise exc

        monkeypatch.setattr(inv, "roots", failing)
        # the disc count reads coefficients only; the root count re-raises
        assert winding_arg(basis) == expected
        with pytest.raises(type(exc), match=str(exc)):
            winding_roots(basis)


def test_near_circle_zero_pole_pair_counts_one():
    # a zero of u just inside S^1 and its reflection, a zero of v just
    # outside, each 1e-7 off the circle: f~ swings a full turn over a ~1e-7
    # arc.  Degree 1 is the pencil of a genus-zero curve.
    u = CPoly.from_roots([(1.0 - 1e-7) * np.exp(1j)])
    pb = synthetic_pencil(u, curve=build_curve([]))
    assert winding_arg(pb) == winding_roots(pb) == 1


def test_zero_on_the_circle_is_refused_by_the_disc_count():
    # u and v = rho*(conj u) share the zero on S^1; at a gcd tol of 1e-300
    # nothing is deflated, and v keeps it
    pb = synthetic_pencil(CPoly.from_roots([np.exp(1.1j), 0.3]))
    assert pencil_gcd(pb.b1, pb.b2, 1e-300).formal_degree == 0
    with pytest.raises(ResolutionError, match="winding not resolved"):
        winding_arg(pb, 1e-300)


def test_disc_count_refuses_the_zero_polynomial():
    from spectralcurves.invariants import _disc_count

    with pytest.raises(ValidationError, match="zero polynomial"):
        _disc_count(CPoly([0.0, 0.0]))


@pytest.mark.parametrize("degree", range(9))
def test_disc_count_matches_companion_roots(degree):
    from spectralcurves.invariants import _disc_count

    rng = np.random.default_rng(400 + degree)
    for _ in range(60):
        r = np.exp(rng.uniform(-1.5, 1.5, degree)) * np.exp(2j * np.pi * rng.uniform(size=degree))
        r = np.where(np.abs(np.abs(r) - 1.0) < 1e-6, 2.0 * r, r)
        lead = complex(*rng.normal(size=2))
        p = CPoly.from_roots(r) * lead if degree else CPoly([lead])
        # zero trailing coefficients (formal degree above the true one) are legal
        p = CPoly(p.coeffs, degree=degree + int(rng.integers(2)))
        want = int(np.sum(np.abs(roots(p)) < 1.0))
        assert _disc_count(p) == want == int(np.sum(np.abs(r) < 1.0))


# ------------------------------------------------- one polynomial per count

# Windings of random_curve(g, seed) for seeds 0-3, frozen from a classify
# that solved each pencil direction once per winding algorithm; every
# report is coprime, in stratum V_<winding>.
FROZEN_WINDINGS = {1: (0, 0, 0, 0), 2: (1, -1, 1, 1), 3: (-2, -2, -2, -2),
                   4: (-3, 1, -1, -1)}


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_classify_solves_each_direction_once(genus, monkeypatch):
    # u' for the root count, v' for the Schur-Cohn count, and nothing else
    import spectralcurves.invariants as inv

    basis = solve_Ba(random_curve(genus, 0))
    num, den = _deflated_pair(basis)
    _common_roots.cache_clear()
    counted = counting_roots(monkeypatch)
    solved, real_roots = [], inv.roots
    monkeypatch.setattr(inv, "roots", lambda p, tol=1e-9: solved.append(p) or real_roots(p, tol))
    disc, real_disc = [], inv._disc_count
    monkeypatch.setattr(inv, "_disc_count", lambda p: disc.append(p) or real_disc(p))
    assert classify(basis.curve, basis).gcd_degree == 0
    assert (counted.calls, solved, disc) == (1, [num], [den])


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_classify_matches_standalone_windings_and_frozen_reports(genus):
    for seed, want in enumerate(FROZEN_WINDINGS[genus]):
        basis = solve_Ba(random_curve(genus, seed))
        rep = classify(basis.curve, basis)
        assert (rep.winding_arg, rep.winding_roots) == (winding_arg(basis),
                                                         winding_roots(basis))
        assert (rep.genus, rep.deg_f, rep.gcd_degree, rep.gcd_roots) == (genus, genus + 1, 0, ())
        assert (rep.winding_arg, rep.winding_roots, rep.v_index) == (want, want, want)
        assert (rep.stratum, rep.lambda0) == ("V_%d" % want, ())
        assert rep.genus0_flags == (False, False, False)


# ------------------------------------------------- cross-checks that must not fire


@pytest.mark.parametrize("shift, match", [
    (None, "winding algorithms disagree"),
    (2, "deg-2 bound"),
], ids=["disagree", "deg-2"])
def test_classify_cross_checks_raise_on_a_broken_count(shift, match, monkeypatch):
    # genus 1, deg f = 2, winding 0 = 2 - 2 N(v'): one disc zero of v' less
    # shifts the winding by 2 and breaks only the deg - 2 bound; shifting the
    # root count alone makes the two algorithms disagree.  (The winding
    # deg f - 2 N(v') cannot break parity or the range (-deg f, deg f].)
    import spectralcurves.invariants as inv

    basis = solve_Ba(build_curve([0.5]))
    assert classify(basis.curve, basis).winding_arg == 0
    _, den = inv._deflated_pair(basis)
    real_disc, real_roots = inv._disc_count, inv._root_winding
    if shift is None:
        monkeypatch.setattr(inv, "_root_winding", lambda *args: real_roots(*args) + 1)
    else:
        monkeypatch.setattr(inv, "_disc_count", lambda p: real_disc(p) - (p == den))
        monkeypatch.setattr(inv, "_root_winding", lambda *args: real_roots(*args) + shift)
    with pytest.raises(InvariantError, match=match):
        classify(basis.curve, basis)


# ------------------------------------------------- zeros on S^1 by Cohn's rule


def test_circle_count_matches_the_root_placement():
    # self-inversive p of degree n: k reflected pairs and n - 2k zeros on S^1
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(0, n // 2 + 1))
        inside = rng.uniform(0.1, 0.95, k) * np.exp(1j * rng.uniform(-np.pi, np.pi, k))
        rts = np.concatenate([inside, 1.0 / np.conj(inside),
                              np.exp(1j * rng.uniform(-np.pi, np.pi, n - 2 * k))])
        p = CPoly.from_roots(rts, lead=np.exp(1j * rng.uniform(-np.pi, np.pi)))
        assert _circle_count(p) == n - 2 * k


def test_circle_count_of_a_constant_is_zero():
    # W of a genus-zero circle map, lambda -> lambda, is a constant
    assert _circle_count(CPoly([-1.0])) == 0


def test_circle_count_refuses_a_double_zero_on_the_circle():
    p = CPoly.from_roots([np.exp(0.4j), np.exp(0.4j), np.exp(2.0j)])
    with pytest.raises(ResolutionError, match="not resolved"):
        _circle_count(p)


def _exact_disc_count(coeffs):
    """Zeros in the open unit disc of the polynomial with exactly these
    (double) coefficients: the Schur-Cohn recursion of ``_disc_count`` in
    exact arithmetic, or None where an exact |a0|^2 = |an|^2 leaves it
    undecided.  Doubles are dyadic rationals, so one power of two makes the
    coefficients Gaussian integers, and the recursion stays in integers."""
    parts = [Fraction(x) for c in map(complex, coeffs) for x in (c.real, c.imag)]
    den = max(f.denominator for f in parts)
    a = [(int(parts[k] * den), int(parts[k + 1] * den)) for k in range(0, len(parts), 2)]
    count, sign = 0, 1
    while True:
        while a[-1] == (0, 0):
            a.pop()
        n = len(a) - 1
        if n == 0:
            return count
        (x0, y0), (xn, yn) = a[0], a[-1]
        delta = x0 * x0 + y0 * y0 - xn * xn - yn * yn
        if delta == 0:
            return None
        if delta < 0:
            count, sign = count + sign * n, -sign
        # conj(a0) a[k] - an conj(a[n-k]), divided by the coefficients' content
        a = [(x0 * x + y0 * y - xn * u - yn * v, x0 * y - y0 * x - yn * u + xn * v)
             for (x, y), (u, v) in zip(a[:n], a[n:0:-1])]
        g = math.gcd(*(c for z in a for c in z))
        a = [(x // g, y // g) for x, y in a]


def _answer(count, p):
    """The count, or None where it refuses."""
    try:
        return count(p)
    except ResolutionError:
        return None


def test_exact_disc_count_oracle_on_known_placements():
    # zeros at 0.5, 3 and -0.25 + 0.5i: two in the disc; with one exactly on
    # S^1 the exact recursion meets |a0|^2 = |an|^2
    assert _exact_disc_count(CPoly.from_roots([0.5, 3.0, -0.25 + 0.5j]).coeffs) == 2
    assert _exact_disc_count(CPoly.from_roots([1.0, 0.5]).coeffs) is None


def test_disc_and_circle_counts_are_the_exact_counts_wherever_they_answer(monkeypatch):
    # the deflated pairs of the locus curves and of 200 random pencils of
    # genus 1-4, and W' of handle checks at t = 1e-2 and 1e-3 (base and
    # deformed maps), each against the exact recursion on the same doubles
    import spectralcurves.whitham as whitham

    bases = [solve_Ba(build_curve(eta)) for eta in (LOCUS_A, LOCUS_B, LOCUS_C)]
    bases += [solve_Ba(random_curve(1 + k % 4, 900 + k)) for k in range(200)]
    disc = [p for basis in bases for p in _deflated_pair(basis)]
    # v' = rho*(conj u') up to rounding: the exact disc count of v' and the
    # companion-root count of u' add up to deg u' = deg f on every pencil
    for basis in bases:
        num, den = _deflated_pair(basis)
        inside = int(np.sum(np.abs(roots(num)) < 1.0))
        assert _exact_disc_count(den.coeffs) + inside == deg_f(basis)
    ws = []

    def recording(w):
        ws.append(w)
        return _circle_count(w)

    monkeypatch.setattr(whitham, "_circle_count", recording)
    whitham._base_map.cache_clear()
    for curve, psi in ((build_curve([0.5]), 0.9), (build_curve([0.41 + 0.2j, -0.33 - 0.41j]), 2.0),
                       (random_curve(2, 5), 1.2)):
        for t in (1e-2, 1e-3):
            try:
                handle_invariant_check(curve, complex(np.exp(1j * psi)), t)
            except SpectralError:
                pass
    answered = 0
    for p in disc:
        got = _answer(_disc_count, p)
        if got is not None:
            answered += 1
            assert got == _exact_disc_count(p.coeffs)
    for w in ws:
        got = _answer(_circle_count, w)
        if got is not None:
            answered += 1
            n, exact = w.formal_degree, _exact_disc_count(_der(w.coeffs))
            assert got == (n - 2 * (n - 1 - exact) if n else 0)
    assert (len(disc), answered) == (406, 406 + len(ws))
    assert len(ws) == 9


# ------------------------------------------------- curves on the common-root locus


@pytest.mark.parametrize("eta, mu", [(LOCUS_A, -0.4706 - 0.7174j),
                                     (LOCUS_B, 0.0530 - 0.8925j)], ids=["A", "B"])
def test_shared_pair_off_the_circle_is_R_only(eta, mu):
    curve = build_curve(eta)
    rep = classify(curve)
    assert (rep.stratum, rep.gcd_degree, rep.v_index, rep.lambda0) == ("R_only", 2, None, ())
    inner = min(rep.gcd_roots, key=abs)
    assert abs(inner - mu) < 1e-4
    assert max(abs(r - 1.0 / np.conj(inner)) for r in rep.gcd_roots if r != inner) < 1e-10
    assert gr_classify(B_map(curve)) == {"gcd_degree": 2, "in_R": True, "S1_roots": []}


def test_classify_and_gr_classify_read_the_memoised_roots(monkeypatch):
    # the polished roots that build the gcd are the report's gcd roots, bit
    # for bit, and the plane of the same pencil solves no root again
    curve = build_curve(LOCUS_A)
    basis = solve_Ba(curve)
    rep = classify(curve, basis)
    rts = _common_roots(basis.b1, basis.b2, GCD_TOL)[1]
    assert len(rts) == 2
    assert np.array(rep.gcd_roots).tobytes() == rts.tobytes()
    counted = counting_roots(monkeypatch)
    assert gr_classify(B_map(curve))["gcd_degree"] == 2
    assert counted.calls == 0


def test_shared_root_on_the_circle_is_S():
    curve = build_curve(LOCUS_C)
    rep = classify(curve)
    assert (rep.stratum, rep.gcd_degree, rep.v_index) == ("S", 1, None)
    (lam0,) = rep.lambda0
    assert rep.gcd_roots == (lam0,)
    assert abs(lam0 - (-0.752823 + 0.658223j)) < 1e-6
    gr = gr_classify(B_map(curve))
    assert (gr["gcd_degree"], gr["in_R"], len(gr["S1_roots"])) == (1, True, 1)
    assert abs(gr["S1_roots"][0] - lam0) <= 1e-10


@pytest.mark.parametrize("roots", [[0.45, -0.3 + 0.35j], [0.5, -0.3 + 0.4j, -0.4 - 0.3j]],
                         ids=["genus 2", "genus 3"])
def test_classify_refuses_a_basis_of_another_curve(roots):
    # the genus-2 neighbour's basis was classified as V_-1, and the genus-3
    # one ended in "winding algorithms disagree" (InvariantError, exit 4)
    curve = build_curve([0.5, -0.3 + 0.4j])
    with pytest.raises(ValidationError, match="basis belongs to another curve"):
        classify(curve, solve_Ba(build_curve(roots)))
