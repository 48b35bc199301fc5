"""Shared fixtures and curve factories for the test suite."""

import numpy as np
import pytest

from spectralcurves import build_curve
from spectralcurves.cli import ANNULUS, MIN_SEPARATION
from spectralcurves.errors import InvariantError, ValidationError
from spectralcurves.grassmann import plane_from_pencil
from spectralcurves.periods import solve_Ba
from spectralcurves.polyring import CPoly, symmetrize_reality
from spectralcurves.whitham import attach_handle, handle_invariant_check


def sample_eta(genus, rng, annulus=ANNULUS, min_sep=MIN_SEPARATION):
    """Draw ``genus`` branch roots area-uniformly from the CLI scan's
    annulus, rejecting draws where two roots come too close."""
    lo2, hi2 = annulus[0] ** 2, annulus[1] ** 2
    for _ in range(1000):
        r = np.sqrt(rng.uniform(lo2, hi2, size=genus))
        th = rng.uniform(-np.pi, np.pi, size=genus)
        eta = r * np.exp(1j * th)
        if genus < 2:
            return eta
        d = np.abs(eta[:, None] - eta[None, :])[np.triu_indices(genus, 1)]
        if d.min() > min_sep:
            return eta
    raise RuntimeError("annulus sampler starved")


def random_curve(genus, seed):
    """Deterministic random curve keyed by (genus, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(genus,)))
    return build_curve(sample_eta(genus, rng))


def grow_to_genus3(target_jumps, handle_t=0.1):
    """Attach two handles to the genus-1 base, steering each winding jump;
    returns the genus-3 curve."""
    curve = build_curve([0.5])
    for want in target_jumps:
        for psi in np.linspace(-np.pi, np.pi, 181):
            if min(abs(np.angle(np.exp(1j * (psi - a)))) for a in curve.cut_angles) < 0.12:
                continue
            try:
                chk = handle_invariant_check(curve, complex(np.exp(1j * psi)), handle_t)
            except (InvariantError, ValidationError):
                continue
            if chk.winding_after - chk.winding_before == want:
                basis = solve_Ba(curve)
                curve = attach_handle(curve, basis.b1,
                                      complex(np.exp(1j * psi)), chk.t).curve
                break
        else:
            raise AssertionError("no handle angle produced jump %+d" % want)
    return curve


def shared_plane(roots_circle, roots_pair, fill):
    """Plane whose pencil shares the given circle roots / reflection pairs."""
    rts = list(roots_circle)
    for mu in roots_pair:
        rts += [mu, 1.0 / np.conj(mu)]
    rts += list(fill)
    u = CPoly.from_roots(rts)
    return plane_from_pencil(symmetrize_reality(u), symmetrize_reality(u * (-1j)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
