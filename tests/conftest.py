"""Shared fixtures and curve factories for the test suite."""

import numpy as np
import pytest

from spectralcurves import build_curve
from spectralcurves.cli import ANNULUS, MIN_SEPARATION
from spectralcurves.grassmann import plane_from_pencil
from spectralcurves.polyring import CPoly, symmetrize_reality


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
