"""Shared fixtures and curve factories for the test suite."""

import sys

import numpy as np
import pytest

from spectralcurves import build_curve
from spectralcurves.cli import ANNULUS, MIN_SEPARATION
from spectralcurves.errors import InvariantError, ValidationError
from spectralcurves.grassmann import plane_from_pencil
from spectralcurves.periods import solve_Ba
from spectralcurves.polyring import CPoly, symmetrize_reality
from spectralcurves.whitham import attach_handle, handle_invariant_check

# Genus-3 curves whose solved pencil has a common root: (b1, b2)(z) = 0
# solved by Gauss-Newton in (eta, z) to about 1e-14.  A and B share a
# reflection pair off S^1, C a root on S^1.
LOCUS_A = [-0.3292039286214081 - 0.6030539552794908j,
           -0.45024626975212434 - 0.6616948731742897j,
           -0.34269460177922884 - 0.1387985707481085j]
LOCUS_B = [-0.21538490608642857 - 0.4758075699469921j,
           0.27344688128583927 - 0.3763178733218319j,
           0.023757636059541103 - 0.40289873353490424j]
LOCUS_C = [0.5199317582234247 - 0.11405162392317623j,
           -0.5231737391064448 + 0.5738056714145655j,
           -0.6386139214376604 + 0.43594509816551386j]


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


def _counting(monkeypatch, real):
    """Count calls of ``real`` wherever a module of the package holds it."""

    def counted(*args, **kwargs):
        counted.calls += 1
        return real(*args, **kwargs)

    counted.calls = 0
    for name, module in list(sys.modules.items()):
        if name.startswith("spectralcurves"):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return counted


def counting_approx_gcd(monkeypatch):
    """Count the gcd solves (``polyring._gcd_candidates``): one per pencil
    behind ``pencil_gcd``, however many candidates it tries, and one per
    ``approx_gcd`` call."""
    import spectralcurves.polyring as polyring

    return _counting(monkeypatch, polyring._gcd_candidates)


def counting_roots(monkeypatch):
    """Count companion-matrix root solves (``polyring.roots``), wherever a
    module of the package holds the function."""
    import spectralcurves.polyring as polyring

    return _counting(monkeypatch, polyring.roots)


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
