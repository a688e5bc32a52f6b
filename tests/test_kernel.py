"""The cell formulas in ``core``, the kernel's dry-interface handling and
the object-level adapters that call the kernel."""

import numpy as np
import pytest

from swelab import core, kernel
from swelab.core import (
    DryInterfaceError,
    ExtState,
    PhysConstants,
    PhysState,
    physical_flux,
    velocity,
)
from swelab.fluxes import omega_flux, roe_flux
from swelab.hydrostatic import hr_interface_terms
from swelab.solver import SchemeConfig
from swelab.sources import omega_source_split, roe_source_split


def _states(seed, n=64):
    """Wet, damp (0 < h <= h_dry) and empty cells, discharge on all of them."""
    r = np.random.default_rng(seed)
    h = r.choice([0.0, 0.5e-8, 1e-8, 1e-3, 0.3, 2.0], n) * r.uniform(0.5, 1.5, n)
    h[::7] = 0.0
    return h, r.uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("seed", range(5))
def test_cell_quantities_match_core_bitwise(seed):
    """``core``'s cell formulas, array and object-level, equal the formulas
    written out here byte for byte, signed zeros included; the kernel
    evaluates the same functions. The inputs reach the dry cells' index path
    with many dry cells, exactly one and exactly two (an empty cell with
    q = -0.0, a damp one with q != 0), as 0-d cells, as a (2, m) array of
    side states and with one discharge for every cell."""
    assert kernel.cell_velocity is core.cell_velocity and kernel.cell_flux is core.cell_flux
    c = PhysConstants()
    h, q = _states(seed)
    one_dry, q_signed = h + 1.0, q.copy()
    one_dry[seed], q_signed[seed] = 0.0, -0.0
    two_dry = one_dry.copy()
    two_dry[-1 - seed] = 0.5e-8
    cases = [(h, q), (h + 1.0, q), (one_dry, q_signed), (two_dry, q_signed),
             (two_dry.reshape(2, -1), q.reshape(2, -1)), (h.reshape(2, -1), q.reshape(2, -1)),
             (h, np.array(-0.25))]
    cases += [(np.array(hh), np.array(qq)) for hh, qq in
              ((0.0, -0.0), (0.0, -0.4), (0.5e-8, 0.3), (0.3, -0.2))]

    def same(got, want):
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    for hh, qq in cases:
        wet, full = hh > c.h_dry, hh > 0
        u = np.where(wet, qq / np.where(wet, hh, 1.0), 0.0)
        u_flux = np.where(full, qq / np.where(full, hh, 1.0), 0.0)
        f0, f1 = qq * full, qq * u_flux + 0.5 * c.g * hh * hh
        same(core.cell_velocity(hh, qq, c.h_dry), u)
        same(np.stack(core.cell_flux(hh, qq, 0.5 * c.g, c.h_dry)), np.stack([u, f0, f1]))
        w = PhysState(hh, qq)
        same(velocity(w, c), u)
        same(np.stack(physical_flux(w, c)), np.stack([f0, f1]))


def test_negative_depth_and_all_dry_raise():
    k = kernel.Constants(PhysConstants())
    with pytest.raises(ValueError):  # (h, q) by (left, right) on one interface
        kernel.flux(np.array([[[-0.1], [0.5]], [[0.0], [0.0]]]), k)
    with pytest.raises(DryInterfaceError):
        kernel.flux(np.zeros((2, 2, 3)), k)


@pytest.mark.parametrize("modified", [False, True])
def test_hydrostatic_zeroes_the_flux_of_a_damp_reconstructed_pair(modified):
    """A wet left cell whose column re-measured from H* is damp, against a
    dry right cell: the flux sees no water, the source keeps the split."""
    c = PhysConstants()
    W = np.array([[0.1, 0.0], [0.05, 0.0], [0.5, 0.4 + 5e-9]])  # (h, q, H) of two cells
    hl = W[0, 0]
    hm = hl - W[2, 0] + W[2, 1]
    assert 0 < hm <= c.h_dry
    F, minus, plus = kernel.hydrostatic(W, kernel.Constants(c), modified, "dimensional")
    assert F.tolist() == [[0.0], [0.0]]
    assert minus.shape == plus.shape == (1,)  # momentum rows alone: no mass part
    assert minus[0] == pytest.approx(0.5 * c.g * (hm ** 2 - hl ** 2), rel=1e-12)
    assert plus.tolist() == [0.0]


@pytest.mark.parametrize("seed", range(20))
def test_adapters_equal_the_kernel(seed):
    """Every object-level adapter gives the bytes of the kernel's scheme
    functions on the same row of wet, damp and empty cells, so an interface
    with no wet side carries zero sources in both."""
    c = PhysConstants()
    h, q = _states(seed, 40)
    H = np.random.default_rng(seed + 100).uniform(-0.5, 0.5, 40)
    W = np.stack([h, q, H])
    dry = (h[:-1] <= c.h_dry) & (h[1:] <= c.h_dry)
    assert dry.any()
    Wl = ExtState(PhysState(h[:-1], q[:-1]), H[:-1])
    Wr = ExtState(PhysState(h[1:], q[1:]), H[1:])

    def same(got, want):
        assert np.stack(got).tobytes() == want.tobytes()

    omega, dx, dt = 0.5, 0.1, 0.01
    omega_ab = kernel.omega_coefficients(omega, dx, dt)
    for split, flux, ab in (
            (roe_source_split(Wl, Wr, c), roe_flux(Wl.state, Wr.state, c), None),
            (omega_source_split(Wl, Wr, omega, dx, dt, c),
             omega_flux(Wl.state, Wr.state, omega, dx, dt, c), omega_ab)):
        F, minus, plus = kernel.upwind(W, kernel.Constants(c), ab)
        same(flux, F)
        same(split.minus, minus)
        same(split.plus, plus)
        assert not minus[:, dry].any() and not plus[:, dry].any()
    for scheme in ("hr", "modified-hr", "force-hr"):
        cfg = SchemeConfig.from_id(scheme)
        ab = kernel.omega_weights(cfg.flux, cfg.cfl, dx, dt)
        F, minus, plus = kernel.hydrostatic(W, kernel.Constants(c), scheme == "modified-hr",
                                            cfg.gate, ab)
        flux, split = hr_interface_terms(Wl, Wr, cfg, c, dx, dt)
        same(flux, F)
        same(split.minus[1], minus)
        same(split.plus[1], plus)
