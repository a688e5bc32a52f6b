"""The cell formulas in ``core`` and the kernel's dry-interface handling."""

import numpy as np
import pytest

from swelab import core, kernel
from swelab.core import DryInterfaceError, PhysConstants, PhysState, physical_flux, velocity


def _states(seed, n=64):
    """Wet, damp (0 < h <= h_dry) and empty cells, discharge on all of them."""
    r = np.random.default_rng(seed)
    h = r.choice([0.0, 0.5e-8, 1e-8, 1e-3, 0.3, 2.0], n) * r.uniform(0.5, 1.5, n)
    h[::7] = 0.0
    return h, r.uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("seed", range(5))
def test_cell_quantities_match_core_bitwise(seed):
    """``core``'s cell formulas, array and object-level, equal the formulas
    written out here bit for bit; the kernel evaluates the same functions."""
    assert kernel.cell_velocity is core.cell_velocity and kernel.cell_flux is core.cell_flux
    c = PhysConstants()
    h, q = _states(seed)
    for hh, qq in ((h, q), (h + 1.0, q)):  # with and without dry cells
        wet, full = hh > c.h_dry, hh > 0
        u = np.where(wet, qq / np.where(wet, hh, 1.0), 0.0)
        u_flux = np.where(full, qq / np.where(full, hh, 1.0), 0.0)
        f0, f1 = np.where(full, qq, 0.0), qq * u_flux + 0.5 * c.g * hh * hh
        np.testing.assert_array_equal(core.cell_velocity(hh, qq, c.h_dry), u)
        np.testing.assert_array_equal(np.stack(core.cell_flux(hh, qq, c.g, c.h_dry)),
                                      np.stack([u, f0, f1]))
        w = PhysState(hh, qq)
        np.testing.assert_array_equal(velocity(w, c), u)
        np.testing.assert_array_equal(np.stack(physical_flux(w, c)), np.stack([f0, f1]))


def test_negative_depth_and_all_dry_raise():
    c = PhysConstants()
    with pytest.raises(ValueError):  # (h, q) by (left, right) on one interface
        kernel.flux(np.array([[[-0.1], [0.5]], [[0.0], [0.0]]]), c.g, c.h_dry)
    with pytest.raises(DryInterfaceError):
        kernel.flux(np.zeros((2, 2, 3)), c.g, c.h_dry)


@pytest.mark.parametrize("modified", [False, True])
def test_hydrostatic_zeroes_the_flux_of_a_damp_reconstructed_pair(modified):
    """A wet left cell whose column re-measured from H* is damp, against a
    dry right cell: the flux sees no water, the source keeps the split."""
    c = PhysConstants()
    hl, ql, Hl = np.array([0.1]), np.array([0.05]), np.array([0.5])
    hr, qr, Hr = np.zeros(1), np.zeros(1), np.array([0.4 + 5e-9])
    hm = hl - Hl + Hr
    assert 0 < hm[0] <= c.h_dry
    ul, ur = core.cell_velocity(hl, ql, c.h_dry), core.cell_velocity(hr, qr, c.h_dry)
    F, minus, plus = kernel.hydrostatic(
        hl, ql, ul, Hl, hr, qr, ur, Hr, c.g, c.h_dry, modified, "dimensional")
    assert F.tolist() == [[0.0], [0.0]]
    assert minus.shape == plus.shape == (1,)  # momentum rows alone: no mass part
    assert minus[0] == pytest.approx(0.5 * c.g * (hm[0] ** 2 - hl[0] ** 2), rel=1e-12)
    assert plus.tolist() == [0.0]
