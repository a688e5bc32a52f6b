"""The plain-array kernel against the physical model in ``core``."""

import numpy as np
import pytest

from swelab import kernel
from swelab.core import DryInterfaceError, PhysConstants, PhysState, physical_flux, velocity


def _states(seed, n=64):
    """Wet, damp (0 < h <= h_dry) and empty cells, discharge on all of them."""
    r = np.random.default_rng(seed)
    h = r.choice([0.0, 0.5e-8, 1e-8, 1e-3, 0.3, 2.0], n) * r.uniform(0.5, 1.5, n)
    h[::7] = 0.0
    return h, r.uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("seed", range(5))
def test_cell_quantities_match_core_bitwise(seed):
    c = PhysConstants()
    h, q = _states(seed)
    for hh, qq in ((h, q), (h + 1.0, q)):  # with and without dry cells
        w = PhysState(hh, qq)
        u, f0, f1 = kernel._velocity_and_flux(hh, qq, c.g, c.h_dry)
        np.testing.assert_array_equal(kernel.velocity(hh, qq, c.h_dry), velocity(w, c))
        np.testing.assert_array_equal(u, velocity(w, c))
        np.testing.assert_array_equal(np.stack([f0, f1]), np.stack(physical_flux(w, c)))


def test_negative_depth_and_all_dry_raise():
    c = PhysConstants()
    with pytest.raises(ValueError):
        kernel.flux(np.array([-0.1]), np.zeros(1), np.array([0.5]), np.zeros(1), c.g, c.h_dry)
    with pytest.raises(DryInterfaceError):
        kernel.flux(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), c.g, c.h_dry)
