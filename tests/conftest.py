"""Shared fixtures and hypothesis strategies for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from swelab.core import PhysConstants


@pytest.fixture(scope="session")
def c():
    return PhysConstants()


# Depth / velocity ranges cover the benchmark scales (cm to m, up to
# strongly supercritical flow) while staying away from the dry
# threshold and from overflow territory.
depths = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False)
velocities = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False)
bottoms = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def wet_states(draw):
    """(h, q) with h comfortably wet."""
    h = draw(depths)
    u = draw(velocities)
    return h, h * u


@st.composite
def wet_pairs(draw):
    """Two wet states plus a bottom depth on each side."""
    return draw(wet_states()), draw(wet_states()), draw(bottoms), draw(bottoms)


def rng(seed=0):
    return np.random.default_rng(seed)


def path_source_trapezoid(W_l, W_r, c):
    """Exact straight-segment integral of the source, (0, g (h_l+h_r)/2 dH).

    This is the oracle for the S+ + S- sum identities.
    """
    hl = np.asarray(W_l.h, float)
    hr = np.asarray(W_r.h, float)
    dH = np.asarray(W_r.H, float) - np.asarray(W_l.H, float)
    return np.zeros_like(hl + dH), c.g * 0.5 * (hl + hr) * dH
