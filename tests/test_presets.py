"""Benchmark presets: geometry, initial data, stop rules, exact curves."""

import numpy as np
import pytest

from swelab.core import PhysConstants
from swelab.presets import DEFAULT_CELLS, PARAM_DEFAULTS, build_preset, exact_profile
from swelab.solver import initial_state


def test_default_cells():
    assert DEFAULT_CELLS == {1: 50, 2: 200, 3: 200, 4: 200, 5: 200, 6: 100}


def test_build_preset_validation():
    with pytest.raises(ValueError):
        build_preset(7)
    with pytest.raises(ValueError):
        build_preset(1, slope=10.0)  # unknown parameter name
    with pytest.raises(ValueError):
        build_preset(1, alpha=-1.0)
    with pytest.raises(ValueError):
        build_preset(5, x_l=4.5)
    # each admissible set is a positive condition, so NaN and inf fail it
    for tid, defaults in PARAM_DEFAULTS.items():
        for name in defaults:
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="out of range"):
                    build_preset(tid, **{name: bad})


def test_slope_bathymetry():
    spec = build_preset(1, alpha=20.0)
    x = spec.grid.centers()
    assert np.allclose(spec.bathymetry(x), 0.2 * x)
    assert spec.bc_left.h == 0.02 and spec.bc_left.q == 0.01


def test_bump_bathymetry():
    spec = build_preset(2)
    b = spec.bathymetry
    assert b(np.array([10.0]))[0] == pytest.approx(-0.2)  # crest rises 0.2 above datum
    assert b(np.array([8.0]))[0] == 0.0 and b(np.array([14.0]))[0] == 0.0
    assert spec.bc_left.kind == "discharge" and spec.bc_left.q == 0.18
    assert spec.bc_right.kind == "depth" and spec.bc_right.h == 0.33


def test_step_bathymetries_and_probes():
    spec = build_preset(3, H_r=0.3)
    b = spec.bathymetry
    assert b(np.array([0.4]))[0] == 0.1 and b(np.array([0.6]))[0] == 0.3
    names = dict(spec.probes)
    dx = spec.grid.dx
    assert names["h_l"] == pytest.approx(0.5 - 5 * dx)
    assert names["h_r"] == pytest.approx(0.5 + 5 * dx)
    spec4 = build_preset(4)
    assert spec4.bathymetry(np.array([0.4]))[0] == 0.8
    assert spec4.bathymetry(np.array([0.6]))[0] == pytest.approx(0.4)


def test_ramp_up_geometry_and_partially_dry_init():
    spec = build_preset(5, x_l=3.75)
    b = spec.bathymetry
    assert b(np.array([1.0]))[0] == 1.0
    assert b(np.array([4.5]))[0] == pytest.approx(0.2)
    # continuous at the crest
    assert b(np.array([4.0 - 1e-9]))[0] == pytest.approx(0.2, abs=1e-6)
    state = initial_state(spec, PhysConstants())
    assert np.any(state.h == 0.0)            # dry on the shelf
    assert np.any(state.h > 0.05)            # wet basin
    assert np.all(state.q[state.h == 0.0] == 0.0)


def test_ramp_down_geometry():
    spec = build_preset(6, dH=0.3, dl=0.2)
    b = spec.bathymetry
    assert b(np.array([0.1]))[0] == pytest.approx(0.1)
    assert b(np.array([0.3]))[0] == pytest.approx(0.25)  # midway down the ramp
    assert b(np.array([1.0]))[0] == pytest.approx(0.4)
    sharp = build_preset(6, dH=0.3, dl=0.0)
    assert sharp.bathymetry(np.array([0.21]))[0] == pytest.approx(0.4)


def test_stop_rules():
    assert build_preset(1).stop.max_time == 200.0
    assert build_preset(2).stop.max_time == 600.0
    assert build_preset(5).stop.final_time == 2.5
    assert build_preset(6).stop.steady_tol == 1e-8


def test_param_defaults_round_trip():
    for tid, defaults in PARAM_DEFAULTS.items():
        spec = build_preset(tid, **defaults)
        assert spec.grid.n_cells == DEFAULT_CELLS[tid]


def test_exact_profile_step_frozen():
    c = PhysConstants()
    x = np.array([0.25, 0.75])
    prof = exact_profile(3, x, c, H_r=0.45)
    assert prof[0] == 0.1
    assert prof[1] == pytest.approx(0.033002228645858084, rel=1e-10)


def test_exact_profile_smooth_frozen():
    x = np.array([0.1, 3.0])
    prof = exact_profile(6, x)
    assert prof[0] == pytest.approx(0.5, abs=1e-9)
    assert prof[1] == pytest.approx(0.30509542866495953, rel=1e-9)


def test_exact_profile_unknown_test():
    """exact_profile takes build_preset's parameters, with its checks."""
    x = np.array([1.0])
    with pytest.raises(ValueError):
        exact_profile(5, x)
    with pytest.raises(ValueError, match="unknown test"):
        exact_profile(7, x)
    with pytest.raises(ValueError, match="takes"):
        exact_profile(3, x, slope=1.0)
    with pytest.raises(ValueError, match="takes"):
        exact_profile(4, x, q_bc=0.5)
    with pytest.raises(ValueError, match="out of range"):
        exact_profile(3, x, H_r=5.0)
    with pytest.raises(ValueError, match="takes"):  # the cell count is not a test parameter
        exact_profile(6, x, n_cells=7)
