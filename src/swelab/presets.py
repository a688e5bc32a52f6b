"""The six benchmark configurations as SimSpec builders.

1. steep linear slope, 50 cells, slope parameter alpha in [16, 21]
2. transcritical flow with a shock over a parabolic bump, 200 cells
3. supercritical flow hitting a downward bottom step (depth H_r), probes
   h_l / h_r on each side of the step
4. flow climbing an upward bottom step (depth drops 0.8 -> H_r)
5. shallow layer running up a ramp that starts at x_l and crests at
   x = 4, partially dry initial data
6. supercritical flow down a ramp of height dH over length dl, with a
   smooth stationary exact solution used for convergence studies

All bathymetries are module-level functions bound with ``partial`` so
specs stay picklable. Bottom depth H is positive downward throughout.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from swelab.core import ExtState, PhysConstants, PhysState, exact_smooth_profile, exact_step_state
from swelab.solver import BoundaryCondition, Grid, SimSpec, StopRule

__all__ = ["build_preset", "exact_profile", "check_params", "DEFAULT_CELLS", "PARAM_DEFAULTS"]

# Per test id: the domain, the default cell count, and for each free
# parameter its default and a test of the values it admits.
_TESTS = {
    1: ((0.0, 3.0), 50, {"alpha": (16.0, lambda v: 0.0 < v <= 100.0)}),
    2: ((0.0, 25.0), 200, {}),
    3: ((0.0, 1.0), 200, {"H_r": (0.45, lambda v: 0.0 < v <= 1.0), "q_bc": (0.1, np.isfinite)}),
    4: ((0.0, 1.0), 200, {"H_r": (0.4, lambda v: 0.0 < v <= 1.0)}),
    5: ((0.0, 5.0), 200, {"x_l": (3.75, lambda v: 0.0 < v < 4.0)}),
    6: ((0.0, 5.0), 100, {"dH": (0.3, lambda v: 0.0 <= v < np.inf),
                          "dl": (0.2, lambda v: 0.0 <= v < np.inf)}),
}

DEFAULT_CELLS = {t: cells for t, (_, cells, _) in _TESTS.items()}
PARAM_DEFAULTS = {t: {k: d for k, (d, _) in free.items()} for t, (_, _, free) in _TESTS.items()}

_X_STEP = 0.5  # where the bottom of tests 3 and 4 steps
_STEADY_TOL = 1e-8


def _bathy_slope(x, alpha):
    return (alpha / 100.0) * x


def _bathy_bump(x):
    x = np.asarray(x, float)
    return np.where((x > 8.0) & (x < 12.0), -0.2 + 0.05 * (x - 10.0) ** 2, 0.0)


def _bathy_step(x, H_l, H_r):
    x = np.asarray(x, float)
    return np.where(x < _X_STEP, H_l, H_r)


def _bathy_ramp_up(x, x_l):
    # depth 1 up to x_l, then a linear rise of the bottom (depth falls
    # to 0.2 at x = 4), flat after
    x = np.asarray(x, float)
    ramp = 1.0 - 0.8 * (x - x_l) / (4.0 - x_l)
    return np.where(x < x_l, 1.0, np.where(x < 4.0, ramp, 0.2))


def _bathy_ramp_down(x, dH, dl):
    x = np.asarray(x, float)
    x_r = 0.2 + dl
    H_r = 0.1 + dH
    if dl == 0.0:
        return np.where(x <= 0.2, 0.1, H_r)
    ramp = 0.1 + (H_r - 0.1) * (x - 0.2) / (x_r - 0.2)
    return np.where(x <= 0.2, 0.1, np.where(x <= x_r, ramp, H_r))


def _ic_const(x, H, h0, q0):
    x = np.asarray(x, float)
    return np.full_like(x, h0), np.full_like(x, q0)


def _ic_waterline(x, H, q0):
    h = np.maximum(np.asarray(H, float) - 0.9, 0.0)
    return h, np.where(h > 0.0, q0, 0.0)


def check_params(test_id: int, names) -> None:
    """Reject an unknown test id and any of ``names`` the test has no free parameter for."""
    if test_id not in _TESTS:
        raise ValueError(f"unknown test id {test_id!r}")
    free = _TESTS[test_id][2]
    unknown = set(names) - set(free)
    if unknown:
        raise ValueError(f"test {test_id} takes {sorted(free)}, got {sorted(unknown)}")


def build_preset(test_id: int, n_cells: int | None = None, **params) -> SimSpec:
    """SimSpec for one benchmark; free parameters as keyword overrides."""
    check_params(test_id, params)
    (a, b), cells, free = _TESTS[test_id]
    p = {}
    for name, (default, admits) in free.items():
        p[name] = v = float(params.get(name, default))
        if not admits(v):
            raise ValueError(f"{name} out of range: {v}")
    grid = Grid(a, b, int(n_cells) if n_cells is not None else cells)

    if test_id == 1:
        return SimSpec(
            grid=grid,
            bathymetry=partial(_bathy_slope, alpha=p["alpha"]),
            init=partial(_ic_const, h0=0.02, q0=0.01),
            bc_left=BoundaryCondition.both(0.02, 0.01),
            bc_right=BoundaryCondition.open(),
            stop=StopRule(steady_tol=_STEADY_TOL, max_time=200.0),
        )

    if test_id == 2:
        return SimSpec(
            grid=grid,
            bathymetry=_bathy_bump,
            init=partial(_ic_const, h0=0.33, q0=0.18),
            bc_left=BoundaryCondition.discharge(0.18),
            bc_right=BoundaryCondition.depth(0.33),
            stop=StopRule(steady_tol=_STEADY_TOL, max_time=600.0),
        )

    if test_id in (3, 4):
        # the two steps differ only in the inlet bottom and discharge
        inlet_H, inlet_q = (0.1, p["q_bc"]) if test_id == 3 else (0.8, 0.15)
        return SimSpec(
            grid=grid,
            bathymetry=partial(_bathy_step, H_l=inlet_H, H_r=p["H_r"]),
            init=partial(_ic_const, h0=0.1, q0=0.15),
            bc_left=BoundaryCondition.both(0.1, inlet_q),
            bc_right=BoundaryCondition.open(),
            stop=StopRule(steady_tol=_STEADY_TOL, max_time=100.0),
            probes=(("h_l", _X_STEP - 5 * grid.dx), ("h_r", _X_STEP + 5 * grid.dx)),
        )

    if test_id == 5:
        return SimSpec(
            grid=grid,
            bathymetry=partial(_bathy_ramp_up, x_l=p["x_l"]),
            init=partial(_ic_waterline, q0=0.9),
            bc_left=BoundaryCondition.both(0.1, 0.9),
            bc_right=BoundaryCondition.open(),
            stop=StopRule(final_time=2.5),
            probes=(("h_l", p["x_l"] - 5 * grid.dx), ("h_r", 4.0 + 5 * grid.dx)),
        )

    # test 6
    return SimSpec(
        grid=grid,
        bathymetry=partial(_bathy_ramp_down, dH=p["dH"], dl=p["dl"]),
        init=partial(_ic_const, h0=0.5, q0=1.2),
        bc_left=BoundaryCondition.both(0.5, 1.2),
        bc_right=BoundaryCondition.open(),
        stop=StopRule(steady_tol=_STEADY_TOL, max_time=60.0),
    )


def exact_profile(test_id: int, x, c: PhysConstants = PhysConstants(), **params):
    """Exact stationary depth at positions x, where one is known.

    Takes the free parameters of ``build_preset`` (not ``n_cells``), with
    the same checks, and reads the inlet state and the bottom from the spec.
    Test 3/4: the stationary contact linking the inlet state to the far
    side of the step. Test 6: the smooth stationary profile sharing the
    inlet Riemann invariants.
    """
    check_params(test_id, params)
    spec = build_preset(test_id, **params)
    if test_id not in (3, 4, 6):
        raise ValueError(f"no exact profile for test {test_id}")
    x = np.asarray(x, float)
    inlet_H = float(spec.bathymetry(spec.grid.x_left))
    inlet = ExtState(PhysState(spec.bc_left.h, spec.bc_left.q), inlet_H)
    if test_id == 6:
        return exact_smooth_profile(spec.bathymetry, inlet, x, c).h
    right = exact_step_state(inlet, float(spec.bathymetry(spec.grid.x_right)), c)
    return np.where(x < _X_STEP, inlet.h, right.h)
