"""Grid, boundaries, time stepping and the assembled update."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swelab.core import DryStateError, PhysConstants, SWEError
from swelab.fluxes import FluxKind
from swelab.presets import build_preset
from swelab.solver import (
    SCHEMES,
    BoundaryCondition,
    Grid,
    SchemeConfig,
    SimSpec,
    SimState,
    StopRule,
    apply_boundaries,
    cfl_dt,
    initial_state,
    run,
    step,
)


def _rest_spec(n=20, steady=False):
    """Lake at rest over a smooth hump, open boundaries."""

    def bathy(x):
        return 0.5 - 0.3 * np.exp(-((x - 0.5) ** 2) / 0.02)

    def init(x, H):
        return 1.0 + H, np.zeros_like(x)

    stop = (StopRule(steady_tol=1e-8, max_time=10.0) if steady
            else StopRule(final_time=0.05))
    return SimSpec(
        grid=Grid(0.0, 1.0, n),
        bathymetry=bathy,
        init=init,
        bc_left=BoundaryCondition.open(),
        bc_right=BoundaryCondition.open(),
        stop=stop,
    )


# -- building blocks ------------------------------------------------------

def test_grid_basics():
    g = Grid(0.0, 2.0, 4)
    assert g.dx == 0.5
    assert np.allclose(g.centers(), [0.25, 0.75, 1.25, 1.75])
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 10)


def test_scheme_config_from_id():
    for name, entry in SCHEMES.items():
        if not entry["implemented"]:
            continue
        cfg = SchemeConfig.from_id(name)
        assert cfg.scheme == name
        assert cfg.flux == entry["flux"] and cfg.source == entry["source"]


def test_scheme_config_rejects_bad_input():
    with pytest.raises(NotImplementedError):
        SchemeConfig.from_id("subsonic")
    with pytest.raises(ValueError):
        SchemeConfig.from_id("hllc")
    with pytest.raises(ValueError):
        SchemeConfig.from_id("roe", cfl=1.5)
    with pytest.raises(ValueError):
        SchemeConfig(scheme="x", flux=FluxKind("roe"), source="splitting")


def test_scheme_config_rejects_unknown_gate():
    """A bad gate fails when the configuration is built, whatever the scheme."""
    for name in ("roe", "modified-hr"):
        with pytest.raises(ValueError, match="gate"):
            SchemeConfig.from_id(name, gate="typo")


def test_boundary_condition_checks_kind_and_values():
    """A rule fails when it is built, not steps later as a non-finite state."""
    with pytest.raises(ValueError, match="kind"):
        BoundaryCondition("inflow")
    for kind in ("depth", "discharge", "both"):
        with pytest.raises(ValueError, match="needs"):
            BoundaryCondition(kind)
    with pytest.raises(ValueError, match="needs q"):
        BoundaryCondition("both", h=1.0)


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule()
    with pytest.raises(ValueError):
        StopRule(steady_tol=1e-8)  # no backstop
    assert StopRule(final_time=2.0, max_time=5.0).time_bound() == 2.0
    assert StopRule(steady_tol=1e-8, max_time=5.0).time_bound() == 5.0


def test_apply_boundaries_kinds():
    state = SimState(0.0, np.array([0.4, 0.5, 0.6]), np.array([0.1, 0.2, 0.3]),
                     np.array([0.0, 0.1, 0.2]))
    gl, gr = apply_boundaries(state, BoundaryCondition.open(), BoundaryCondition.open())
    assert (gl.h, gl.q, gl.H) == (0.4, 0.1, 0.0)
    assert (gr.h, gr.q, gr.H) == (0.6, 0.3, 0.2)
    gl, gr = apply_boundaries(state, BoundaryCondition.both(1.0, -1.0),
                              BoundaryCondition.depth(0.9))
    assert (gl.h, gl.q) == (1.0, -1.0)
    assert (gr.h, gr.q) == (0.9, 0.3)
    gl, gr = apply_boundaries(state, BoundaryCondition.discharge(0.7),
                              BoundaryCondition.periodic())
    assert (gl.h, gl.q) == (0.4, 0.7)
    assert (gr.h, gr.q, gr.H) == (0.4, 0.1, 0.0)  # wraps to the left end


def test_cfl_dt_value_and_dry_guard():
    c = PhysConstants()
    grid = Grid(0.0, 1.0, 10)
    state = SimState(0.0, np.full(10, 0.4), np.full(10, 0.2), np.zeros(10))
    cfg = SchemeConfig.from_id("roe", cfl=0.5)
    smax = 0.5 + np.sqrt(c.g * 0.4)
    assert cfl_dt(state, cfg, grid, c) == pytest.approx(0.5 * 0.1 / smax)
    dry = SimState(0.0, np.zeros(10), np.zeros(10), np.zeros(10))
    with pytest.raises(DryStateError):
        cfl_dt(dry, cfg, grid, c)


def test_initial_state_rejects_negative_depth():
    spec = _rest_spec()
    spec.init = lambda x, H: (np.full_like(x, -0.1), np.zeros_like(x))
    with pytest.raises(ValueError):
        initial_state(spec, PhysConstants())


# -- assembled stepping ---------------------------------------------------

@pytest.mark.parametrize("scheme", [s for s, e in SCHEMES.items() if e["implemented"]])
def test_rest_is_a_fixed_point(scheme):
    """One step on a lake at rest changes nothing, for every scheme."""
    c = PhysConstants()
    cfg = SchemeConfig.from_id(scheme)
    spec = _rest_spec()
    state = initial_state(spec, c)
    dt = cfl_dt(state, cfg, spec.grid, c)
    after, _ = step(state, cfg, spec.grid, spec.bc_left, spec.bc_right, dt, c)
    assert np.max(np.abs(after.h - state.h)) <= 1e-14
    assert np.max(np.abs(after.q - state.q)) <= 1e-14


@pytest.mark.parametrize("scheme", ["roe", "hr", "force-wb"])
def test_mass_conserved_on_periodic_domain(scheme):
    """Total water volume is exact over many steps: interface fluxes
    telescope and the mass parts of every split sum to zero."""
    c = PhysConstants()
    cfg = SchemeConfig.from_id(scheme)
    grid = Grid(0.0, 1.0, 50)
    x = grid.centers()
    H = 0.2 + 0.1 * np.sin(2 * np.pi * x)
    h = 0.8 + 0.2 * np.cos(2 * np.pi * x) + H
    q = 0.1 * np.sin(4 * np.pi * x)
    state = SimState(0.0, h, q, H)
    bc = BoundaryCondition.periodic()
    mass0 = np.sum(state.h) * grid.dx
    for _ in range(200):
        dt = cfl_dt(state, cfg, grid, c)
        state, info = step(state, cfg, grid, bc, bc, dt, c)
        assert info.clip_events == 0
    assert np.sum(state.h) * grid.dx == pytest.approx(mass0, abs=1e-12)


def test_step_raises_on_non_finite():
    c = PhysConstants()
    cfg = SchemeConfig.from_id("roe")
    grid = Grid(0.0, 1.0, 5)
    h = np.array([0.5, 0.5, np.nan, 0.5, 0.5])
    state = SimState(0.0, h, np.zeros(5), np.zeros(5))
    with pytest.raises(SWEError, match="cell"):
        step(state, cfg, grid, BoundaryCondition.open(), BoundaryCondition.open(),
             1e-3, c)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_hr_lax_friedrichs_positivity(seed):
    """HR with the omega=0 flux never produces negative depth in one
    CFL-limited step, whatever the (wet/dry) initial data."""
    c = PhysConstants()
    cfg = SchemeConfig(scheme="hr", flux=FluxKind("omega", "lax-friedrichs"),
                       source="hr", cfl=0.9)
    r = np.random.default_rng(seed)
    n = 30
    grid = Grid(0.0, 1.0, n)
    H = r.uniform(-0.2, 0.5, n)
    h = np.where(r.random(n) < 0.2, 0.0, r.uniform(0.0, 1.0, n))
    u = r.uniform(-2.0, 2.0, n)
    state = SimState(0.0, h, np.where(h > c.h_dry, h * u, 0.0), H)
    if not np.any(h > c.h_dry):
        return
    dt = cfl_dt(state, cfg, grid, c)
    after, info = step(state, cfg, grid, BoundaryCondition.open(),
                       BoundaryCondition.open(), dt, c)
    assert info.min_h_pre_clip >= -1e-14
    assert np.all(after.h >= 0.0)


# -- run loop -------------------------------------------------------------

def test_run_reaches_steady_on_rest():
    report = run(_rest_spec(steady=True), SchemeConfig.from_id("hr"))
    assert report.steady_reached
    assert report.metadata["omega_split_form"] == "half"
    assert report.metadata["scheme"] == "hr"


def test_run_probes_and_summary():
    spec = _rest_spec()
    spec.probes = (("mid", 0.5),)
    report = run(spec, SchemeConfig.from_id("roe"))
    assert abs(report.final_time - 0.05) < 1e-12  # the last step lands on the final time
    assert "mid" in report.probes
    assert report.probes["mid"]["h"] > 0
    s = report.summary()
    assert s["n_steps"] == report.n_steps
    assert s["probes"]["mid"]["x"] == pytest.approx(report.probes["mid"]["x"])


def test_run_records_the_dry_threshold_it_stepped_with():
    report = run(_rest_spec(), SchemeConfig.from_id("roe"), PhysConstants(h_dry=1e-6))
    assert report.metadata["h_dry"] == 1e-6


def test_registry_has_named_unimplemented_slot():
    assert "subsonic" in SCHEMES
    assert not SCHEMES["subsonic"]["implemented"]
    assert sum(e["implemented"] for e in SCHEMES.values()) == 7


# -- stop reasons ---------------------------------------------------------

def test_stop_reason_steady():
    report = run(_rest_spec(steady=True), SchemeConfig.from_id("hr"))
    assert report.steady_reached and report.stop_reason == "steady"


def test_stop_reason_final_time():
    report = run(_rest_spec(), SchemeConfig.from_id("roe"))
    assert report.final_time == pytest.approx(0.05)
    assert report.stop_reason == "final_time"


def test_run_that_takes_no_step():
    spec = _rest_spec()
    spec.stop = StopRule(final_time=0.0)
    report = run(spec, SchemeConfig.from_id("roe"))
    assert report.n_steps == 0 and report.stop_reason == "final_time"
    assert report.final_residual is None
    assert report.summary()["final_residual"] is None
    assert report.final.t == 0.0
    assert np.array_equal(report.final.h, initial_state(spec, PhysConstants()).h)


def test_stop_reason_max_time():
    """A steady-state run that is not steady when its backstop comes."""
    spec = build_preset(3)
    spec.stop = StopRule(steady_tol=1e-8, max_time=0.05)
    report = run(spec, SchemeConfig.from_id("hr"))
    assert not report.steady_reached and report.final_time == pytest.approx(0.05)
    assert report.stop_reason == "max_time"


def test_stop_reason_max_steps():
    spec = build_preset(3)
    spec.stop = replace(spec.stop, max_steps=10)
    report = run(spec, SchemeConfig.from_id("hr"))
    assert report.n_steps == 10 and not report.steady_reached
    assert report.stop_reason == "max_steps"
