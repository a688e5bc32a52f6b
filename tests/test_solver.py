"""Grid, boundaries, time stepping and the assembled update."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swelab.core import DryStateError, PhysConstants, SWEError
from swelab.diagnostics import well_balance_residual
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
        bc_left=BoundaryCondition(),
        bc_right=BoundaryCondition(),
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
        SchemeConfig(scheme="x", flux="roe", source="splitting")


def test_scheme_config_rejects_unknown_gate():
    """A bad gate fails when the configuration is built, whatever the scheme."""
    for name in ("roe", "modified-hr"):
        with pytest.raises(ValueError, match="gate"):
            SchemeConfig.from_id(name, gate="typo")


def test_boundary_condition_checks_kind_and_values():
    """A rule fails when it is built, not steps later as a non-finite state."""
    for bad in (dict(h=-0.05, q=0.1), dict(h=np.nan), dict(h=np.inf), dict(q=np.inf),
                dict(h=0.1, q=np.nan)):
        with pytest.raises(ValueError, match="finite"):
            BoundaryCondition(**bad)
    assert BoundaryCondition(h=0.0).h == 0.0  # a dry outlet is a state


@pytest.mark.parametrize("values,kind", [
    (dict(), "open"),
    (dict(q=0.7), "discharge"),
    (dict(h=0.9), "depth"),
    (dict(h=1.0, q=-1.0), "both"),
    (dict(periodic=True), "periodic"),
])
def test_boundary_kind_follows_the_values_it_imposes(values, kind):
    assert BoundaryCondition(**values).kind == kind


@pytest.mark.parametrize("values", [dict(h=0.3), dict(q=2.0), dict(h=0.3, q=2.0)])
def test_periodic_boundary_imposes_no_value(values):
    with pytest.raises(ValueError, match="periodic"):
        BoundaryCondition(periodic=True, **values)


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule()
    with pytest.raises(ValueError):
        StopRule(steady_tol=1e-8)  # no backstop
    assert StopRule(final_time=2.0, max_time=5.0).time_bound() == 2.0
    assert StopRule(steady_tol=1e-8, max_time=5.0).time_bound() == 5.0
    # a NaN bound never compares as reached and would step to max_steps
    for field in ("final_time", "steady_tol", "max_time"):
        for bad in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match=">= 0"):
                StopRule(**{"final_time": 1.0, field: bad})
    assert StopRule(final_time=0.0).time_bound() == 0.0


def test_stop_rule_max_steps_is_an_integer_at_least_zero():
    # with NaN, n_steps >= max_steps is never true and the guard never fires
    for bad in (np.nan, np.inf, -3, 2.5, True, "10"):
        with pytest.raises(ValueError, match="max_steps"):
            StopRule(final_time=1.0, max_steps=bad)
    for good in (0, 10, np.int64(10)):
        assert StopRule(final_time=1.0, max_steps=good).max_steps == good


def test_apply_boundaries_kinds():
    state = SimState(0.0, np.array([0.4, 0.5, 0.6]), np.array([0.1, 0.2, 0.3]),
                     np.array([0.0, 0.1, 0.2]))
    cases = [
        (BoundaryCondition(), BoundaryCondition(),
         (0.4, 0.1, 0.0), (0.6, 0.3, 0.2)),
        (BoundaryCondition(h=1.0, q=-1.0), BoundaryCondition(h=0.9),
         (1.0, -1.0, 0.0), (0.9, 0.3, 0.2)),
        (BoundaryCondition(q=0.7), BoundaryCondition(periodic=True),
         (0.4, 0.7, 0.0), (0.4, 0.1, 0.0)),  # the periodic ghost wraps to the left end
        (BoundaryCondition(periodic=True), BoundaryCondition(periodic=True),
         (0.6, 0.3, 0.2), (0.4, 0.1, 0.0)),
    ]
    for bc_left, bc_right, want_l, want_r in cases:
        rows, (gl, gr) = apply_boundaries(state, bc_left, bc_right)
        assert (tuple(gl), tuple(gr)) == (want_l, want_r), (bc_left, bc_right)
        for k, (row, interior) in enumerate(zip(rows, (state.h, state.q, state.H))):
            assert row.shape == (5,)
            assert row[1:-1].tolist() == interior.tolist()
            assert (row[0], row[-1]) == (gl[k], gr[k])


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
    bc = BoundaryCondition(periodic=True)
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
        step(state, cfg, grid, BoundaryCondition(), BoundaryCondition(),
             1e-3, c)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_hr_lax_friedrichs_positivity(seed):
    """HR with the omega=0 flux never produces negative depth in one
    CFL-limited step, whatever the (wet/dry) initial data."""
    c = PhysConstants()
    cfg = SchemeConfig(scheme="hr", flux="lax-friedrichs", source="hr", cfl=0.9)
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
    after, info = step(state, cfg, grid, BoundaryCondition(),
                       BoundaryCondition(), dt, c)
    assert info.min_h_pre_clip >= -1e-14
    assert np.all(after.h >= 0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_mirror_symmetry_all_wet(seed):
    """x -> L - x with q -> -q maps an all-wet run with open boundaries onto
    the mirrored run, for every implemented scheme."""
    r = np.random.default_rng(seed)
    n = 40
    h, q, H = r.uniform(0.5, 1.5, n), r.uniform(-0.3, 0.3, n), r.uniform(0.3, 0.7, n)

    def spec(h, q, H):
        return SimSpec(grid=Grid(0.0, 1.0, n), bathymetry=lambda x: H,
                       init=lambda x, _: (h, q), bc_left=BoundaryCondition(),
                       bc_right=BoundaryCondition(), stop=StopRule(final_time=0.5))

    for scheme in (s for s, e in SCHEMES.items() if e["implemented"]):
        cfg = SchemeConfig.from_id(scheme)
        a = run(spec(h, q, H), cfg).final
        b = run(spec(h[::-1], -q[::-1], H[::-1]), cfg).final
        for got, want in ((b.h[::-1], a.h), (-b.q[::-1], a.q)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), scheme


@pytest.mark.parametrize("seed", range(10))
def test_mirror_symmetry_dry_front(seed):
    """The mirror map of ``test_mirror_symmetry_all_wet`` on a run whose
    cells beyond a seeded index start dry: every scheme steps through its
    dry-interface paths, and FORCE/GFORCE also clip, on both sides alike."""
    r = np.random.default_rng(seed)
    n = 40
    k = int(r.integers(10, 31))
    h = np.where(np.arange(n) < k, r.uniform(0.5, 1.5, n), 0.0)
    q = np.where(h > 0, r.uniform(-0.3, 0.3, n), 0.0)
    H = r.uniform(0.3, 0.7, n)

    def spec(h, q, H):
        return SimSpec(grid=Grid(0.0, 1.0, n), bathymetry=lambda x: H,
                       init=lambda x, _: (h, q), bc_left=BoundaryCondition(),
                       bc_right=BoundaryCondition(), stop=StopRule(final_time=0.1))

    for scheme in (s for s, e in SCHEMES.items() if e["implemented"]):
        cfg = SchemeConfig.from_id(scheme)
        report = run(spec(h, q, H), cfg)
        a = report.final
        b = run(spec(h[::-1], -q[::-1], H[::-1]), cfg).final
        for got, want in ((b.h[::-1], a.h), (-b.q[::-1], a.q)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), scheme
        if scheme in ("force-wb", "gforce-wb"):
            assert report.clip_events > 0, scheme


def _max_rest_update(h, H, scheme, steps=20):
    """Largest per-step |dh| + |dq| over ``steps`` CFL steps from rest,
    open boundaries."""
    c = PhysConstants()
    cfg = SchemeConfig.from_id(scheme)
    grid = Grid(0.0, 1.0, len(h))
    bc = BoundaryCondition()
    state = SimState(0.0, h, np.zeros_like(h), H)
    worst = 0.0
    for _ in range(steps):
        after, _ = step(state, cfg, grid, bc, bc, cfl_dt(state, cfg, grid, c), c)
        worst = max(worst, float(np.max(np.abs(after.h - state.h) + np.abs(after.q - state.q))))
        state = after
    return worst


def test_c_property_wet_for_all_and_against_dry_banks_for_hr():
    """Water at rest stays at rest over random step bottoms: for every
    scheme while all cells are wet, and for the HR family also against
    dry banks and emerging bottoms. roe, force-wb and gforce-wb do not
    keep a wet cell at rest next to a dry bank above its surface."""
    implemented = [s for s, e in SCHEMES.items() if e["implemented"]]
    hr_family = ("hr", "modified-hr", "force-hr", "gforce-hr")
    for seed in range(40):
        r = np.random.default_rng(seed)
        n = int(r.integers(10, 40))
        cuts = np.sort(r.choice(np.arange(1, n), size=int(r.integers(1, 6)), replace=False))
        levels = r.uniform(0.0, 1.0, len(cuts) + 1)
        levels[r.integers(len(levels))] = 1.0  # one segment 1 deep, so some cell is wet
        H = levels[np.searchsorted(cuts, np.arange(n), side="right")]
        if seed % 2:
            H = H + r.uniform(-0.01, 0.01, n)
        wet = H - H.min() + r.uniform(0.05, 0.5)
        banks = np.maximum(H - r.uniform(0.05, 0.9), 0.0)  # surface d below the datum
        for scheme in implemented:
            assert _max_rest_update(wet, H, scheme) <= 1e-12, (seed, scheme)
        for scheme in hr_family:
            assert _max_rest_update(banks, H, scheme) <= 1e-12, (seed, scheme)

    # ten wet cells 0.2 deep facing ten dry cells whose bottom lies 0.2
    # above the surface
    c = PhysConstants()
    H = np.r_[np.full(10, 0.5), np.full(10, 0.1)]
    h = np.r_[np.full(10, 0.2), np.zeros(10)]
    bank = SimState(0.0, h, np.zeros(20), H)
    for scheme in implemented:
        res = well_balance_residual(bank, SchemeConfig.from_id(scheme), c)
        assert (res <= 1e-12) if scheme in hr_family else (res > 1e-2), (scheme, res)


# -- run loop -------------------------------------------------------------

def _run(spec, scheme, c=PhysConstants()):
    """``run``, checking that the report and its summary give one outcome."""
    report = run(spec, SchemeConfig.from_id(scheme), c)
    assert report.steady_reached == (report.stop_reason == "steady")
    assert report.summary()["steady_reached"] == report.steady_reached
    return report


def test_run_reaches_steady_on_rest():
    report = _run(_rest_spec(steady=True), "hr")
    assert report.steady_reached
    assert report.metadata["omega_split_form"] == "half"
    assert report.metadata["scheme"] == "hr"


def test_run_probes_and_summary():
    spec = _rest_spec()
    spec.probes = (("mid", 0.5),)
    report = _run(spec, "roe")
    assert abs(report.final_time - 0.05) < 1e-12  # the last step lands on the final time
    assert "mid" in report.probes
    assert report.probes["mid"]["h"] > 0
    s = report.summary()
    assert s["n_steps"] == report.n_steps
    assert s["probes"]["mid"]["x"] == pytest.approx(report.probes["mid"]["x"])


def test_run_records_the_dry_threshold_it_stepped_with():
    report = _run(_rest_spec(), "roe", PhysConstants(h_dry=1e-6))
    assert report.metadata["h_dry"] == 1e-6


def test_registry_has_named_unimplemented_slot():
    assert "subsonic" in SCHEMES
    assert not SCHEMES["subsonic"]["implemented"]
    assert sum(e["implemented"] for e in SCHEMES.values()) == 7


# -- stop reasons ---------------------------------------------------------

def test_stop_reason_steady():
    report = _run(_rest_spec(steady=True), "hr")
    assert report.steady_reached and report.stop_reason == "steady"


def test_a_steady_step_that_lands_on_the_final_time_stops_as_steady():
    """The steady verdict stands when its step also reached the time bound."""
    spec = _rest_spec()
    spec.bathymetry = lambda x: np.full_like(x, 0.5)  # flat: the first residual is 0
    spec.stop = StopRule(final_time=1e-3, steady_tol=1e-8)
    report = _run(spec, "hr")
    assert report.n_steps == 1 and report.final_time == 1e-3
    assert report.final_residual == 0.0 and report.stop_reason == "steady"


def test_stop_reason_final_time():
    report = _run(_rest_spec(), "roe")
    assert report.final_time == pytest.approx(0.05)
    assert report.stop_reason == "final_time"


def test_run_that_takes_no_step():
    spec = _rest_spec()
    spec.stop = StopRule(final_time=0.0)
    report = _run(spec, "roe")
    assert report.n_steps == 0 and report.stop_reason == "final_time"
    assert report.final_residual is None
    assert report.summary()["final_residual"] is None
    assert report.final.t == 0.0
    assert np.array_equal(report.final.h, initial_state(spec, PhysConstants()).h)


def test_stop_reason_max_time():
    """A steady-state run that is not steady when its backstop comes."""
    spec = build_preset(3)
    spec.stop = StopRule(steady_tol=1e-8, max_time=0.05)
    report = _run(spec, "hr")
    assert not report.steady_reached and report.final_time == pytest.approx(0.05)
    assert report.stop_reason == "max_time"


def test_stop_reason_max_steps():
    spec = build_preset(3)
    spec.stop = replace(spec.stop, max_steps=10)
    report = _run(spec, "hr")
    assert report.n_steps == 10 and not report.steady_reached
    assert report.stop_reason == "max_steps"
