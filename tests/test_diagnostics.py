"""Error metrics, well-balance residuals and entropy machinery."""

import threading

import numpy as np
import pytest

import swelab.diagnostics as diagnostics
from swelab.core import ExtState, PhysConstants, PhysState, physical_flux
from swelab.diagnostics import (
    convergence_study,
    entropy_interface_check,
    entropy_production_total,
    l1_error,
    well_balance_residual,
)
from swelab.hydrostatic import hr_reconstruct, modified_hr_corrections
from swelab.fluxes import omega_flux
from swelab.presets import build_preset, exact_profile
from swelab.solver import BoundaryCondition, Grid, SchemeConfig, SimState, StepInfo, step


def test_l1_error_metric():
    a = np.array([1.0, 2.0, 3.0])
    assert l1_error(a, a, 0.5) == 0.0
    assert l1_error(a, a - 0.1, 0.5) == pytest.approx(0.15)
    assert l1_error(a, a + 1, 0.25) == 2 * l1_error(a, a + 1, 0.125)
    with pytest.raises(ValueError):
        l1_error(a, np.zeros(4), 0.5)


def test_well_balance_residual_zero_on_rest():
    c = PhysConstants()
    n = 16
    H = np.linspace(0.1, 0.6, n)
    state = SimState(0.0, 1.0 + H, np.zeros(n), H)
    for scheme in ("roe", "hr", "modified-hr", "force-wb"):
        res = well_balance_residual(state, SchemeConfig.from_id(scheme), c)
        assert res <= 1e-13, scheme


def test_well_balance_residual_nonzero_off_steady():
    c = PhysConstants()
    n = 16
    H = np.linspace(0.1, 0.6, n)
    state = SimState(0.0, 1.0 + 0.5 * H, np.zeros(n), H)  # tilted surface
    assert well_balance_residual(state, SchemeConfig.from_id("roe"), c) > 1e-6


def test_entropy_interface_check_rest_is_tight():
    c = PhysConstants()
    Wl = ExtState(PhysState(0.7, 0.0), 0.5)
    Wr = ExtState(PhysState(0.4, 0.0), 0.2)
    iface = hr_reconstruct(Wl, Wr, c)
    # reconstructed rest pair: the flux is purely pressure
    F = (0.0, 0.5 * c.g * iface.w_minus.h**2)
    chk = entropy_interface_check(Wl.h, Wl.q, Wl.H, Wr.h, Wr.q, Wr.H, F, c)
    assert chk.satisfied
    assert chk.E_l == pytest.approx(0.0, abs=1e-13)
    assert chk.E_r == pytest.approx(0.0, abs=1e-13)


def test_entropy_interface_check_random_lf_interfaces():
    """The omega=0 flux on reconstructed states passes the one-sided
    condition on non-large-step wet pairs."""
    c = PhysConstants()
    r = np.random.default_rng(3)
    checked = 0
    for _ in range(300):
        hl, hr = r.uniform(0.1, 1.0, 2)
        ul, ur = r.uniform(-1.5, 1.5, 2)
        Hl, Hr = r.uniform(-0.3, 0.3, 2)
        Wl = ExtState(PhysState(hl, hl * ul), Hl)
        Wr = ExtState(PhysState(hr, hr * ur), Hr)
        iface = hr_reconstruct(Wl, Wr, c)
        if np.any(iface.large_step):
            continue
        smax = max(abs(ul) + np.sqrt(c.g * hl), abs(ur) + np.sqrt(c.g * hr))
        dx = 0.1
        dt = 0.9 * dx / smax
        F = omega_flux(iface.w_minus, iface.w_plus, 0.0, dx, dt, c)
        chk = entropy_interface_check(hl, hl * ul, Hl, hr, hr * ur, Hr, F, c, tol=1e-11)
        assert chk.satisfied, (Wl, Wr, chk.E_l, chk.E_r)
        checked += 1
    assert checked > 200


def test_entropy_interface_check_accepts_corrections():
    c = PhysConstants()
    Wl = ExtState(PhysState(0.1, 0.02), 0.9)
    Wr = ExtState(PhysState(0.3, 0.05), 0.2)
    iface = hr_reconstruct(Wl, Wr, c)
    corr = modified_hr_corrections(Wl, Wr, "dimensional", c)
    F = omega_flux(iface.w_minus, iface.w_plus, 0.0, 0.1, 0.01, c)
    chk = entropy_interface_check(Wl.h, Wl.q, Wl.H, Wr.h, Wr.q, Wr.H, F, c,
                                  T_minus=corr.T_minus, T_plus=corr.T_plus)
    assert np.isfinite(chk.E_l) and np.isfinite(chk.E_r)
    assert chk.H_star_used == iface.H_star


def test_entropy_production_zero_on_rest():
    c = PhysConstants()
    n = 8
    H = np.linspace(0.0, 0.4, n)
    state = SimState(0.0, 1.0 + H, np.zeros(n), H)
    open_bc = BoundaryCondition()
    after, info = step(state, SchemeConfig.from_id("hr"), Grid(0.0, 0.8, n),
                       open_bc, open_bc, 0.01, c)
    assert entropy_production_total(state, after, 0.01, 0.1, c, info) == 0.0


def test_entropy_production_interior_term():
    """With ghosts equal to the boundary cells and one-sided fluxes equal
    to their physical fluxes, the closure is the exact boundary-cell
    entropy flux, and the diagnostic is the plain eta~ budget."""
    c = PhysConstants()
    H = np.zeros(4)
    before = SimState(0.0, np.full(4, 0.5), np.full(4, 0.1), H)
    after = SimState(0.01, np.full(4, 0.5), np.full(4, 0.1), H)
    after.h[1] = 0.49  # lose a little potential energy in one cell
    F = tuple(physical_flux(PhysState(0.5, 0.1), c))
    info = StepInfo(clip_events=0, minor_clip_events=0, min_h_pre_clip=0.49,
                    update_l1=float(np.abs(after.h - before.h).sum()),
                    ghosts=((0.5, 0.1, 0.0), (0.5, 0.1, 0.0)), left_flux=F, right_flux=F)
    val = entropy_production_total(before, after, 0.01, 0.1, c, info)
    # interior change only: boundary cells are identical, G cancels
    from swelab.core import entropy_pair

    d = (entropy_pair(ExtState(PhysState(0.49, 0.1), 0.0), c).eta
         - entropy_pair(ExtState(PhysState(0.5, 0.1), 0.0), c).eta)
    assert val == pytest.approx(d * 0.1 / 0.01, rel=1e-12)


def test_convergence_study_refines():
    cfg = SchemeConfig.from_id("roe")
    rows, cells = convergence_study(
        lambda n: build_preset(6, n_cells=n),
        cfg,
        lambda x: exact_profile(6, x),
        bound=0.05,
        meshes=(25, 50, 100),
    )
    errs = [r.l1_error for r in rows]
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert cells is not None and cells in (25, 50, 100)
    # an unreachable bound reports None
    _, none_cells = convergence_study(
        lambda n: build_preset(6, n_cells=n), cfg,
        lambda x: exact_profile(6, x), bound=1e-12, meshes=(25,),
    )
    assert none_cells is None


def test_convergence_study_runs_on_the_calling_thread(monkeypatch):
    threads = []
    real_run = diagnostics.run

    def recording_run(*args, **kwargs):
        threads.append(threading.current_thread())
        return real_run(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "run", recording_run)
    rows, _ = convergence_study(lambda n: build_preset(6, n_cells=n), SchemeConfig.from_id("roe"),
                                lambda x: exact_profile(6, x), bound=0.05, meshes=(20, 25))
    assert [r.n_cells for r in rows] == [20, 25]
    assert threads == [threading.current_thread()] * 2


def test_convergence_study_accepts_only_one_worker(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run called with an invalid worker count")

    monkeypatch.setattr(diagnostics, "run", no_run)
    with pytest.raises(ValueError, match="max_workers"):
        convergence_study(lambda n: build_preset(6, n_cells=n), SchemeConfig.from_id("roe"),
                          lambda x: exact_profile(6, x), bound=0.05, meshes=(20,),
                          max_workers=2)


@pytest.mark.parametrize("bound", [np.nan, np.inf, -1.0, 0.0])
def test_convergence_study_rejects_a_bound_no_error_can_meet(monkeypatch, bound):
    def no_run(*args, **kwargs):
        raise AssertionError("run called with an invalid bound")

    monkeypatch.setattr(diagnostics, "run", no_run)
    with pytest.raises(ValueError, match="bound"):
        convergence_study(lambda n: build_preset(6, n_cells=n), SchemeConfig.from_id("roe"),
                          lambda x: exact_profile(6, x), bound=bound, meshes=(20,))
