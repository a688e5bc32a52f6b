"""End-to-end acceptance gate.

Ten criteria, one test and one printed verdict line each. Tolerances are
pinned; two clauses of criterion 5 and the single clause of criterion 8
are known to fail with the faithful implementation (the measured values
are printed next to the bound) -- see the companion qualitative
regression tests which capture the real behavior behind those criteria.
"""

import functools
import sys

import numpy as np
import pytest

from swelab.core import (
    ExtState,
    NearCriticalError,
    NoAdmissibleRootError,
    PhysConstants,
    PhysState,
    critical_depth,
    exact_smooth_profile,
    exact_step_state,
    froude_squared,
    invariant_depth_function,
    physical_flux,
    riemann_invariant,
)
from swelab.diagnostics import entropy_interface_check, l1_error
from swelab.fluxes import omega_flux, roe_flux
from swelab.hydrostatic import hr_reconstruct, modified_hr_corrections
from swelab.presets import build_preset, exact_profile
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
from swelab.sources import omega_source_split, roe_source_split

from conftest import path_source_trapezoid

C = PhysConstants()
IMPLEMENTED = tuple(s for s, e in SCHEMES.items() if e["implemented"])

# Cross-scheme agreement threshold, read off the common vertical scale of
# the transcritical-bump comparison plots (the profiles overlay at the
# 1e-2 m level there).
_CROSS_SCHEME_TOL = 0.01


def _verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{tag}] {name}" + (f": {detail}" if detail else "")
    print(line, file=sys.__stderr__, flush=True)
    return line


def _lf_hr_config(variant="hr"):
    return SchemeConfig(scheme=f"lax-friedrichs-{variant}", flux="lax-friedrichs",
                        source=variant, cfl=0.9)


def _march(state, cfg, grid, bc_l, bc_r, n_steps):
    """n CFL-limited steps; returns the per-step max |dh|+|dq| residuals."""
    residuals = []
    for _ in range(n_steps):
        dt = cfl_dt(state, cfg, grid, C)
        after, _ = step(state, cfg, grid, bc_l, bc_r, dt, C)
        residuals.append(float(np.max(np.abs(after.h - state.h)
                                      + np.abs(after.q - state.q))))
        state = after
    return max(residuals)


# -- shared heavy runs ----------------------------------------------------

@functools.lru_cache(maxsize=None)
def _steady_test1(scheme, alpha, n_cells):
    # the measured spreads are unchanged if the steady tolerance is
    # tightened to 1e-12; the preset default keeps the gate fast
    spec = build_preset(1, n_cells=n_cells, alpha=alpha)
    return run(spec, SchemeConfig.from_id(scheme), C).final.h


@functools.lru_cache(maxsize=None)
def _steady_test2(scheme):
    return run(build_preset(2), SchemeConfig.from_id(scheme), C)


@functools.lru_cache(maxsize=None)
def _steady_test3(scheme, H_r):
    return run(build_preset(3, H_r=H_r), SchemeConfig.from_id(scheme), C)


def _pairwise_linf(profiles):
    vals = list(profiles)
    return max(
        float(np.max(np.abs(a - b)))
        for i, a in enumerate(vals) for b in vals[i + 1:]
    )


# -- criterion 1: exact C-property ----------------------------------------

def test_criterion_01_c_property():
    failures = []
    worst = 0.0

    # fully wet rest over the parabolic bump, and over a rough bottom
    bump = build_preset(2)
    x2 = bump.grid.centers()
    H2 = np.asarray(bump.bathymetry(x2), float)
    rough_rng = np.random.default_rng(42)
    H_rough = rough_rng.uniform(0.2, 0.8, 100)
    cases = {
        "bump": (bump.grid, SimState(0.0, 0.33 + H2, np.zeros_like(H2), H2)),
        "rough": (Grid(0.0, 1.0, 100),
                  SimState(0.0, 1.0 + H_rough, np.zeros(100), H_rough)),
    }
    bc = BoundaryCondition()
    for scheme in IMPLEMENTED:
        cfg = SchemeConfig.from_id(scheme)
        for label, (grid, state) in cases.items():
            res = _march(state.copy(), cfg, grid, bc, bc, 100)
            worst = max(worst, res)
            if res > 1e-12:
                failures.append(f"{scheme}/{label}: {res:.2e}")

    # emerging dry region at rest (ramp basin geometry) for the HR family
    ramp = build_preset(5)
    x5 = ramp.grid.centers()
    H5 = np.asarray(ramp.bathymetry(x5), float)
    h5 = np.maximum(H5 - 0.9, 0.0)
    for scheme in ("hr", "modified-hr"):
        cfg = SchemeConfig.from_id(scheme)
        state = SimState(0.0, h5.copy(), np.zeros_like(h5), H5)
        res = _march(state, cfg, ramp.grid, bc, bc, 100)
        worst = max(worst, res)
        if res > 1e-12:
            failures.append(f"{scheme}/dry-rest: {res:.2e}")

    msg = _verdict(1, "exact C-property", not failures,
                   f"max per-step residual {worst:.2e}"
                   + (f"; failures {failures}" if failures else ""))
    assert not failures, msg


# -- criterion 2: flux consistency ----------------------------------------

def test_criterion_02_flux_consistency():
    r = np.random.default_rng(7)
    h = r.uniform(1e-3, 10.0, 1000)
    u = r.uniform(-8.0, 8.0, 1000)
    w = PhysState(h, h * u)
    F = physical_flux(w, C)
    scale = np.maximum(1.0, np.maximum(np.abs(F[0]), np.abs(F[1])))
    worst = 0.0
    for label, f in [
        ("roe", roe_flux(w, w, C)),
        ("force", omega_flux(w, w, 0.5, 0.1, 0.01, C)),
        ("gforce", omega_flux(w, w, 1.0 / 1.9, 0.1, 0.01, C)),
        ("lf", omega_flux(w, w, 0.0, 0.1, 0.01, C)),
        ("lw", omega_flux(w, w, 1.0, 0.1, 0.01, C)),
    ]:
        err = max(np.max(np.abs(f[0] - F[0]) / scale), np.max(np.abs(f[1] - F[1]) / scale))
        worst = max(worst, float(err))
    ok = worst <= 1e-14
    msg = _verdict(2, "flux consistency on 1000 random wet states", ok,
                   f"max relative defect {worst:.2e} (tol 1e-14)")
    assert ok, msg


# -- criterion 3: path-sum identity ---------------------------------------

def test_criterion_03_path_sum_identity():
    r = np.random.default_rng(11)
    n = 1000
    hl, hr = r.uniform(1e-3, 10.0, (2, n))
    ul, ur = r.uniform(-8.0, 8.0, (2, n))
    Hl, Hr = r.uniform(-1.0, 1.0, (2, n))
    Wl = ExtState(PhysState(hl, hl * ul), Hl)
    Wr = ExtState(PhysState(hr, hr * ur), Hr)
    t0, t1 = path_source_trapezoid(Wl, Wr, C)
    worst = 0.0
    splits = [roe_source_split(Wl, Wr, C),
              omega_source_split(Wl, Wr, 0.5, 0.1, 0.01, C),
              omega_source_split(Wl, Wr, 1.0 / 1.9, 0.1, 0.01, C)]
    for split in splits:
        s0 = split.minus[0] + split.plus[0]
        s1 = split.minus[1] + split.plus[1]
        # the parts may dwarf their sum; scale by what was actually added
        scale = np.maximum.reduce(
            [np.ones(n), np.abs(t1), np.abs(split.minus[1]), np.abs(split.plus[1])]
        )
        worst = max(worst, float(np.max(np.abs(s0 - t0) / scale)),
                    float(np.max(np.abs(s1 - t1) / scale)))
    ok = worst <= 1e-13
    msg = _verdict(3, "path-sum identity on 1000 random wet pairs", ok,
                   f"max relative defect {worst:.2e} (tol 1e-13)")
    assert ok, msg


# -- criterion 4: positivity over a dry bed -------------------------------

def test_criterion_04_positivity_dry_dam_break():
    grid = Grid(0.0, 10.0, 200)
    x = grid.centers()
    h = np.where(x < 5.0, 1.0, 0.0)
    failures = []
    min_seen = 0.0
    for variant in ("hr", "modified-hr"):
        cfg = _lf_hr_config("hr" if variant == "hr" else "modified-hr")
        state = SimState(0.0, h.copy(), np.zeros_like(h), np.zeros_like(h))
        clips = 0
        min_h = np.inf
        while state.t < 0.5:
            dt = min(cfl_dt(state, cfg, grid, C), 0.5 - state.t)
            state, info = step(state, cfg, grid, BoundaryCondition(),
                               BoundaryCondition(), dt, C)
            clips += info.clip_events
            min_h = min(min_h, info.min_h_pre_clip)
        min_seen = min(min_seen, min_h)
        if min_h < -1e-14 or clips > 0:
            failures.append(f"{variant}: min h {min_h:.2e}, clips {clips}")
    msg = _verdict(4, "positivity, dam break onto a dry bed", not failures,
                   f"min pre-clip depth {min_seen:.2e} (bound -1e-14), zero clip events")
    assert not failures, msg


# -- criterion 5: plateau on a steep slope (coarse grid) ------------------

_ALPHAS = (16.0, 17.0, 18.0, 19.0, 20.0, 21.0)


def _test1_spreads():
    done = {
        (s, a, n): _steady_test1(s, a, n)
        for s, n in (("hr", 50), ("modified-hr", 50), ("hr", 150))
        for a in _ALPHAS
    }
    return {
        key: _pairwise_linf([done[(s, a, n)] for a in _ALPHAS])
        for key, (s, n) in {"hr50": ("hr", 50), "mod50": ("modified-hr", 50),
                            "hr150": ("hr", 150)}.items()
    }


@functools.lru_cache(maxsize=1)
def _test1_spreads_cached():
    return _test1_spreads()


def test_criterion_05_slope_plateau():
    # Known red: the alpha range 16..21 sits below the onset of the
    # exact plateau for these boundary data (the first interfaces do not
    # clip, so the reconstruction still feels the slope), and the exact
    # steady profiles themselves differ by less than 1e-3 across the
    # range, putting the two >= 1e-3 clauses out of reach of any
    # convergent scheme. Measured values are printed with each bound.
    sp = _test1_spreads_cached()
    ok = sp["hr50"] <= 1e-8 and sp["mod50"] >= 1e-3 and sp["hr150"] >= 1e-3
    msg = _verdict(
        5, "coarse-grid plateau independence of the slope", ok,
        f"HR@50 spread {sp['hr50']:.2e} (need <= 1e-8), "
        f"modified@50 {sp['mod50']:.2e} (need >= 1e-3), "
        f"HR@150 {sp['hr150']:.2e} (need >= 1e-3)",
    )
    assert ok, msg


def test_criterion_05_qualitative_regression():
    """The mechanism behind criterion 5, at bounds the scheme does meet:
    the original reconstruction is far less sensitive to the slope than
    the modified one on the coarse grid, and its plateau degrades under
    refinement."""
    sp = _test1_spreads_cached()
    assert sp["hr50"] < 0.5 * sp["mod50"]
    assert sp["hr150"] > 2.0 * sp["hr50"]


def test_criterion_05_exact_profiles_differ_by_less_than_1e3():
    """The reason criterion 5 stays red, checked against the exact solution:
    from test 1's supercritical inlet state at the first cell centre, the
    exact steady profiles for alpha = 16..21 differ by less than 1e-3 at
    both of the criterion's grids."""
    inlet = PhysState(0.02, 0.01)
    assert float(froude_squared(inlet, C)) == pytest.approx(1.274, abs=1e-3)
    for n in (50, 150):
        profiles = []
        for a in _ALPHAS:
            spec = build_preset(1, n_cells=n, alpha=a)
            x = spec.grid.centers()
            W0 = ExtState(inlet, float(spec.bathymetry(x)[0]))
            profiles.append(exact_smooth_profile(spec.bathymetry, W0, x, C).h)
        assert _pairwise_linf(profiles) < 1e-3, n


# -- criterion 6: step plateau versus step height -------------------------

_H_R_VALUES = (0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50)


def test_criterion_06_step_plateau():
    reports = {(s, H_r): _steady_test3(s, H_r)
               for s in ("hr", "modified-hr") for H_r in _H_R_VALUES}

    # where does the large-step condition first hold at the step itself?
    # H* = min(0.1, H_r) = 0.1, so it is the downstream column that can
    # clip: h_right - H_r + H* < 0 once the step is deep enough
    onset = None
    for i, H_r in enumerate(_H_R_VALUES):
        final = reports[("hr", H_r)].final
        h_right = final.h[len(final.h) // 2]
        if h_right - H_r + min(0.1, H_r) < 0:
            onset = i
            break
    assert onset is not None, "no step height triggered the large-step condition"

    hr_vals = np.array([reports[("hr", H_r)].probes["h_r"]["h"] for H_r in _H_R_VALUES])
    mod_vals = np.array([reports[("modified-hr", H_r)].probes["h_r"]["h"]
                         for H_r in _H_R_VALUES])
    exact_vals = np.array([
        exact_step_state(ExtState(PhysState(0.1, 0.1), 0.1), H_r, C).h
        for H_r in _H_R_VALUES
    ])

    hr_spread = float(np.max(np.abs(hr_vals[onset:] - hr_vals[onset])))
    mod_steps = np.abs(np.diff(mod_vals))
    ok = hr_spread <= 1e-6 and np.all(mod_steps >= 1e-4)
    msg = _verdict(
        6, "downstream plateau versus step height", ok,
        f"HR spread beyond onset (H_r={_H_R_VALUES[onset]}) {hr_spread:.2e} "
        f"(tol 1e-6); modified min successive step {mod_steps.min():.2e} "
        f"(need >= 1e-4)",
    )
    # neither scheme tracks the exact contact; the exact curve ships alongside
    print("exact h_r curve:", np.array2string(exact_vals, precision=6),
          file=sys.__stderr__)
    assert ok, msg


# -- criterion 7: quantitative convergence bound --------------------------

def test_criterion_07_convergence_ladder():
    from swelab.diagnostics import convergence_study

    meshes = (100, 200, 400, 800, 1600, 3200)
    results = {}
    for scheme in IMPLEMENTED:
        rows, cells = convergence_study(
            lambda n: build_preset(6, n_cells=n),
            SchemeConfig.from_id(scheme),
            lambda x: exact_profile(6, x),
            bound=0.008,
            meshes=meshes,
        )
        results[scheme] = ([r.l1_error for r in rows], cells)

    failures = []
    for scheme, (errs, cells) in results.items():
        for a, b in zip(errs, errs[1:]):
            if b > 1.05 * a:  # non-increasing within 5% slack per rung
                failures.append(f"{scheme}: error rose {a:.4f} -> {b:.4f}")
    roe_cells = results["roe"][1]
    if roe_cells is None:
        failures.append("roe never met the 0.008 bound")
    else:
        for scheme, (_, cells) in results.items():
            if cells is not None and cells < roe_cells:
                failures.append(f"{scheme} met the bound before roe")
    needed = {s: c for s, (_, c) in results.items()}
    msg = _verdict(7, "L1 convergence ladder and the 0.008 bound", not failures,
                   f"cells needed {needed}"
                   + (f"; failures {failures}" if failures else ""))
    assert not failures, msg


# -- criterion 8: cross-scheme agreement on the bump ----------------------

def test_criterion_08_cross_scheme_agreement():
    # Known red under the integral L1 metric: the centred-flux schemes
    # smear the stationary shock over visibly more cells than the Roe
    # family at 200 cells, and the shock sits a few cells apart between
    # them; both effects shrink like dx but exceed 0.01 at this
    # resolution. The mean-absolute reading (printed below) is an order
    # of magnitude smaller.
    reports = {s: _steady_test2(s) for s in IMPLEMENTED}
    dx = build_preset(2).grid.dx
    profiles = {s: reports[s].final.h for s in IMPLEMENTED}
    worst = 0.0
    worst_pair = None
    mean_abs = 0.0
    pairs = 0
    for i, a in enumerate(IMPLEMENTED):
        for b in IMPLEMENTED[i + 1:]:
            d = l1_error(profiles[a], profiles[b], dx)
            if d > worst:
                worst, worst_pair = d, (a, b)
            mean_abs = max(mean_abs, float(np.mean(np.abs(profiles[a] - profiles[b]))))
            pairs += 1
    ok = worst <= _CROSS_SCHEME_TOL
    msg = _verdict(
        8, "cross-scheme agreement, transcritical bump", ok,
        f"max pairwise L1 {worst:.4f} {worst_pair} over {pairs} pairs "
        f"(tol {_CROSS_SCHEME_TOL}); max pairwise mean-abs {mean_abs:.4f}",
    )
    assert ok, msg


# -- criterion 9: entropy diagnostics -------------------------------------

def test_criterion_09_entropy():
    cfg = _lf_hr_config("hr")
    spec = build_preset(2)
    rep = run(spec, cfg, C, track_entropy=True)
    max_prod = float(np.max(rep.entropy_production))

    # one-sided interface condition along the run (sampled) and at the end
    violations = 0
    checked = 0
    state = initial_state(spec, C)
    grid = spec.grid
    for k in range(301):
        dt = cfl_dt(state, cfg, grid, C)
        if k % 20 == 0 or k == 300:
            (hp, qp, Hp), _ = apply_boundaries(state, spec.bc_left, spec.bc_right)
            Wl = ExtState(PhysState(hp[:-1], qp[:-1]), Hp[:-1])
            Wr = ExtState(PhysState(hp[1:], qp[1:]), Hp[1:])
            iface = hr_reconstruct(Wl, Wr, C)
            F = omega_flux(iface.w_minus, iface.w_plus, 0.0, grid.dx, dt, C)
            chk = entropy_interface_check(hp[:-1], qp[:-1], Hp[:-1], hp[1:], qp[1:], Hp[1:],
                                          F, C, tol=1e-10)
            sat = np.asarray(chk.satisfied) | np.asarray(iface.large_step)
            violations += int(np.count_nonzero(~sat))
            checked += sat.size
        state, _ = step(state, cfg, grid, spec.bc_left, spec.bc_right, dt, C)

    # gate-case behavior of the modified corrections is recorded, not required
    r = np.random.default_rng(5)
    gate_cases = gate_violations = 0
    while gate_cases < 100:
        h = r.uniform(0.05, 1.0)
        u = r.uniform(1.0, 8.0)
        Hl = r.uniform(0.0, 1.0)
        Hr = -(h - Hl) - r.uniform(0.01, 0.3)
        Wl = ExtState(PhysState(h, h * u), Hl)
        Wr = ExtState(PhysState(0.0, 0.0), Hr)
        corr = modified_hr_corrections(Wl, Wr, "dimensional", C)
        if not np.any(corr.gate_applied):
            continue
        # both reconstructed columns are empty here, so the flux is zero
        # and the condition reduces to the sign of u T
        chk = entropy_interface_check(h, h * u, Hl, 0.0, 0.0, Hr, (0.0, 0.0), C,
                                      T_minus=corr.T_minus, T_plus=corr.T_plus)
        gate_cases += 1
        gate_violations += int(not chk.satisfied)

    ok = max_prod <= 1e-10 and violations == 0
    msg = _verdict(
        9, "entropy production and interface condition", ok,
        f"max per-step production {max_prod:.2e} (tol 1e-10); "
        f"interface violations {violations}/{checked}; "
        f"modified-HR gate cases losing the condition (recorded only): "
        f"{gate_violations}/{gate_cases}",
    )
    assert ok, msg


# -- criterion 10: oracle equivalence -------------------------------------

def test_criterion_10_oracle_vs_brute_force():
    r = np.random.default_rng(2024)
    instances = 0
    mismatches = 0
    worst = 0.0
    while instances < 50:
        h = r.uniform(0.05, 1.5)
        u = r.uniform(0.2, 3.0) * (1 if r.random() < 0.5 else -1)
        Hl = r.uniform(-0.5, 0.5)
        W = ExtState(PhysState(h, h * u), Hl)
        if abs(froude_squared(W.state, C) - 1.0) < 0.05:
            continue
        Hr = Hl + r.uniform(-0.4, 0.4)
        try:
            ex = exact_step_state(W, Hr, C)
        except (NoAdmissibleRootError, NearCriticalError):
            continue
        q, inv = riemann_invariant(W, C)
        target = inv + Hr
        h_c = critical_depth(q, C)
        if froude_squared(W.state, C) > 1.0:
            lo, hi = np.sqrt(q * q / (2.0 * C.g * target)) * 0.5, h_c
        else:
            lo, hi = h_c, max(target, h_c) + 0.1
        grid = np.arange(lo, hi, 1e-7)
        best = grid[np.argmin(np.abs(invariant_depth_function(grid, q, C) - target))]
        err = abs(best - ex.h)
        worst = max(worst, err)
        mismatches += err > 1e-6
        instances += 1

    # the smooth-profile oracle is the same solve per sample point;
    # cross-check a handful of positions of the ramp profile
    prof_x = np.array([0.25, 0.3, 0.35, 0.5, 2.0])
    prof = exact_profile(6, prof_x, C)
    inlet = ExtState(PhysState(0.5, 1.2), 0.1)
    q, inv = riemann_invariant(inlet, C)
    spec = build_preset(6)
    for xi, hi_exact in zip(prof_x, prof):
        target = inv + float(np.asarray(spec.bathymetry(np.array([xi])))[0])
        h_c = critical_depth(q, C)
        grid = np.arange(np.sqrt(q * q / (2.0 * C.g * target)) * 0.5, h_c, 1e-7)
        best = grid[np.argmin(np.abs(invariant_depth_function(grid, q, C) - target))]
        err = abs(best - hi_exact)
        worst = max(worst, err)
        mismatches += err > 1e-6

    ok = mismatches == 0
    msg = _verdict(10, "oracles agree with the brute-force scan", ok,
                   f"{mismatches} mismatches over 55 instances, "
                   f"worst |dh| {worst:.2e} (tol 1e-6)")
    assert ok, msg
