"""Regression lock: today's numerics and CLI output, pinned.

Every preset x implemented scheme runs to a short fixed final time and
its final h, q must match the committed reference to 1e-12 relative
(max-norm of the difference over the max-norm of the reference). One
``swelab run`` and one ``swelab sweep`` must reproduce their committed
output files byte for byte.

A one-step lock covers the branches the preset runs may not reach:
seeded states with dry/dry pairs, emerging-bottom gates under both gate
policies, sonic Roe interfaces, every boundary kind and a clipping step.
Each state takes one ``step`` per implemented scheme (modified-hr once
per gate policy); the new h, q and the ``StepInfo`` must match the
reference in ``one_step.npz`` to 1e-12 relative.

The reference lives in ``tests/data/regression_lock/``. Regenerate it
only for a change that is meant to move results, and say so:

    PYTHONPATH=src python tests/test_regression_lock.py            # everything
    PYTHONPATH=src python tests/test_regression_lock.py one-step   # one_step.npz only
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

import swelab.cli as cli
from swelab.core import ExtState, PhysConstants, PhysState
from swelab.hydrostatic import GATE_POLICIES, modified_hr_corrections
from swelab.presets import DEFAULT_CELLS, build_preset
from swelab.solver import (
    SCHEMES,
    BoundaryCondition,
    Grid,
    SchemeConfig,
    SimState,
    StopRule,
    cfl_dt,
    run,
    step,
)
from swelab.sources import lambda_floor

DATA = Path(__file__).resolve().parent / "data" / "regression_lock"
STATES = DATA / "final_states.npz"
ONE_STEP = DATA / "one_step.npz"
REL_TOL = 1e-12

# short enough for the whole lock to take seconds, long enough (56-520
# steps) to reach the wet/dry front, clipping and the step corrections
FINAL_TIME = {1: 2.0, 2: 3.0, 3: 0.1, 4: 0.1, 5: 0.5, 6: 0.5}
IMPLEMENTED = tuple(s for s, e in SCHEMES.items() if e["implemented"])
CASES = [(t, s) for t in sorted(DEFAULT_CELLS) for s in IMPLEMENTED]

CLI_RUNS = {
    "run": ["run", "--test", "5", "--scheme", "force-wb", "--cells", "80",
            "--until", "time=0.5"],
    "sweep": ["sweep", "--test", "3", "--scheme", "hr", "--scheme", "modified-hr",
              "--scheme", "gforce-wb", "--cells", "40", "--until", "time=0.2",
              "--sweep", "H_r=0.25,0.45"],
}
CLI_FILES = {"run": ("snapshot_final.csv", "summary.json"), "sweep": ("sweep.csv",)}


def final_state(test_id: int, scheme: str):
    spec = build_preset(test_id)
    spec.stop = StopRule(final_time=FINAL_TIME[test_id])
    report = run(spec, SchemeConfig.from_id(scheme))
    assert report.steady_reached == (report.stop_reason == "steady")
    return report.final.h, report.final.q


def _key(test_id, scheme, name):
    return f"{test_id}/{scheme}/{name}"


@pytest.fixture(scope="module")
def reference():
    with np.load(STATES) as ref:
        return dict(ref)


@pytest.mark.parametrize("test_id,scheme", CASES)
def test_final_state_locked(reference, test_id, scheme):
    h, q = final_state(test_id, scheme)
    for name, got in (("h", h), ("q", q)):
        want = reference[_key(test_id, scheme, name)]
        assert got.shape == want.shape
        scale = max(float(np.max(np.abs(want))), 1e-300)
        rel = float(np.max(np.abs(got - want))) / scale
        assert rel <= REL_TOL, f"test {test_id} {scheme} {name}: relative change {rel:.2e}"


@pytest.mark.parametrize("command", sorted(CLI_RUNS))
def test_cli_output_bytes_locked(tmp_path, command):
    assert cli.main(CLI_RUNS[command] + ["--out", str(tmp_path)]) == 0
    for name in CLI_FILES[command]:
        assert (tmp_path / name).read_bytes() == (DATA / command / name).read_bytes(), name


# -- one-step lock ----------------------------------------------------------

C = PhysConstants()
STEP_VARIANTS = [(s, "dimensional") for s in IMPLEMENTED] + [("modified-hr", "as-printed")]
_BC = BoundaryCondition


def _dry_pairs(rng):
    """Dry runs inside the domain and at the right end, a damp cell below
    h_dry, wet cells with random flow elsewhere."""
    n = 24
    H = 0.3 + 0.1 * rng.random(n)
    h = rng.uniform(0.2, 0.5, n)
    h[8:13] = 0.0
    h[13] = 0.5e-8
    h[-3:] = 0.0
    q = np.where(h > C.h_dry, h * rng.uniform(-1.0, 1.0, n), 0.0)
    return h, q, H


def _gate_right(rng):
    """Shallow fast flow toward a dry bank 1 cm above its free surface:
    the emerging-bottom gate opens under both policies."""
    n = 12
    H = np.where(np.arange(n) < 6, 0.3, 0.24)
    h = np.where(np.arange(n) < 6, 0.05 * (1.0 + 0.01 * rng.random(n)), 0.0)
    return h, 3.0 * h, H


def _gate_left(rng):
    h, q, H = _gate_right(rng)
    return h[::-1].copy(), -q[::-1], H[::-1].copy()


def _gate_split(rng):
    """Deep fast flow toward a bank 5 cm above the surface: the
    dimensional gate opens, the as-printed one stays shut."""
    n = 12
    wet = np.arange(n) < 7
    H = np.where(wet, 0.5, -0.05)
    h = np.where(wet, 0.5 + 0.001 * rng.random(n), 0.0)
    return h, 8.0 * h, H


def _sonic(rng):
    """Equal states at the critical discharge over a bottom step (Roe
    eigenvalue u - c at round-off), random wet states beyond."""
    n = 16
    H = np.where(np.arange(n) < 8, 0.2, 0.35)
    h = np.concatenate([np.full(8, 0.3), rng.uniform(0.3, 0.6, 8)])
    q = np.concatenate([np.full(8, 0.3 * np.sqrt(C.g * 0.3)), rng.uniform(-0.5, 0.5, 8)])
    return h, q, H


def _wet(rng):
    n = 20
    H = rng.uniform(0.0, 0.4, n)
    h = rng.uniform(0.1, 0.8, n)
    return h, h * rng.uniform(-2.0, 2.0, n), H


def _preset_after(test_id, scheme, n_steps):
    """State of a preset after a few steps of one scheme."""
    from swelab.solver import initial_state

    spec = build_preset(test_id)
    cfg = SchemeConfig.from_id(scheme)
    state = initial_state(spec, C)
    for _ in range(n_steps):
        dt = cfl_dt(state, cfg, spec.grid, C)
        state, _ = step(state, cfg, spec.grid, spec.bc_left, spec.bc_right, dt, C)
    return state.h, state.q, state.H


# name -> (left boundary, right boundary, builder of (h, q, H) from a seeded rng)
STEP_CASES = {
    "dry-pairs": (_BC(q=0.05), _BC(h=0.0), _dry_pairs),
    "gate-right": (_BC(h=0.05, q=0.15), _BC(), _gate_right),
    "gate-left": (_BC(), _BC(h=0.05, q=-0.15), _gate_left),
    "gate-split": (_BC(h=0.5, q=4.0), _BC(h=0.0), _gate_split),
    "sonic": (_BC(periodic=True), _BC(periodic=True), _sonic),
    "wet-discharge-depth": (_BC(q=0.3), _BC(h=0.45), _wet),
    "wet-both-discharge": (_BC(h=0.4, q=0.5), _BC(q=-0.2), _wet),
    "clip-step": (_BC(h=0.1, q=0.15), _BC(), lambda rng: _preset_after(3, "force-wb", 40)),
    "clip-runup": (_BC(h=0.1, q=0.9), _BC(), lambda rng: _preset_after(5, "force-wb", 60)),
}
STEP_GRIDS = {"clip-step": 3, "clip-runup": 5}  # cases on a preset's grid


def _step_grid(name, n):
    if name in STEP_GRIDS:
        return build_preset(STEP_GRIDS[name]).grid
    return Grid(0.0, 1.0, n)


def _variant(scheme, gate):
    return scheme if gate == "dimensional" else f"{scheme}@{gate}"


def one_step(name, h, q, H, scheme, gate, dt=None):
    """cfl_dt, then one step; returns (dt, h, q, info vector).

    The info vector holds clip_events, minor_clip_events,
    min_h_pre_clip, left_flux, right_flux and the two ghosts (h, q, H).
    """
    bc_left, bc_right, _ = STEP_CASES[name]
    grid = _step_grid(name, len(h))
    cfg = SchemeConfig.from_id(scheme, gate=gate)
    state = SimState(0.0, h.copy(), q.copy(), H.copy())
    if dt is None:
        dt = cfl_dt(state, cfg, grid, C)
    after, info = step(state, cfg, grid, bc_left, bc_right, dt, C)
    vec = [info.clip_events, info.minor_clip_events, info.min_h_pre_clip,
           *info.left_flux, *info.right_flux, *info.ghosts[0], *info.ghosts[1]]
    return dt, after.h, after.q, np.array(vec, dtype=float)


def _rel(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) / scale


@pytest.fixture(scope="module")
def step_reference():
    with np.load(ONE_STEP) as ref:
        return dict(ref)


@pytest.mark.parametrize("name", sorted(STEP_CASES))
@pytest.mark.parametrize("scheme,gate", STEP_VARIANTS)
def test_one_step_locked(step_reference, name, scheme, gate):
    ref = step_reference
    h0, q0, H0 = (ref[f"{name}/{k}"] for k in ("h0", "q0", "H0"))
    key = f"{name}/{_variant(scheme, gate)}"
    dt_ref = float(ref[key + "/dt"])
    dt = one_step(name, h0, q0, H0, scheme, gate)[0]
    assert abs(dt - dt_ref) <= REL_TOL * dt_ref, f"{key}: cfl_dt {dt!r} != {dt_ref!r}"
    _, h, q, info = one_step(name, h0, q0, H0, scheme, gate, dt=dt_ref)
    want = ref[key + "/info"]
    assert _rel(h, ref[key + "/h"]) <= REL_TOL, f"{key}: h"
    assert _rel(q, ref[key + "/q"]) <= REL_TOL, f"{key}: q"
    assert info[:2].tolist() == want[:2].tolist(), f"{key}: clip counts"
    assert _rel(info[2], want[2]) <= REL_TOL, f"{key}: min_h_pre_clip"
    assert _rel(info[3:7], want[3:7]) <= REL_TOL, f"{key}: boundary fluxes"
    assert info[7:].tolist() == want[7:].tolist(), f"{key}: ghosts"


def _pairs(name, ref):
    """Interior interfaces of a case as (W_l, W_r)."""
    h, q, H = (ref[f"{name}/{k}"] for k in ("h0", "q0", "H0"))
    return (ExtState(PhysState(h[:-1], q[:-1]), H[:-1]),
            ExtState(PhysState(h[1:], q[1:]), H[1:]))


def test_one_step_cases_reach_their_branches(step_reference):
    """Each case exercises the branch it is named for."""
    from swelab.fluxes import roe_average

    ref = step_reference
    W_l, W_r = _pairs("dry-pairs", ref)
    assert np.any((W_l.h <= C.h_dry) & (W_r.h <= C.h_dry))
    for name, fires in (("gate-right", GATE_POLICIES), ("gate-left", GATE_POLICIES),
                        ("gate-split", ("dimensional",))):
        W_l, W_r = _pairs(name, ref)
        for policy in GATE_POLICIES:
            corr = modified_hr_corrections(W_l, W_r, policy, C)
            assert bool(np.any(corr.gate_applied)) == (policy in fires), (name, policy)
    W_l, W_r = _pairs("sonic", ref)
    roe = roe_average(W_l.state, W_r.state, C)
    assert np.any(np.abs(roe.u - roe.c) < lambda_floor(roe.u, roe.c))
    for name in ("clip-step", "clip-runup"):
        assert ref[f"{name}/force-wb/info"][0] > 0, name
    kinds = {bc.kind for bc_l, bc_r, _ in STEP_CASES.values() for bc in (bc_l, bc_r)}
    assert kinds == {"open", "discharge", "depth", "both", "periodic"}


def regenerate_one_step():
    arrays = {}
    for i, (name, (_, _, build)) in enumerate(sorted(STEP_CASES.items())):
        h, q, H = (np.asarray(a, dtype=float) for a in build(np.random.default_rng(1000 + i)))
        arrays.update({f"{name}/h0": h, f"{name}/q0": q, f"{name}/H0": H})
        for scheme, gate in STEP_VARIANTS:
            dt, h1, q1, info = one_step(name, h, q, H, scheme, gate)
            key = f"{name}/{_variant(scheme, gate)}"
            arrays.update({key + "/dt": np.array(dt), key + "/h": h1, key + "/q": q1,
                           key + "/info": info})
    np.savez_compressed(ONE_STEP, **arrays)


def regenerate():
    DATA.mkdir(parents=True, exist_ok=True)
    arrays = {}
    for test_id, scheme in CASES:
        h, q = final_state(test_id, scheme)
        arrays[_key(test_id, scheme, "h")] = h
        arrays[_key(test_id, scheme, "q")] = q
    np.savez_compressed(STATES, **arrays)
    regenerate_one_step()
    for command, argv in CLI_RUNS.items():
        if cli.main(argv + ["--out", str(DATA / command)]) != 0:
            raise SystemExit(f"swelab {command} failed")
    print(f"wrote {STATES} and the CLI outputs under {DATA}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] == ["one-step"]:
        regenerate_one_step()
    else:
        regenerate()
