"""What the benchmark in ``bench/`` needs from the program.

``bench/tracer.py`` times the program by rebinding module attributes,
and its traced runs check a mass budget on every step from the
``StepInfo`` that ``solver.step`` returns; ``bench/workloads.py``
passes its worker count to ``swelab sweep --jobs`` and
``convergence_study(max_workers=...)``, and checks each run from the
fields of its ``RunReport``. These tests keep that working while the
program changes underneath.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import swelab.cli as cli
import swelab.solver as solver
from swelab.diagnostics import convergence_study
from swelab.presets import build_preset, exact_profile
from swelab.solver import SchemeConfig, SimState, StepInfo, StopRule

BENCH = Path(__file__).resolve().parent.parent / "bench"
STEP_FIELDS = ("left_flux", "right_flux", "clip_events", "minor_clip_events", "min_h_pre_clip")


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _short_runs():
    """A hydrostatic run to a fixed time and a clipping wet/dry run."""
    spec3 = build_preset(3, n_cells=40)
    spec3.stop = StopRule(final_time=0.05)
    spec5 = build_preset(5, n_cells=80)
    spec5.stop = StopRule(final_time=0.1)
    return [(spec3, SchemeConfig.from_id("modified-hr")),
            (spec5, SchemeConfig.from_id("force-wb"))]


def test_every_traced_binding_resolves():
    tracer = _bench_module("tracer")
    targets = [t for table in (tracer.TIMED, tracer.COUNTED) for ts in table.values() for t in ts]
    for target in targets:
        mod_name, attr = target.split(":")
        assert callable(getattr(importlib.import_module(mod_name), attr)), target


@pytest.mark.parametrize("case", range(2))
def test_run_calls_the_module_step_once_per_step(monkeypatch, case):
    spec, cfg = _short_runs()[case]
    calls = []
    real_step = solver.step

    def counting_step(*args, **kwargs):
        assert len(args) == 7 and not kwargs  # (state, cfg, grid, bc_l, bc_r, dt, c)
        out = real_step(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(solver, "step", counting_step)
    report = solver.run(spec, cfg)
    assert report.n_steps > 0 and len(calls) == report.n_steps
    for after, info in calls:
        assert isinstance(after, SimState) and isinstance(info, StepInfo)
        for name in STEP_FIELDS:
            assert hasattr(info, name), name
        assert len(info.left_flux) == 2 and len(info.right_flux) == 2


def test_run_report_has_the_fields_the_workloads_read():
    for spec, cfg in _short_runs():
        report = solver.run(spec, cfg)
        final = report.final
        t, h, q = report.snapshots[-1]
        assert t == final.t == report.final_time
        assert np.array_equal(h, final.h) and np.array_equal(q, final.q)
        assert np.array_equal(report.x, spec.grid.centers())
        assert np.array_equal(report.H, final.H) and report.H.shape == report.x.shape
        assert set(report.probes) == {name for name, _ in spec.probes} == {"h_l", "h_r"}
        for probe in report.probes.values():
            i = int(np.argmin(np.abs(report.x - probe["x"])))
            assert probe["h"] == h[i]
        assert isinstance(report.n_steps, int) and report.n_steps > 0
        assert isinstance(report.steady_reached, bool)
        assert report.metadata["scheme"] == cfg.scheme


def test_tracer_sees_every_step():
    tracer = _bench_module("tracer")
    real_step = solver.step
    seen = []
    tr = tracer.Tracer(step_hook=lambda before, after, info, grid, dt: seen.append(
        tuple(getattr(info, name) for name in STEP_FIELDS)))
    tr.install()
    try:
        reports = [solver.run(spec, cfg) for spec, cfg in _short_runs()]
    finally:
        tr.uninstall()
    steps = sum(r.n_steps for r in reports)
    assert tr.stats("solver.step")[0] == steps == len(seen)
    assert sum(clips for _, _, clips, _, _ in seen) == sum(r.clip_events for r in reports) > 0
    assert solver.step is real_step


def test_workloads_worker_count_is_accepted(tmp_path):
    workloads = _bench_module("workloads")
    plateau = workloads.StepPlateau(0, tmp_path)
    plateau.draw()
    plateau.build()
    args = cli._build_parser().parse_args(plateau.argv)
    assert args.jobs == workloads.WORKERS
    rows, _ = convergence_study(lambda n: build_preset(6, n_cells=n),
                                SchemeConfig.from_id("roe"), lambda x: exact_profile(6, x),
                                bound=0.05, meshes=(20, 25), max_workers=workloads.WORKERS)
    assert len(rows) == 2
