"""swelab benchmark: one workload per process, metrics as one JSON line.

    python3 bench/run.py --workload step-plateau --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` times whole rounds of the workload and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and prints the per-layer metrics. ``--workload all`` runs every
workload, each in a fresh process. The last stdout line is the JSON
result; the exit code is 1 when a correctness check fails and 2 when
the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import COUNTED, TIMED, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_PROBES = 9
PROBE_TIMEOUT = 60


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _timed_round(wl, times, collected):
    t0 = perf_counter()
    raw = wl.round()
    times.append(perf_counter() - t0)
    collected.append(wl.collect(raw))


def _rounds(wl, seconds: float, tracer=None):
    """Run whole rounds of ``wl`` until the next would overrun ``seconds``.

    At least one round runs, and each is collected, untimed, before the
    next overwrites its files. With a ``tracer``, every untraced round
    is followed by a traced one, so both see the same warm-up and the
    same drift of a shared host. Returns (times, collected) for the
    untraced and for the traced rounds.
    """
    plain, traced = ([], []), ([], [])
    start = perf_counter()
    while True:
        _timed_round(wl, *plain)
        cost = statistics.median(plain[0])
        if tracer is not None:
            tracer.install()
            try:
                _timed_round(wl, *traced)
            finally:
                tracer.uninstall()
            cost += statistics.median(traced[0])
        if perf_counter() - start + cost > seconds:
            return plain, traced


def _peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _setup_seconds(args) -> list:
    """Time fresh interpreters from launch to the end of ``prepare``."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
            try:
                line = p.stdout.readline()
                times.append(perf_counter() - t0)
                p.communicate(timeout=PROBE_TIMEOUT)
            except subprocess.TimeoutExpired:
                p.kill()
                p.communicate()
                raise
        if p.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {p.returncode}")
    return times


def _fmt(values) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _per_layer(tr: Tracer, rounds: int, overhead: float, clip_events: int, clip_mass: float,
               bytes_per_round: float) -> dict:
    st = {name: tr.stats(name) for name in (*TIMED, *COUNTED)}
    steps = st["solver.step"][0]

    def per_call(name, col, scale):
        calls = st[name][0]
        return st[name][col] / calls * scale if calls else 0.0

    def per_step(name, col=0, scale=1.0):
        return st[name][col] / steps * scale if steps else 0.0

    def cpu_per_wall(name):
        return st[name][3] / st[name][1] if st[name][1] else 0.0

    flux_s = st["fluxes.roe_flux"][1] + st["fluxes.omega_flux"][1]
    ifaces = st["fluxes.roe_flux"][3] + st["fluxes.omega_flux"][3]
    us, ms = 1e6, 1e3
    m = {
        "solver.step.self_us": _metric(per_call("solver.step", 2, us), "us"),
        "solver.interface_terms.self_us": _metric(per_call("solver.interface_terms", 2, us), "us"),
        "solver.apply_boundaries.us": _metric(per_call("solver.apply_boundaries", 1, us), "us"),
        "solver.cfl_dt.us": _metric(per_call("solver.cfl_dt", 1, us), "us"),
        "solver.run.self_us_per_step": _metric(per_step("solver.run", 2, us), "us"),
        "solver.step.calls": _metric(steps / rounds, "count"),
        "fluxes.roe_flux.us": _metric(per_call("fluxes.roe_flux", 1, us), "us"),
        "fluxes.omega_flux.us": _metric(per_call("fluxes.omega_flux", 1, us), "us"),
        "fluxes.roe_average.calls_per_step": _metric(per_step("fluxes.roe_average"), "count/step"),
        "fluxes.ns_per_iface": _metric(flux_s / ifaces * 1e9 if ifaces else 0.0, "ns"),
        "sources.roe_source_split.us": _metric(per_call("sources.roe_source_split", 1, us), "us"),
        "sources.omega_source_split.us":
            _metric(per_call("sources.omega_source_split", 1, us), "us"),
        "hydrostatic.hr_interface_terms.self_us":
            _metric(per_call("hydrostatic.hr_interface_terms", 2, us), "us"),
        "hydrostatic.hr_reconstruct.us":
            _metric(per_call("hydrostatic.hr_reconstruct", 1, us), "us"),
        "hydrostatic.modified_hr_corrections.us":
            _metric(per_call("hydrostatic.modified_hr_corrections", 1, us), "us"),
        "core.velocity.calls_per_step": _metric(per_step("core.velocity"), "count/step"),
        "core.physical_flux.calls_per_step":
            _metric(per_step("core.physical_flux"), "count/step"),
        "diagnostics.convergence_study.cpu_per_wall":
            _metric(cpu_per_wall("diagnostics.convergence_study"), "ratio"),
        "diagnostics.l1_error.us": _metric(per_call("diagnostics.l1_error", 1, us), "us"),
        "presets.build_preset.ms": _metric(per_call("presets.build_preset", 1, ms), "ms"),
        "presets.exact_profile.ms": _metric(per_call("presets.exact_profile", 1, ms), "ms"),
        "cli.main.self_ms": _metric(per_call("cli.main", 2, ms), "ms"),
        "cli.sweep.cpu_per_wall": _metric(cpu_per_wall("cli.sweep"), "ratio"),
        "cli.bytes_written": _metric(bytes_per_round, "B"),
        "solver.clip_events": _metric(clip_events / rounds, "count"),
        "solver.clip_mass": _metric(clip_mass / rounds, "m2"),
        "trace.overhead_ratio": _metric(overhead, "ratio"),
    }
    return m


def run_one(args) -> int:
    workdir = WORK / (args.workload + ("-probe" if args.setup_probe else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.prepare()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    failures = []
    tr = None
    if args.trace:
        import checks

        budget = ([], [], [], [])  # defect, tol, upper, clip events per step

        def on_step(before, after, info, grid, dt):
            terms = checks.budget_terms(
                before.h, after.h, grid.dx, dt, info.left_flux[0], info.right_flux[0],
                info.clip_events, info.minor_clip_events, info.min_h_pre_clip)
            for col, v in zip(budget, terms + (info.clip_events,)):
                col.append(v)

        tr = Tracer(step_hook=on_step)
    (times, collected), (t_times, t_collected) = _rounds(wl, args.seconds, tr)
    rss = _peak_rss_mb()
    if tr is not None:
        bad, clip_mass = checks.check_mass_budget(*budget)
        failures += bad

    for c in collected + t_collected:
        failures += wl.check(c["data"])
    attempted = wl.ops_per_round * (len(collected) + len(t_collected))
    failed = sum(c["failed"] for c in collected + t_collected)
    if tr is None:
        per_round = [c["cell_steps"] / t for c, t in zip(collected, times)]
        setup = _setup_seconds(args)
        metrics = {
            "wall_s": _metric(statistics.median(times), "s"),
            "cell_steps_per_s": _metric(statistics.median(per_round), "1/s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(rss, "MB"),
        }
        detail = (f"{wl.ops_per_round} simulations and {collected[0]['cell_steps']} "
                  f"cell-steps per round; rounds (s) {_fmt(times)}; setup probes (s) "
                  f"{_fmt(setup)}")
    else:
        metrics = _per_layer(
            tr, len(t_times), statistics.median(t_times) / statistics.median(times),
            sum(budget[3]), clip_mass, statistics.mean(c["bytes"] for c in t_collected))
        detail = f"untraced rounds (s) {_fmt(times)}; traced rounds (s) {_fmt(t_times)}"
    print(f"{args.workload} seed {args.seed}: {detail}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for msg in failures[:20]:
        print(f"  CHECK FAILED: {msg}")
    ok = not failures
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def run_all(args) -> int:
    """Every workload in a fresh process; metrics keyed workload/metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if p.returncode == 2 or not lines:
            return _fail(f"workload {name} could not run")
        res = json.loads(lines[-1])
        worst = max(worst, p.returncode)
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "swelab" / "__init__.py").is_file():
        return _fail(f"no swelab sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
