"""Per-step timing of ``run()`` on two source trees, alternated in fresh processes.

    python3 tools/step_timing.py --parent PATH [--change PATH] [--pairs 5]
                                 [--repeats 5] [--out BENCH_step.json]

For each scheme and grid below, a fresh worker process runs
``solver.run`` for a fixed number of steps (``StopRule(final_time=1e6,
max_steps=N)``) and keeps the fastest of ``--repeats`` runs after one
untimed warm-up: the time of run()'s loop (``cfl_dt``, ``step`` and the
residual) divided by N, plus the set-up of one run, which is small next
to N steps. One process per case keeps a case's timing free of the heap
left behind by the cases before it. Each pair runs every case once per
tree, with ``PYTHONPATH`` set to that tree's ``src``, and alternates
which tree goes first. The JSON records the machine, both commits, the
median over pairs of each tree's microseconds per step and nanoseconds
per cell-step, the ratio parent/change and the number of pairs the
change won.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (scheme, preset): the upwind schemes on the ramp of test 6, the
# hydrostatic ones on the step of test 3
CASES = [("roe", 6), ("gforce-wb", 6), ("force-wb", 6), ("hr", 3), ("modified-hr", 3)]
# grids per preset; test 3 adds the benchmark's step-plateau grid of 50
# cells, whose reconstruction has an empty column from the first step
CELLS = {6: (200, 3200, 12800), 3: (50, 200, 3200, 12800)}


def n_steps(cells: int) -> int:
    return max(30, 160_000 // cells)


def worker(case: str, repeats: int) -> float:
    """Microseconds per step of ``run()`` on one case, ``scheme/cells``."""
    from time import perf_counter

    from swelab.presets import build_preset
    from swelab.solver import SchemeConfig, StopRule, run

    scheme, cells = case.split("/")
    cells = int(cells)
    cfg = SchemeConfig.from_id(scheme)
    spec = build_preset(dict(CASES)[scheme], n_cells=cells)
    spec.stop = StopRule(final_time=1e6, max_steps=n_steps(cells))
    run(spec, cfg)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        report = run(spec, cfg)
        best = min(best, perf_counter() - t0)
    assert report.n_steps == n_steps(cells), (case, report.stop_reason)
    return best / report.n_steps * 1e6


def _commit(tree: Path) -> str:
    try:
        rev = subprocess.run(["git", "-C", str(tree), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(tree), "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("+uncommitted src" if dirty else "")


def _trial(tree: Path, case: str, repeats: int) -> float:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker", case,
                           "--repeats", str(repeats)],
                          env=env, capture_output=True, text=True, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return dict(cpu=cpu, nproc=os.cpu_count(), python=platform.python_version(),
                numpy=numpy.__version__)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path, default=ROOT)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_step.json")
    ap.add_argument("--worker", metavar="CASE", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(worker(args.worker, args.repeats))
        return 0
    if args.parent is None:
        ap.error("--parent is required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    cases = [f"{scheme}/{cells}" for scheme, test in CASES for cells in CELLS[test]]
    runs = {"parent": {c: [] for c in cases}, "change": {c: [] for c in cases}}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for case in cases:
            for side in order:
                runs[side][case].append(_trial(trees[side], case, args.repeats))
        print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr)
    rows = {}
    for key in cases:
        scheme, cells = key.split("/")
        p, c = runs["parent"][key], runs["change"][key]
        pm, cm = statistics.median(p), statistics.median(c)
        rows[key] = dict(
            scheme=scheme, cells=int(cells), steps=n_steps(int(cells)),
            parent_us_per_step=round(pm, 2), change_us_per_step=round(cm, 2),
            parent_ns_per_cell_step=round(pm * 1e3 / int(cells), 2),
            change_ns_per_cell_step=round(cm * 1e3 / int(cells), 2),
            speedup=round(pm / cm, 3),
            pairs_won=sum(ci < pi for pi, ci in zip(p, c)), pairs=len(p),
        )
    result = dict(
        description=__doc__.split("\n\n")[0],
        command=" ".join(["python3", "tools/step_timing.py"] + (argv or sys.argv[1:])),
        machine=_machine(),
        parent_commit=_commit(trees["parent"]),
        change_commit=_commit(trees["change"]),
        pairs=args.pairs, repeats=args.repeats,
        cases={k: v for k, v in sorted(rows.items(),
                                       key=lambda kv: (kv[1]["scheme"], kv[1]["cells"]))},
    )
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for key, row in result["cases"].items():
        print(f"{key:20s} {row['parent_us_per_step']:10.1f} -> {row['change_us_per_step']:10.1f} us"
              f"  x{row['speedup']:.3f}  won {row['pairs_won']}/{row['pairs']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
