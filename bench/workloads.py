"""The three workloads: inputs drawn from the seed, one timed round, checks.

Each workload is a closed loop from one process: a round issues its
simulations one call after another (the program's pools get one
worker) and the next round starts when the last one returned. ``prepare`` is everything before the first timed step;
``round`` is the timed part; ``collect`` (untimed) condenses a round's
outputs into counts and the data ``check`` needs, so the checks, and
the scipy they import, run after the peak memory is read.

The program's ``run`` is wrapped where ``cli`` and ``diagnostics``
import it, only to keep each report: one extra call per simulation,
which is how the untimed checks see final states and step counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

# Worker count passed wherever the program takes one (at most nproc).
# The program's pools are threads; with 2 of them on a 2-core host a
# test-6 ladder took 10.9-15.3 s against 8.4-10.8 s serial, and the
# spread alone would exceed the benchmark's bounds.
WORKERS = 1


class Workload:
    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.reports = []

    def _keep(self, fn):
        def run(*args, **kwargs):
            rep = fn(*args, **kwargs)
            self.reports.append(rep)
            return rep

        return run

    def prepare(self):
        """Imports, inputs, presets, and the program's lazy one-time work."""
        import swelab.cli
        import swelab.diagnostics
        from swelab.sources import resolved_split_form

        self.draw()
        self.build()
        resolved_split_form()
        for mod in (swelab.cli, swelab.diagnostics):
            mod.run = self._keep(mod.run)

    def draw(self):
        """The workload's inputs, from the seed alone."""

    def build(self):
        """Construct the presets the round will run."""

    def bytes_written(self) -> int:
        return sum(f.stat().st_size for f in self.workdir.rglob("*") if f.is_file())

    def round(self):
        raise NotImplementedError

    def collect(self, raw) -> dict:
        """{failed, cell_steps, bytes, data} of one round."""
        raise NotImplementedError

    def check(self, data) -> list:
        raise NotImplementedError


class StepPlateau(Workload):
    """``swelab sweep --test 3 --scheme hr --scheme modified-hr`` to steady.

    Two step heights beyond the large-step onset (hr's plateau depth is
    0.067, so the onset lies near H_r = 0.17): H_1 drawn from
    [0.20, 0.30] and its mirror H_2 = 0.70 - H_1 in [0.40, 0.50], which
    keeps the round's total steps nearly independent of the seed.
    50 cells: steady comes at t = 88-95 against the preset's backstop
    of 100, while the default 200 cells cost ~20 s per member.
    """

    name = "step-plateau"
    cells = 50
    schemes = ("hr", "modified-hr")
    ops_per_round = 4

    def draw(self):
        h1 = round(self.rng.uniform(0.20, 0.30), 3)
        self.heights = [h1, round(0.70 - h1, 3)]

    def build(self):
        from swelab.presets import build_preset

        for H_r in self.heights:
            build_preset(3, n_cells=self.cells, H_r=H_r)
        self.argv = ["sweep", "--test", "3", "--scheme", "hr", "--scheme", "modified-hr",
                     "--sweep", "H_r=" + ",".join(f"{h:.3f}" for h in self.heights),
                     "--cells", str(self.cells), "--jobs", str(WORKERS),
                     "--out", str(self.workdir)]

    def round(self):
        import swelab.cli

        self.reports = []
        with contextlib.redirect_stdout(io.StringIO()):
            rc = swelab.cli.main(self.argv)
        return rc, self.reports

    def collect(self, raw) -> dict:
        rc, reports = raw
        csv = (self.workdir / "sweep.csv").read_text() if rc == 0 else ""
        rows = [ln.split(",", 6) for ln in csv.strip().splitlines()[1:]]
        ok = [r for r in rows if not r[6]]
        members = {}
        for r in reports:
            h = r.snapshots[-1][1]
            members[(r.metadata["scheme"], round(float(r.H[-1]), 3))] = dict(
                steady=bool(r.steady_reached), h_l=float(r.probes["h_l"]["h"]),
                h_r=float(r.probes["h_r"]["h"]), h_step=float(h[len(h) // 2]))
        return dict(failed=self.ops_per_round - len(ok),
                    cell_steps=sum(r.n_steps * len(r.x) for r in reports),
                    bytes=self.bytes_written(), data=dict(members=members, rows=ok))

    def check(self, data) -> list:
        import checks

        members = data["members"]
        bad = checks.check_step_plateau(members, self.heights)
        # the sweep's CSV must carry the probes its runs reported
        for H, scheme, h_l, h_r, _res, met, _err in data["rows"]:
            m = members.get((scheme, round(float(H), 3)))
            if m is None or (float(h_l), float(h_r), met == "1") != (m["h_l"], m["h_r"], m["steady"]):
                bad.append(f"sweep.csv row {scheme} H_r={H} disagrees with its run")
        return bad


class RampLadder(Workload):
    """``diagnostics.convergence_study`` on test 6 for roe and gforce-wb.

    Meshes 100, 200, 400, 800; the 1,600 and 3,200 rungs would add
    ~13 s and ~40 s to every round. The seed draws the ramp: height dH
    from [0.25, 0.35] and length dl from [0.15, 0.25]. The flow stays
    supercritical, so the exact profile is smooth.
    """

    name = "ramp-ladder"
    meshes = (100, 200, 400, 800)
    schemes = ("roe", "gforce-wb")
    bound = 0.008
    ops_per_round = len(meshes) * len(schemes)

    def draw(self):
        self.dH = round(self.rng.uniform(0.25, 0.35), 3)
        self.dl = round(self.rng.uniform(0.15, 0.25), 3)

    def build(self):
        from swelab.presets import build_preset
        from swelab.solver import SchemeConfig

        build_preset(6, n_cells=self.meshes[0], dH=self.dH, dl=self.dl)
        self.cfgs = {s: SchemeConfig.from_id(s) for s in self.schemes}

    def round(self):
        import swelab.diagnostics
        import swelab.presets as presets
        from swelab.core import SWEError

        p = dict(dH=self.dH, dl=self.dl)
        out = {}
        for scheme in self.schemes:
            self.reports = []
            try:
                rows, cells = swelab.diagnostics.convergence_study(
                    lambda n: presets.build_preset(6, n_cells=n, **p),
                    self.cfgs[scheme],
                    lambda x: presets.exact_profile(6, x, **p),
                    bound=self.bound, meshes=self.meshes, max_workers=WORKERS)
            except SWEError:
                continue
            out[scheme] = (rows, cells, self.reports)
        return out

    def collect(self, raw) -> dict:
        ladders = {}
        for scheme, (rows, cells, reports) in raw.items():
            ladders[scheme] = dict(
                rows=[(r.n_cells, r.l1_error) for r in rows], cells_needed=cells,
                finals={len(r.x): (r.x, r.snapshots[-1][1]) for r in reports})
        done = sum(len(lad["rows"]) for lad in ladders.values())
        return dict(failed=self.ops_per_round - done,
                    cell_steps=sum(r.n_steps * len(r.x)
                                   for _, _, reports in raw.values() for r in reports),
                    bytes=0, data=ladders)

    def check(self, data) -> list:
        import checks

        if set(data) != set(self.schemes):
            return []  # a failed ladder is counted in `failed`
        return checks.check_ramp_ladder(data, self.dH, self.dl, self.bound)


class WetDryRuns(Workload):
    """``swelab run --test 5`` to t = 2.5 for every implemented scheme.

    The seed draws the ramp start x_l from [3.55, 3.90]; the initial
    waterline sits at x_l + (4 - x_l) / 8, dry beyond it. Each run
    writes its snapshot CSV and summary JSON.
    """

    name = "wet-dry-runs"
    schemes = ("roe", "hr", "modified-hr", "force-hr", "gforce-hr", "force-wb", "gforce-wb")
    ops_per_round = len(schemes)

    def draw(self):
        self.x_l = round(self.rng.uniform(3.55, 3.90), 3)

    def build(self):
        from swelab.presets import build_preset

        build_preset(5, x_l=self.x_l)
        self.argvs = {s: ["run", "--test", "5", "--scheme", s, "--param", f"x_l={self.x_l}",
                          "--out", str(self.workdir / s)] for s in self.schemes}

    def round(self):
        import swelab.cli

        self.reports = []
        rcs = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for s in self.schemes:
                rcs[s] = swelab.cli.main(self.argvs[s])
        return rcs, self.reports

    def collect(self, raw) -> dict:
        rcs, reports = raw
        done = [s for s in self.schemes if rcs[s] == 0]
        by_scheme = {r.metadata["scheme"]: r for r in reports}
        runs = {}
        for s in done:
            d, r = self.workdir / s, by_scheme[s]
            _t, h, q = r.snapshots[-1]
            runs[s] = dict(summary=json.loads((d / "summary.json").read_text()),
                           csv=(d / "snapshot_final.csv").read_text(),
                           final=dict(x=r.x, H=r.H, h=h, q=q))
        return dict(failed=self.ops_per_round - len(done),
                    cell_steps=sum(r.n_steps * len(r.x) for r in reports),
                    bytes=self.bytes_written(), data=runs)

    def check(self, data) -> list:
        import checks

        return checks.check_wet_dry(data)


WORKLOADS = {w.name: w for w in (StepPlateau, RampLadder, WetDryRuns)}
