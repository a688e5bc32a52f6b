"""Command-line front end: run | sweep | convergence | list-schemes.

Outputs are CSV (17 significant digits, lossless round-trip) and JSON
with a fixed key order, so identical flags give byte-identical files.
Sweeps and convergence ladders run one member after another, in order.

``--config FILE`` reads ``key = value`` lines as ``--key=value`` flags
placed before the command line's own: the command line wins, repeatable
flags collect the file's values first, and each value is checked as a flag.

Exit codes: 0 ok, 1 runtime failure (a missing config file included),
2 usage error (an unknown config key included).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from swelab.core import PhysConstants, SWEError, cell_velocity
from swelab.diagnostics import convergence_study
from swelab.kernel import GATE_POLICIES
from swelab.presets import (DEFAULT_CELLS, PARAM_DEFAULTS, STEADY_TOL, build_preset,
                            check_params, exact_profile)
from swelab.solver import SCHEMES, Grid, RunReport, SchemeConfig, StopRule, run

_LADDER = (100, 200, 400, 800, 1600, 3200)
_FULL_LADDER = _LADDER + (6400, 12800)


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _parse_params(items, test_id):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--param expects k=v, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = float(v)
    check_params(test_id, out)
    return out


def _parse_until(text):
    """--until steady | time=T -> 'steady' or the StopRule ending at T (an argparse type)."""
    if text == "steady":
        return text
    if not text.startswith("time="):
        raise argparse.ArgumentTypeError(f"--until expects 'steady' or 'time=T', got {text!r}")
    try:
        return StopRule(final_time=float(text[5:]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_cells(text):
    """--cells N -> N, rejected below the 2 cells a ``Grid`` needs (an argparse type)."""
    try:
        n = int(text)
        Grid(0.0, 1.0, n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return n


def _config_flags(path):
    """`key = value` lines as `--key=value` flags; '#' comments and blanks ignored."""
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {line!r}")
        k, v = line.split("=", 1)
        out.append(f"--{k.strip()}={v.strip()}")
    return out


def _scheme_config(args, scheme_id) -> SchemeConfig:
    return SchemeConfig.from_id(scheme_id, cfl=args.cfl, gate=args.gate)


def _spec_for(args, params):
    spec = build_preset(args.test, n_cells=args.cells, **params)
    if args.until == "steady":
        spec.stop = StopRule(steady_tol=STEADY_TOL, max_time=spec.stop.time_bound())
    elif args.until is not None:
        spec.stop = args.until
    return spec


def _write_snapshot(path: Path, report: RunReport, c: PhysConstants):
    final = report.final
    u = cell_velocity(final.h, final.q, c.h_dry)
    fr2 = u * u / (c.g * np.maximum(final.h, c.h_dry))
    eta = final.h - final.H
    with path.open("w") as f:
        f.write("x,H,h,q,eta,u,fr2\n")
        for row in zip(report.x, final.H, final.h, final.q, eta, u, fr2):
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _summary_dict(report: RunReport, args, params) -> dict:
    # fixed key order: configuration first, outcomes second
    return {
        "test": args.test,
        "scheme": args.scheme,
        "params": {k: float(v) for k, v in sorted(params.items())},
        "metadata": report.summary(),
    }


def cmd_run(args) -> int:
    params = _parse_params(args.param, args.test)
    cfg = _scheme_config(args, args.scheme)
    c = PhysConstants()
    spec = _spec_for(args, params)
    report = run(spec, cfg, c)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_snapshot(out / "snapshot_final.csv", report, c)
    (out / "summary.json").write_text(
        json.dumps(_summary_dict(report, args, params), indent=2, sort_keys=False) + "\n"
    )
    probes = " ".join(f"{k}={v['h']:.6g}" for k, v in report.probes.items())
    print(
        f"test {args.test} scheme {args.scheme} cells {spec.grid.n_cells}: "
        f"t={report.final_time:.6g} steps={report.n_steps} "
        f"steady={report.steady_reached} stop={report.stop_reason} "
        f"clips={report.clip_events}"
        + (f" {probes}" if probes else "")
    )
    return 0


def cmd_sweep(args) -> int:
    name, _, values = args.sweep.partition("=")
    vals = [float(v) for v in values.split(",") if v.strip()]
    if not vals:
        raise ValueError("empty sweep value list")
    # every scheme is checked before the first run; a repeated one runs twice
    cfgs = [_scheme_config(args, s) for s in args.scheme]
    fixed = _parse_params(args.param, args.test)
    check_params(args.test, [name])
    rows = []
    for v in vals:
        for cfg in cfgs:
            try:
                spec = _spec_for(args, {**fixed, name: v})
                report = run(spec, cfg)
                h_l = report.probes.get("h_l", {}).get("h", float("nan"))
                h_r = report.probes.get("h_r", {}).get("h", float("nan"))
                res = float("nan") if report.final_residual is None else report.final_residual
                rows.append((v, cfg.scheme, h_l, h_r, res, report.steady_reached, ""))
            except (ValueError, SWEError) as exc:  # bad input: recorded per row, sweep continues
                rows.append((v, cfg.scheme, float("nan"), float("nan"), float("nan"), False,
                             f"{type(exc).__name__}: {exc}"))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    with path.open("w") as f:
        f.write(f"{name},scheme,h_l,h_r,steady_residual,met_steady,error\n")
        for v, s, hl, hr, res, met, err in rows:
            f.write(f"{_fmt(v)},{s},{_fmt(hl)},{_fmt(hr)},{_fmt(res)},{int(met)},{err}\n")
    failures = sum(1 for r in rows if r[-1])
    print(f"sweep {name} over {len(vals)} values x {len(cfgs)} schemes -> {path}"
          + (f" ({failures} failed rows)" if failures else ""))
    return 0


def cmd_convergence(args) -> int:
    if args.test != 6:
        raise ValueError("convergence studies are defined for test 6")
    params = _parse_params(args.param, 6)
    # every scheme is checked before the first run; a repeated one runs twice
    cfgs = [_scheme_config(args, s) for s in args.scheme]
    p = {**PARAM_DEFAULTS[6], **params}
    meshes = _FULL_LADDER if args.full_ladder else _LADDER
    # every ladder runs before the first file is written
    needed, lines = {}, ["scheme,dH,dl,n_cells,l1_error,met_bound\n"]
    for cfg in cfgs:
        rows, needed[cfg.scheme] = convergence_study(
            lambda n: build_preset(6, n_cells=n, **params),
            cfg,
            lambda x: exact_profile(6, x, **params),
            bound=args.bound,
            meshes=meshes,
        )
        lines += (f"{cfg.scheme},{_fmt(p['dH'])},{_fmt(p['dl'])},"
                  f"{r.n_cells},{_fmt(r.l1_error)},{int(r.met_bound)}\n" for r in rows)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "convergence.csv").write_text("".join(lines))
    (out / "cells_needed.json").write_text(
        json.dumps({"bound": args.bound,
                    "cells_needed": {k: needed[k] for k in args.scheme}},
                   indent=2) + "\n"
    )
    print("cells_needed: " + " ".join(
        f"{k}={v if v is not None else 'not reached'}" for k, v in needed.items()))
    return 0


def cmd_list_schemes(args) -> int:
    for name, entry in SCHEMES.items():
        status = "" if entry["implemented"] else "  [not implemented]"
        print(f"{name:12s} {entry['label']}{status}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="swelab",
                                description="1D shallow-water well-balanced scheme laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, scheme_multi=False, runs=True):
        sp.add_argument("--test", type=int, required=True, choices=sorted(DEFAULT_CELLS))
        if scheme_multi:
            sp.add_argument("--scheme", action="append", required=True,
                            help="scheme id (repeatable)")
        else:
            sp.add_argument("--scheme", required=True, help="scheme id")
        if runs:  # a convergence ladder picks its own meshes and stop rules
            sp.add_argument("--cells", type=_parse_cells, default=None)
            sp.add_argument("--until", type=_parse_until, default=None, help="steady | time=T")
        sp.add_argument("--cfl", type=float, default=0.9)
        sp.add_argument("--gate", choices=GATE_POLICIES, default="dimensional")
        sp.add_argument("--param", action="append", metavar="K=V", default=[])
        sp.add_argument("--out", default=".")
        sp.add_argument("--config", default=None, help="key = value file; flags override")

    sp = sub.add_parser("run", help="one simulation, snapshot + summary")
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep", help="one run per parameter value per scheme")
    common(sp, scheme_multi=True)
    sp.add_argument("--sweep", required=True, metavar="K=V1,V2,...")
    sp.add_argument("--jobs", type=int, choices=[1], default=1,
                    help="runs are serial (threads measured slower); accepts only 1, "
                         "kept for scripts that pass it")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("convergence", help="mesh-ladder L1 study (test 6)")
    common(sp, scheme_multi=True, runs=False)
    sp.add_argument("--bound", type=float, default=0.008)
    sp.add_argument("--full-ladder", action="store_true")
    sp.set_defaults(func=cmd_convergence)

    sp = sub.add_parser("list-schemes", help="available scheme ids")
    sp.set_defaults(func=cmd_list_schemes)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except NotImplementedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SWEError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
