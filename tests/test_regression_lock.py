"""Regression lock: today's numerics and CLI output, pinned.

Every preset x implemented scheme runs to a short fixed final time and
its final h, q must match the committed reference to 1e-12 relative
(max-norm of the difference over the max-norm of the reference). One
``swelab run`` and one ``swelab sweep`` must reproduce their committed
output files byte for byte.

The reference lives in ``tests/data/regression_lock/``. Regenerate it
only for a change that is meant to move results, and say so:

    PYTHONPATH=src python tests/test_regression_lock.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

import swelab.cli as cli
from swelab.presets import DEFAULT_CELLS, build_preset
from swelab.solver import SCHEMES, SchemeConfig, StopRule, run

DATA = Path(__file__).resolve().parent / "data" / "regression_lock"
STATES = DATA / "final_states.npz"
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
    final = run(spec, SchemeConfig.from_id(scheme)).final
    return final.h, final.q


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


def regenerate():
    DATA.mkdir(parents=True, exist_ok=True)
    arrays = {}
    for test_id, scheme in CASES:
        h, q = final_state(test_id, scheme)
        arrays[_key(test_id, scheme, "h")] = h
        arrays[_key(test_id, scheme, "q")] = q
    np.savez_compressed(STATES, **arrays)
    for command, argv in CLI_RUNS.items():
        if cli.main(argv + ["--out", str(DATA / command)]) != 0:
            raise SystemExit(f"swelab {command} failed")
    print(f"wrote {STATES} and the CLI outputs under {DATA}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
