"""Every correctness check of the benchmark rejects a perturbed output.

Each check first accepts a valid output built from the independent
references, then rejects that output with one thing changed.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402


# -- references ---------------------------------------------------------------

def test_contact_depth_keeps_the_head_and_the_regime():
    for H_r in (0.2, 0.35, 0.5):
        h = checks.contact_depth(H_r)
        q = checks.T3_INLET_Q
        head_in = checks._head(checks.T3_INLET_H, q, checks.T3_H_LEFT)
        assert checks._head(h, q, H_r) == pytest.approx(head_in, abs=1e-13)
        assert q * q / (checks.G * h ** 3) > 1.0


def test_references_agree_with_the_program_oracles():
    pytest.importorskip("swelab")
    from swelab.presets import exact_profile

    for H_r in (0.2, 0.45):
        assert checks.contact_depth(H_r) == pytest.approx(
            float(exact_profile(3, [0.9], H_r=H_r)[0]), rel=1e-10)
    x = np.linspace(0.0, 5.0, 101)
    assert np.allclose(checks.ramp_profile(x, 0.3, 0.2), exact_profile(6, x, dH=0.3, dl=0.2),
                       rtol=1e-10, atol=0)


# -- step-plateau -------------------------------------------------------------

HEIGHTS = [0.25, 0.45]


def plateau_members():
    m = {}
    for H in HEIGHTS:
        m[("hr", H)] = dict(steady=True, h_l=0.1, h_r=0.0671, h_step=0.0671)
        m[("modified-hr", H)] = dict(steady=True, h_l=0.1, h_r=checks.contact_depth(H) + 0.005,
                                     h_step=0.06)
    return m


def _perturbed(base, key, field, value):
    out = copy.deepcopy(base)
    out[key][field] = value
    return out


@pytest.mark.parametrize("key, field, value", [
    (("hr", 0.45), "steady", False),
    (("modified-hr", 0.25), "h_l", 0.1 + 1e-5),
    (("hr", 0.45), "h_r", 0.0671 + 1e-5),  # hr no longer flat beyond the onset
    (("modified-hr", 0.45), "h_r", checks.contact_depth(0.25) + 0.005),  # does not move
    (("modified-hr", 0.25), "h_r", 0.0671 + 0.001),  # farther than hr from the contact
    (("hr", 0.25), "h_step", 0.3),  # only one height beyond the onset
])
def test_step_plateau_rejects(key, field, value):
    assert checks.check_step_plateau(plateau_members(), HEIGHTS) == []
    assert checks.check_step_plateau(_perturbed(plateau_members(), key, field, value), HEIGHTS)


def test_step_plateau_rejects_a_missing_member():
    m = plateau_members()
    del m[("modified-hr", 0.45)]
    assert checks.check_step_plateau(m, HEIGHTS)


# -- ramp-ladder --------------------------------------------------------------

DH, DL, BOUND = 0.3, 0.2, 0.008
MESHES = (100, 200, 400, 800)


def ladder(offsets, cells_needed):
    """Final states shifted by a constant, so L1 = 5 * offset exactly."""
    rows, finals = [], {}
    for n, off in zip(MESHES, offsets):
        x = (np.arange(n) + 0.5) * (5.0 / n)
        h = checks.ramp_profile(x, DH, DL) + off
        finals[n] = (x, h)
        rows.append((n, float((x[1] - x[0]) * np.sum(np.abs(h - checks.ramp_profile(x, DH, DL))))))
    return dict(rows=rows, finals=finals, cells_needed=cells_needed)


def ladders():
    return {"roe": ladder([1e-3, 5e-4, 2.5e-4, 1.25e-4], 100),
            "gforce-wb": ladder([3e-2, 1.5e-2, 7.5e-3, 3.75e-3], None)}


def test_ramp_ladder_accepts_a_valid_ladder():
    assert checks.check_ramp_ladder(ladders(), DH, DL, BOUND) == []


def test_ramp_ladder_rejects_a_misreported_error():
    lad = ladders()
    n, err = lad["roe"]["rows"][2]
    lad["roe"]["rows"][2] = (n, err * (1 + 1e-4))
    assert checks.check_ramp_ladder(lad, DH, DL, BOUND)


def test_ramp_ladder_rejects_an_error_that_rises():
    lad = ladders()
    lad["gforce-wb"] = ladder([3e-2, 1.5e-2, 1.6e-2, 3.75e-3], None)
    assert checks.check_ramp_ladder(lad, DH, DL, BOUND)


def test_ramp_ladder_rejects_a_wrong_cells_needed():
    lad = ladders()
    lad["roe"]["cells_needed"] = 200
    assert checks.check_ramp_ladder(lad, DH, DL, BOUND)


def test_ramp_ladder_rejects_gforce_before_roe():
    lad = {"roe": ladder([2e-3, 1e-3, 5e-4, 2.5e-4], 200),
           "gforce-wb": ladder([1e-3, 5e-4, 2.5e-4, 1.25e-4], 100)}
    assert checks.check_ramp_ladder(lad, DH, DL, BOUND)


def test_ramp_ladder_rejects_roe_never_meeting_the_bound():
    lad = ladders()
    lad["roe"] = ladder([3e-2, 1.5e-2, 7.5e-3, 3.75e-3], None)
    assert checks.check_ramp_ladder(lad, DH, DL, BOUND)


def test_ramp_ladder_rejects_a_state_on_the_wrong_mesh():
    lad = ladders()
    x, h = lad["roe"]["finals"][400]
    lad["roe"]["finals"][400] = (x[:-1], h[:-1])
    assert checks.check_ramp_ladder(lad, DH, DL, BOUND)


# -- wet-dry-runs -------------------------------------------------------------

def wet_dry_run(scheme, clips=0):
    n = 40
    x = (np.arange(n) + 0.5) * (5.0 / n)
    H = np.where(x < 3.75, 1.0, 0.2)
    h = np.where(x < 3.75, 0.1 + 0.01 * np.sin(x), 0.0)
    q = np.where(h > 0, 0.3 * h, 0.0)
    csv = "x,H,h,q,eta,u,fr2\n" + "".join(
        ",".join(f"{float(v):.17g}" for v in (xi, Hi, hi, qi, hi - Hi, 0.0, 0.0)) + "\n"
        for xi, Hi, hi, qi in zip(x, H, h, q))
    return dict(summary={"metadata": {"final_time": 2.5, "clip_events": clips}},
                csv=csv, final=dict(x=x, H=H, h=h, q=q))


def wet_dry_runs():
    return {"hr": wet_dry_run("hr"), "force-wb": wet_dry_run("force-wb", clips=300)}


def _edit_csv(run, col, row, value, fmt="{:.17g}"):
    lines = run["csv"].splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = fmt.format(value)
    lines[row + 1] = ",".join(cells)
    run["csv"] = "\n".join(lines) + "\n"


def test_wet_dry_accepts_valid_runs():
    assert checks.check_wet_dry(wet_dry_runs()) == []


def test_wet_dry_rejects_a_wrong_final_time():
    runs = wet_dry_runs()
    runs["force-wb"]["summary"]["metadata"]["final_time"] = 2.5 - 1e-9
    assert checks.check_wet_dry(runs)


def test_wet_dry_rejects_clipping_in_the_hr_family():
    runs = wet_dry_runs()
    runs["hr"]["summary"]["metadata"]["clip_events"] = 1
    assert checks.check_wet_dry(runs)


def test_wet_dry_rejects_a_negative_depth():
    runs = wet_dry_runs()
    _edit_csv(runs["hr"], 2, 35, -1e-12)
    runs["hr"]["final"]["h"][35] = -1e-12
    assert checks.check_wet_dry(runs)


def test_wet_dry_rejects_discharge_in_a_dry_cell():
    runs = wet_dry_runs()
    _edit_csv(runs["force-wb"], 3, 39, 1e-6)
    runs["force-wb"]["final"]["q"][39] = 1e-6
    assert checks.check_wet_dry(runs)


def test_wet_dry_rejects_a_lossy_snapshot():
    runs = wet_dry_runs()
    _edit_csv(runs["hr"], 2, 3, runs["hr"]["final"]["h"][3], fmt="{:.6g}")
    assert checks.check_wet_dry(runs)


# -- mass budget ----------------------------------------------------------------

def budget():
    # three clean steps and one that clipped 2 cells down to -1e-3 (dx = 0.1)
    defect = [1e-17, -2e-17, 0.0, 1.5e-4]
    tol = [1e-13] * 4
    upper = [1e-13, 1e-13, 1e-13, 1e-13 + 2 * 1e-3 * 0.1]
    clips = [0, 0, 0, 2]
    return defect, tol, upper, clips


def test_budget_terms_close_on_a_conservative_update():
    h0 = np.array([1.0, 0.5, 0.25])
    dt, dx, f_in, f_out = 0.01, 0.1, 0.3, 0.2
    h1 = h0.copy()
    h1[0] += dt / dx * f_in
    h1[-1] -= dt / dx * f_out
    defect, tol, upper = checks.budget_terms(h0, h1, dx, dt, f_in, f_out, 0, 0, 0.25)
    assert abs(defect) <= tol == upper


def test_mass_budget_accepts_and_reports_clip_mass():
    bad, clip_mass = checks.check_mass_budget(*budget())
    assert bad == [] and clip_mass == 1.5e-4


@pytest.mark.parametrize("step, value", [
    (1, -1e-10),  # mass lost
    (2, 1e-10),  # mass gained with no clip event
    (3, 3e-4),  # more mass than the clipped depths explain
])
def test_mass_budget_rejects(step, value):
    defect, tol, upper, clips = budget()
    defect[step] = value
    bad, _ = checks.check_mass_budget(defect, tol, upper, clips)
    assert bad
