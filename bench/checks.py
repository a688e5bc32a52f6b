"""Independent references and the correctness checks of the benchmark.

Nothing here imports ``swelab``: the stationary references are solved
from the Bernoulli relation with ``scipy.optimize.brentq``, and every
check is a pure function of a workload's outputs that returns a list
of failure messages (empty when the outputs are correct). The tests in
``test_checks.py`` feed each check one perturbed output.

Conventions follow the program: ``H`` is the bottom depth, positive
downward, so the stationary invariant is h + q^2 / (2 g h^2) - H.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

G = 9.81
H_DRY = 1e-8

# test 3: supercritical inlet over a bottom step at x = 0.5
T3_INLET_H, T3_INLET_Q, T3_H_LEFT = 0.1, 0.1, 0.1
# test 6: supercritical inlet over a ramp from x = 0.2 to 0.2 + dl
T6_INLET_H, T6_INLET_Q, T6_H_LEFT = 0.5, 1.2, 0.1
# test 5 is run to this fixed time
T5_FINAL_TIME = 2.5

PLATEAU_FLAT_TOL = 1e-6  # hr's downstream depth beyond the onset
PLATEAU_MIN_STEP = 1e-4  # modified-hr must move at least this much
INLET_TOL = 1e-6  # upstream probe against the inlet depth
LADDER_MATCH_RTOL = 1e-6  # own L1 against convergence_study's
BUDGET_RTOL = 1e-12  # per-step mass budget, relative to the mass moved


def supercritical_depth(q: float, energy: float) -> float:
    """Root h < h_c of h + q^2 / (2 g h^2) = energy (Bernoulli head)."""
    h_c = (q * q / G) ** (1.0 / 3.0)
    if energy <= 1.5 * h_c:
        raise ValueError(f"head {energy} admits no supercritical depth for q = {q}")
    lo = q / math.sqrt(2.0 * G * energy)  # head(lo) = lo + energy > energy
    return brentq(lambda h: h + q * q / (2.0 * G * h * h) - energy, lo, h_c,
                  xtol=1e-15, rtol=4.0 * np.finfo(float).eps)


def _head(h: float, q: float, H: float) -> float:
    return h + q * q / (2.0 * G * h * h) - H


def contact_depth(H_r: float) -> float:
    """Test 3: stationary depth beyond a step to bottom depth ``H_r``."""
    return supercritical_depth(T3_INLET_Q, _head(T3_INLET_H, T3_INLET_Q, T3_H_LEFT) + H_r)


def ramp_bottom(x, dH: float, dl: float) -> np.ndarray:
    """Test 6 bottom depth: 0.1 up to x = 0.2, linear to 0.1 + dH at 0.2 + dl."""
    x = np.asarray(x, float)
    if dl == 0.0:
        return np.where(x <= 0.2, 0.1, 0.1 + dH)
    return 0.1 + dH * np.clip((x - 0.2) / dl, 0.0, 1.0)


def ramp_profile(x, dH: float, dl: float) -> np.ndarray:
    """Test 6: smooth supercritical stationary depth at positions ``x``."""
    e0 = _head(T6_INLET_H, T6_INLET_Q, T6_H_LEFT)
    return np.array([supercritical_depth(T6_INLET_Q, e0 + H) for H in ramp_bottom(x, dH, dl)])


# -- step-plateau ----------------------------------------------------------

def check_step_plateau(members: dict, heights) -> list:
    """``members[(scheme, H_r)]`` holds ``steady``, ``h_l``, ``h_r`` (the
    probes) and ``h_step`` (final depth in the first cell past the step).

    Every member is steady with h_l at the inlet depth; at least two
    heights lie beyond the large-step onset, where hr's h_r is flat;
    modified-hr's h_r moves with H_r and is closer than hr's to the
    exact contact depth.
    """
    bad = []
    heights = sorted(heights)
    for (scheme, H_r), m in sorted(members.items()):
        if not m["steady"]:
            bad.append(f"{scheme} H_r={H_r}: not steady")
        if not abs(m["h_l"] - T3_INLET_H) <= INLET_TOL:
            bad.append(f"{scheme} H_r={H_r}: h_l={m['h_l']!r} is not the inlet depth")
    missing = [(s, H) for s in ("hr", "modified-hr") for H in heights if (s, H) not in members]
    if missing:
        return bad + [f"missing members {missing}"]
    # large step: the column past the step lies below the upstream bottom level
    beyond = [H for H in heights
              if members[("hr", H)]["h_step"] - H + min(T3_H_LEFT, H) < 0]
    if len(beyond) < 2:
        bad.append(f"only {len(beyond)} heights beyond the large-step onset")
    else:
        hr_vals = [members[("hr", H)]["h_r"] for H in beyond]
        spread = max(hr_vals) - min(hr_vals)
        if not spread <= PLATEAU_FLAT_TOL:
            bad.append(f"hr h_r varies by {spread:.3e} beyond the onset")
    mod = [members[("modified-hr", H)]["h_r"] for H in heights]
    moves = np.abs(np.diff(mod))
    if not np.all(moves >= PLATEAU_MIN_STEP):
        bad.append(f"modified-hr h_r moves by only {moves.min():.3e} between heights")
    for H in heights:
        exact = contact_depth(H)
        e_mod = abs(members[("modified-hr", H)]["h_r"] - exact)
        e_hr = abs(members[("hr", H)]["h_r"] - exact)
        if not e_mod < e_hr:
            bad.append(f"H_r={H}: modified-hr error {e_mod:.3e} not below hr's {e_hr:.3e}")
    return bad


# -- ramp-ladder -----------------------------------------------------------

def check_ramp_ladder(ladders: dict, dH: float, dl: float, bound: float) -> list:
    """``ladders[scheme]`` holds ``rows`` [(n, l1 reported)], ``finals``
    {n: (x, h)} and ``cells_needed``.

    The L1 error against the independent profile falls with each rung
    and matches the reported one; roe meets the bound, on no larger mesh
    than gforce-wb.
    """
    bad = []
    for scheme, lad in sorted(ladders.items()):
        own = []
        for n, reported in lad["rows"]:
            x, h = lad["finals"][n]
            if len(h) != n:
                bad.append(f"{scheme} n={n}: final state has {len(h)} cells")
                own.append(float("nan"))
                continue
            err = float((x[1] - x[0]) * np.sum(np.abs(h - ramp_profile(x, dH, dl))))
            own.append(err)
            if not abs(err - reported) <= LADDER_MATCH_RTOL * err:
                bad.append(f"{scheme} n={n}: reported L1 {reported!r} against own {err!r}")
        if not all(b < a for a, b in zip(own, own[1:])):
            bad.append(f"{scheme}: L1 does not fall with each rung: {own}")
        first = next((n for (n, _), e in zip(lad["rows"], own) if e <= bound), None)
        if first != lad["cells_needed"]:
            bad.append(f"{scheme}: cells_needed {lad['cells_needed']} but own ladder gives {first}")
    roe = ladders["roe"]["cells_needed"]
    gf = ladders["gforce-wb"]["cells_needed"]
    if roe is None:
        bad.append("roe never meets the bound")
    elif gf is not None and gf < roe:
        bad.append(f"gforce-wb meets the bound at {gf} cells, before roe at {roe}")
    return bad


# -- wet-dry-runs ----------------------------------------------------------

HR_FAMILY = ("hr", "modified-hr", "force-hr", "gforce-hr")


def read_snapshot(text: str) -> dict:
    """Columns of a snapshot CSV as float arrays."""
    lines = text.strip().splitlines()
    names = lines[0].split(",")
    cols = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {k: cols[:, i] for i, k in enumerate(names)}


def check_wet_dry(runs: dict) -> list:
    """``runs[scheme]`` holds ``summary`` (the parsed summary JSON),
    ``csv`` (the snapshot text) and ``final`` {x, H, h, q} as computed.

    Every run ends at t = 2.5 with h >= 0 and q = 0 in dry cells; the
    HR family never clips; the CSV reads back to the computed state bit
    for bit.
    """
    bad = []
    for scheme, r in sorted(runs.items()):
        meta = r["summary"]["metadata"]
        if not abs(meta["final_time"] - T5_FINAL_TIME) <= 1e-12:
            bad.append(f"{scheme}: ends at t={meta['final_time']!r}")
        if scheme in HR_FAMILY and meta["clip_events"] != 0:
            bad.append(f"{scheme}: {meta['clip_events']} clip events")
        snap = read_snapshot(r["csv"])
        h, q = snap["h"], snap["q"]
        if not np.all(h >= 0):
            bad.append(f"{scheme}: negative depth {h.min()!r}")
        dry = h <= H_DRY
        if np.any(q[dry] != 0):
            bad.append(f"{scheme}: discharge in {int(np.count_nonzero(q[dry]))} dry cells")
        for k in ("x", "H", "h", "q"):
            if snap[k].shape != r["final"][k].shape or not np.array_equal(snap[k], r["final"][k]):
                bad.append(f"{scheme}: column {k} does not read back losslessly")
    return bad


# -- mass budget (traced runs) ----------------------------------------------

def budget_terms(h_before, h_after, dx, dt, flux_in, flux_out, clips, minor, min_h_pre):
    """Per-step mass-budget defect and its admissible range.

    defect = dx * (sum h_after - sum h_before) - dt * (flux_in - flux_out).
    Clipping only adds mass, at most |min_h_pre| * dx per clipped cell,
    so  -tol <= defect <= tol + (clips + minor) * max(-min_h_pre, 0) * dx,
    with tol a round-off allowance. Returns (defect, tol, upper).
    """
    m0 = float(np.sum(h_before)) * dx
    m1 = float(np.sum(h_after)) * dx
    moved = dt * (flux_in - flux_out)
    tol = BUDGET_RTOL * (abs(m0) + abs(m1) + abs(dt * flux_in) + abs(dt * flux_out))
    upper = tol + (clips + minor) * max(-min_h_pre, 0.0) * dx
    return m1 - m0 - moved, tol, upper


def check_mass_budget(defect, tol, upper, clips) -> tuple:
    """Vectorised over steps: (failures, clip mass).

    The defect is never below minus round-off, is round-off on steps
    without clip events, and is bounded by the clipped depths; the clip
    mass is the summed defect of the steps with clip events.
    """
    defect, tol, upper, clips = (np.asarray(a, float) for a in (defect, tol, upper, clips))
    bad = []
    low = np.flatnonzero(defect < -tol)
    if low.size:
        bad.append(f"mass budget: {low.size} steps lose mass, first at step {low[0]} "
                   f"({defect[low[0]]!r})")
    high = np.flatnonzero(defect > upper)
    if high.size:
        bad.append(f"mass budget: {high.size} steps gain more than clipping explains, "
                   f"first at step {high[0]} ({defect[high[0]]!r})")
    return bad, float(np.sum(defect[clips > 0]))
