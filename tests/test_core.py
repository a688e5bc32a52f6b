"""Physical model and exact stationary-solution oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swelab.core import (
    DryStateError,
    ExtState,
    NearCriticalError,
    NoAdmissibleRootError,
    PhysConstants,
    PhysState,
    TranscriticalProfileError,
    critical_depth,
    eigenvalues,
    entropy_pair,
    exact_smooth_profile,
    exact_step_state,
    froude_squared,
    invariant_depth_function,
    physical_flux,
    riemann_invariant,
    solve_invariant_depth,
    velocity,
)

from conftest import depths, velocities, wet_states


def test_physical_flux_hand_value(c):
    f0, f1 = physical_flux(PhysState(0.4, 0.3), c)
    assert f0 == 0.3
    assert f1 == pytest.approx(0.3**2 / 0.4 + 0.5 * 9.81 * 0.4**2, rel=1e-15)


def test_physical_flux_dry_is_zero(c):
    assert physical_flux(PhysState(0.0, 0.0), c) == (0.0, 0.0)


def test_physical_flux_rejects_negative_depth(c):
    with pytest.raises(ValueError):
        physical_flux(PhysState(-0.1, 0.0), c)


def test_velocity_zero_below_dry_threshold(c):
    assert velocity(PhysState(0.5 * c.h_dry, 1.0), c) == 0.0
    assert velocity(PhysState(0.2, 0.1), c) == pytest.approx(0.5)


@given(wet_states())
@settings(max_examples=200)
def test_eigenvalues_closed_form(w):
    c = PhysConstants()
    h, q = w
    l1, l2 = eigenvalues(PhysState(h, q), c)
    u = q / h
    cel = np.sqrt(c.g * h)
    assert l1 == pytest.approx(u - cel, rel=1e-12, abs=1e-12)
    assert l2 == pytest.approx(u + cel, rel=1e-12, abs=1e-12)


def test_froude_squared_rejects_dry(c):
    with pytest.raises(DryStateError):
        froude_squared(PhysState(0.0, 0.0), c)


def test_riemann_invariant_frozen_value(c):
    # inlet state of the step benchmarks
    q, inv = riemann_invariant(ExtState(PhysState(0.1, 0.1), 0.1), c)
    assert q == 0.1
    assert inv == pytest.approx(0.0509683995922528, rel=1e-14)


def test_entropy_pair_rest_flux_vanishes(c):
    ev = entropy_pair(ExtState(PhysState(0.7, 0.0), 0.3), c)
    assert ev.G == 0.0
    assert ev.eta == pytest.approx(0.5 * 9.81 * 0.49 - 9.81 * 0.7 * 0.3, rel=1e-14)


def test_entropy_pair_dry_is_zero(c):
    ev = entropy_pair(ExtState(PhysState(0.0, 0.0), 0.4), c)
    assert ev.eta == 0.0 and ev.G == 0.0


def test_entropy_pair_frozen_value(c):
    ev = entropy_pair(ExtState(PhysState(0.4, 0.3), 0.2), c)
    assert ev.eta == pytest.approx(0.11249999999999993, rel=1e-14)
    assert ev.G == pytest.approx(0.6729749999999999, rel=1e-14)


def test_critical_depth_frozen_value(c):
    assert critical_depth(0.18, c) == pytest.approx(0.14892193399548317, rel=1e-14)


@given(depths, st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=300)
def test_solve_invariant_depth_recovers_phi(h, q):
    """phi(solution) hits the target on the branch that contains h."""
    c = PhysConstants()
    h_c = critical_depth(q, c)
    branch = "subcritical" if h >= h_c else "supercritical"
    target = invariant_depth_function(h, q, c)
    sol = solve_invariant_depth(q, target, branch, c)
    assert abs(invariant_depth_function(sol, q, c) - target) <= 1e-11 * max(1.0, target)
    if branch == "subcritical":
        assert sol >= h_c * (1 - 1e-12)
    else:
        assert sol <= h_c * (1 + 1e-12)


def test_solve_invariant_depth_no_root(c):
    q = 1.0
    h_c = critical_depth(q, c)
    with pytest.raises(NoAdmissibleRootError):
        solve_invariant_depth(q, 1.4 * h_c, "subcritical", c)


def test_solve_invariant_depth_zero_discharge(c):
    assert solve_invariant_depth(0.0, 0.7, "subcritical", c) == 0.7
    with pytest.raises(NoAdmissibleRootError):
        solve_invariant_depth(0.0, -0.1, "subcritical", c)


def test_solve_invariant_depth_bad_branch(c):
    with pytest.raises(ValueError):
        solve_invariant_depth(0.1, 1.0, "critical", c)
    # a NaN or infinite level or discharge has no root to return
    for branch in ("subcritical", "supercritical"):
        for q, target in ((0.15, np.nan), (0.15, np.inf), (0.15, -np.inf),
                          (np.nan, 0.5), (np.inf, 0.5), (0.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                solve_invariant_depth(q, target, branch, c)


def test_exact_oracles_reject_a_nan_bottom(c):
    """Moving flow meets the finiteness check; the rest branches test
    the admissible depth positively, so NaN fails there too."""
    def nan_bottom(x):
        return np.where(np.asarray(x) > 0.5, np.nan, 0.1)

    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="finite"):
        exact_step_state(ExtState(PhysState(0.1, 0.15), 0.1), np.nan, c)
    with pytest.raises(NoAdmissibleRootError):
        exact_step_state(ExtState(PhysState(0.5, 0.0), 0.2), np.nan, c)
    with pytest.raises(ValueError, match="finite"):
        exact_smooth_profile(nan_bottom, ExtState(PhysState(0.5, 1.2), 0.1), xs, c)
    with pytest.raises(TranscriticalProfileError):
        exact_smooth_profile(nan_bottom, ExtState(PhysState(0.5, 0.0), 0.1), xs, c)


def test_exact_step_state_frozen_values(c):
    """Supercritical inlet over a falling step, three step depths."""
    W_l = ExtState(PhysState(0.1, 0.1), 0.1)
    expected = {0.15: 0.060165001253891556,
                0.30: 0.04051863746643795,
                0.45: 0.033002228645858084}
    for H_r, h_r in expected.items():
        right = exact_step_state(W_l, H_r, c)
        assert right.q == 0.1
        assert right.h == pytest.approx(h_r, rel=1e-10)


def test_exact_step_state_rest(c):
    right = exact_step_state(ExtState(PhysState(0.5, 0.0), 0.2), 0.45, c)
    assert right.h == pytest.approx(0.75) and right.q == 0.0
    with pytest.raises(NoAdmissibleRootError):
        exact_step_state(ExtState(PhysState(0.5, 0.0), 0.2), -0.4, c)


def test_exact_step_state_near_critical_raises(c):
    h = 0.2
    q = h * np.sqrt(c.g * h)  # Fr = 1 exactly
    with pytest.raises(NearCriticalError):
        exact_step_state(ExtState(PhysState(h, q), 0.0), 0.1, c)


@given(depths, st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=-0.3, max_value=0.3))
@settings(max_examples=200)
def test_exact_step_state_preserves_invariants(h, q, dH):
    c = PhysConstants()
    W_l = ExtState(PhysState(h, q), 0.0)
    fr2 = froude_squared(W_l.state, c)
    if abs(fr2 - 1.0) < 0.05:
        return  # branch genuinely ambiguous near criticality
    try:
        right = exact_step_state(W_l, dH, c)
    except NoAdmissibleRootError:
        return  # the step is too high for this inlet; nothing to check
    q_l, inv_l = riemann_invariant(W_l, c)
    q_r, inv_r = riemann_invariant(ExtState(right, dH), c)
    assert q_r == q_l
    assert inv_r == pytest.approx(inv_l, rel=1e-9, abs=1e-9)
    # same flow regime on both sides of the stationary contact
    assert (froude_squared(right, c) > 1.0) == (fr2 > 1.0)


def test_exact_smooth_profile_flat_bottom(c):
    inlet = ExtState(PhysState(0.5, 1.2), 0.1)
    prof = exact_smooth_profile(lambda x: np.full_like(x, 0.1), inlet,
                                np.linspace(0, 5, 7), c)
    assert np.allclose(prof.h, 0.5, rtol=1e-11)
    assert np.allclose(prof.q, 1.2)


def test_exact_smooth_profile_frozen_value(c):
    # supercritical inlet accelerating down a 0.3 m drop
    def bathy(x):
        x = np.asarray(x, float)
        ramp = 0.1 + 0.3 * (x - 0.2) / 0.2
        return np.where(x <= 0.2, 0.1, np.where(x <= 0.4, ramp, 0.4))

    inlet = ExtState(PhysState(0.5, 1.2), 0.1)
    prof = exact_smooth_profile(bathy, inlet, np.array([0.1, 1.0]), c)
    assert prof.h[0] == pytest.approx(0.5, abs=1e-9)
    assert prof.h[1] == pytest.approx(0.30509542866495953, rel=1e-9)


def test_exact_smooth_profile_transcritical_raises(c):
    # subcritical inlet over a bottom rising far beyond the choking height
    inlet = ExtState(PhysState(1.0, 0.5), 1.0)
    with pytest.raises(TranscriticalProfileError):
        exact_smooth_profile(lambda x: 1.0 - 0.9 * np.asarray(x, float), inlet,
                             np.linspace(0.0, 1.0, 5), c)


def test_phys_constants_validation():
    with pytest.raises(ValueError):
        PhysConstants(g=-1.0)
    with pytest.raises(ValueError):
        PhysConstants(h_dry=1.0)


def _profile_cell_by_cell(bathymetry, inlet, xs, c):
    """Reference for ``exact_smooth_profile``: one root per position, in order."""
    q, inv2 = riemann_invariant(inlet, c)
    branch = "supercritical" if froude_squared(inlet.state, c) > 1.0 else "subcritical"
    Hs = np.asarray(bathymetry(xs), dtype=float)
    h = np.empty_like(Hs)
    for i, H in enumerate(Hs):
        try:
            h[i] = solve_invariant_depth(q, inv2 + H, branch, c)
        except NoAdmissibleRootError as exc:
            raise TranscriticalProfileError(
                f"transcritical profile: no {branch} root at x = {xs[i]}") from exc
    return h


@pytest.mark.parametrize("seed", [0, 1])
def test_exact_smooth_profile_matches_the_per_cell_loop_bitwise(c, seed):
    """One root per distinct bottom depth gives the per-cell profile bit for
    bit, on test 6 ladders from 100 to 3,200 cells."""
    from swelab.presets import build_preset

    r = np.random.default_rng(seed)
    dH, dl = round(r.uniform(0.25, 0.35), 3), round(r.uniform(0.15, 0.25), 3)
    inlet = ExtState(PhysState(0.5, 1.2), 0.1)
    for n in (100, 200, 400, 800, 1600, 3200):
        spec = build_preset(6, n_cells=n, dH=dH, dl=dl)
        x = spec.grid.centers()
        prof = exact_smooth_profile(spec.bathymetry, inlet, x, c)
        want = _profile_cell_by_cell(spec.bathymetry, inlet, x, c)
        assert prof.h.tobytes() == want.tobytes(), n
        assert prof.q.tobytes() == np.full_like(want, 1.2).tobytes()


def test_exact_smooth_profile_names_the_first_position_without_a_root(c):
    """Two bottom levels admit no root; the one met first is reported, as
    the per-cell loop reports it, though the other is the lower depth."""
    inlet = ExtState(PhysState(1.0, 0.5), 1.0)

    def bathy(x):
        x = np.asarray(x, float)
        return np.where(x < 0.3, 1.0, np.where(x < 0.6, 0.3, 0.2))

    xs = np.linspace(0.0, 1.0, 21)
    with pytest.raises(TranscriticalProfileError) as want:
        _profile_cell_by_cell(bathy, inlet, xs, c)
    with pytest.raises(TranscriticalProfileError) as got:
        exact_smooth_profile(bathy, inlet, xs, c)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith(f"x = {xs[6]}")
