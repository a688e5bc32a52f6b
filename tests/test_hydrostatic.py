"""Hydrostatic reconstruction, its source split and the step corrections."""

import numpy as np
import pytest
from hypothesis import given, settings

from swelab import kernel
from swelab.core import ExtState, PhysConstants, PhysState
from swelab.hydrostatic import (
    hr_interface_terms,
    hr_reconstruct,
    modified_hr_corrections,
    pressure,
)
from swelab.solver import SchemeConfig

from conftest import wet_pairs


def _ext(pair):
    (hl, ql), (hr, qr), Hl, Hr = pair
    return ExtState(PhysState(hl, ql), Hl), ExtState(PhysState(hr, qr), Hr)


def test_pressure_value():
    assert pressure(0.4, 9.81) == pytest.approx(0.5 * 9.81 * 0.16)


# -- reconstruction -------------------------------------------------------

def test_reconstruct_rest_over_step(c):
    """Water at rest: both reconstructed depths equal the surface over H*."""
    Wl = ExtState(PhysState(0.7, 0.0), 0.5)   # surface at 0.2
    Wr = ExtState(PhysState(0.4, 0.0), 0.2)
    iface = hr_reconstruct(Wl, Wr, c)
    assert iface.H_star == 0.2
    assert iface.w_minus.h == pytest.approx(0.4)
    assert iface.w_plus.h == pytest.approx(0.4)
    assert not iface.large_step


def test_reconstruct_clips_large_step(c):
    """Left surface below the right bottom level: the column truncates."""
    Wl = ExtState(PhysState(0.1, 0.05), 0.8)  # surface at -0.7
    Wr = ExtState(PhysState(0.3, 0.0), 0.2)   # bottom at -0.2, above the surface
    iface = hr_reconstruct(Wl, Wr, c)
    assert iface.H_star == 0.2
    assert iface.w_minus.h == 0.0
    assert bool(iface.large_step)


def test_reconstruct_donor_velocities(c):
    Wl = ExtState(PhysState(0.5, 0.2), 0.3)
    Wr = ExtState(PhysState(0.6, -0.3), 0.1)
    iface = hr_reconstruct(Wl, Wr, c)
    hm, hp = iface.w_minus.h, iface.w_plus.h
    assert iface.w_minus.q == pytest.approx(hm * 0.2 / 0.5)
    assert iface.w_plus.q == pytest.approx(hp * (-0.3) / 0.6)


# -- source split ---------------------------------------------------------

@given(wet_pairs())
@settings(max_examples=300)
def test_hr_source_is_segmentwise_path_integral(pair):
    """Outside clipping each part equals its straight-segment integral."""
    c = PhysConstants()
    Wl, Wr = _ext(pair)
    iface = hr_reconstruct(Wl, Wr, c)
    if np.any(iface.large_step):
        return  # clipped interfaces are covered by the correction tests
    hm, hp = iface.w_minus.h, iface.w_plus.h
    minus, plus = kernel.hr_source(Wl.h, Wr.h, hm, hp, c.g)
    seg_l = c.g * 0.5 * (Wl.h + hm) * (iface.H_star - Wl.H)
    seg_r = c.g * 0.5 * (Wr.h + hp) * (Wr.H - iface.H_star)
    scale = max(1.0, abs(seg_l), abs(seg_r))
    assert abs(minus - seg_l) <= 1e-12 * scale
    assert abs(plus - seg_r) <= 1e-12 * scale


def test_modified_corrections_zero_outside_large_steps(c):
    Wl = ExtState(PhysState(0.7, 0.1), 0.5)
    Wr = ExtState(PhysState(0.4, 0.2), 0.2)
    corr = modified_hr_corrections(Wl, Wr, "dimensional", c)
    assert corr.T_minus == 0.0 and corr.T_plus == 0.0


def test_variants_identical_outside_large_steps(c):
    """Bit-identical flux and split when no column truncates."""
    Wl = ExtState(PhysState(0.7, 0.1), 0.5)
    Wr = ExtState(PhysState(0.4, 0.2), 0.2)
    Fo, so = hr_interface_terms(Wl, Wr, SchemeConfig.from_id("hr"), c)
    Fm, sm = hr_interface_terms(Wl, Wr, SchemeConfig.from_id("modified-hr"), c)
    assert Fo == Fm
    assert so.minus == sm.minus and so.plus == sm.plus


def test_wet_wet_large_step_restores_full_integral(c):
    """With T-+, each side carries the segment integral over the whole step."""
    Wl = ExtState(PhysState(0.1, 0.02), 0.9)  # surface at -0.8
    Wr = ExtState(PhysState(0.3, 0.05), 0.2)  # bottom at -0.2: large step, both wet
    iface = hr_reconstruct(Wl, Wr, c)
    assert bool(iface.large_step)
    corr = modified_hr_corrections(Wl, Wr, "dimensional", c)
    hm, hp = iface.w_minus.h, iface.w_plus.h
    minus, plus = kernel.hr_source(Wl.h, Wr.h, hm, hp, c.g)
    total_minus = minus + corr.T_minus
    assert total_minus == pytest.approx(
        c.g * 0.5 * (Wl.h + hm) * (iface.H_star - Wl.H), rel=1e-12
    )
    total_plus = plus + corr.T_plus
    assert total_plus == pytest.approx(
        c.g * 0.5 * (Wr.h + hp) * (Wr.H - iface.H_star), rel=1e-12
    )


def test_rest_against_dry_bank_keeps_original(c):
    """Emerging bottom with still water: the gate must not fire."""
    Wl = ExtState(PhysState(0.1, 0.0), 0.5)   # surface -0.4
    Wr = ExtState(PhysState(0.0, 0.0), -0.2)  # dry bank above the surface
    iface = hr_reconstruct(Wl, Wr, c)
    assert bool(iface.large_step)
    corr = modified_hr_corrections(Wl, Wr, "dimensional", c)
    assert corr.T_minus == 0.0 and corr.T_plus == 0.0
    assert not np.any(corr.gate_applied)


def test_gate_fires_for_energetic_inflow(c):
    """Fast flow toward a dry bank above the surface passes the gate."""
    Wl = ExtState(PhysState(0.5, 0.5 * 8.0), 0.5)  # surface at 0, u = 8 m/s
    Wr = ExtState(PhysState(0.0, 0.0), -0.05)      # bank 5 cm above the surface
    iface = hr_reconstruct(Wl, Wr, c)
    assert bool(iface.large_step)
    corr = modified_hr_corrections(Wl, Wr, "dimensional", c)
    assert bool(np.any(corr.gate_applied))
    assert corr.T_minus != 0.0
    # flow pointing away from the step never opens the gate
    Wl_away = ExtState(PhysState(0.5, -0.5 * 8.0), 0.5)
    corr2 = modified_hr_corrections(Wl_away, Wr, "dimensional", c)
    assert corr2.T_minus == 0.0 and not np.any(corr2.gate_applied)


def test_gate_policies_can_disagree(c):
    """The two gate right-hand sides classify some configurations differently."""
    rng = np.random.default_rng(7)
    disagreement = 0
    for _ in range(200):
        h = rng.uniform(0.05, 1.0)
        u = rng.uniform(0.5, 5.0)
        Hl = rng.uniform(0.0, 1.0)
        bank = (h - Hl) + rng.uniform(0.01, 0.5)  # bottom above the surface
        Wl = ExtState(PhysState(h, h * u), Hl)
        Wr = ExtState(PhysState(0.0, 0.0), -bank + 0.0)
        if not (Wl.h - Wl.H + Wr.H < 0):
            continue
        fired = {}
        for policy in ("dimensional", "as-printed"):
            corr = modified_hr_corrections(Wl, Wr, policy, c)
            fired[policy] = bool(np.any(corr.gate_applied))
        disagreement += fired["dimensional"] != fired["as-printed"]
    assert disagreement > 0


def test_dry_dry_interface_zero_terms(c):
    Wl = ExtState(PhysState(0.0, 0.0), 0.2)
    Wr = ExtState(PhysState(0.0, 0.0), 0.8)
    F, split = hr_interface_terms(Wl, Wr, SchemeConfig.from_id("modified-hr"), c)
    assert F == (0.0, 0.0)
    assert split.minus[1] == 0.0 and split.plus[1] == 0.0


def test_hr_interface_terms_validation(c):
    W = ExtState(PhysState(0.5, 0.1), 0.2)
    with pytest.raises(ValueError, match="hydrostatic"):
        hr_interface_terms(W, W, SchemeConfig.from_id("roe"), c)
    with pytest.raises(ValueError, match="dx and dt"):
        hr_interface_terms(W, W, SchemeConfig.from_id("force-hr"), c)


def test_hr_interface_terms_omega_flux(c):
    W1 = ExtState(PhysState(0.5, 0.1), 0.2)
    W2 = ExtState(PhysState(0.45, 0.12), 0.3)
    F, split = hr_interface_terms(W1, W2, SchemeConfig.from_id("force-hr"), c, dx=0.1, dt=0.01)
    assert np.all(np.isfinite(F))
    assert not hr_reconstruct(W1, W2, c).large_step
