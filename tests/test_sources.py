"""Source-term splittings: path-sum identities, upwinding, sonic handling,
and the erratum in the printed omega splitting."""

import numpy as np
import pytest
from hypothesis import given, settings

from swelab.core import ExtState, PhysConstants, PhysState
from swelab.fluxes import omega_flux, roe_average
from swelab.sources import (
    SourceSplit,
    lambda_floor,
    omega_source_split,
    resolved_split_form,
    roe_source_split,
)

from conftest import path_source_trapezoid, wet_pairs


def _ext(pair):
    (hl, ql), (hr, qr), Hl, Hr = pair
    return ExtState(PhysState(hl, ql), Hl), ExtState(PhysState(hr, qr), Hr)


def _sum_matches_trapezoid(split, Wl, Wr, c, tol=1e-13):
    s0 = split.minus[0] + split.plus[0]
    s1 = split.minus[1] + split.plus[1]
    t0, t1 = path_source_trapezoid(Wl, Wr, c)
    # the parts may be orders of magnitude larger than their sum (the
    # upwind contributions cancel), so scale by what was actually added
    scale = max(1.0, abs(t1), abs(split.minus[1]), abs(split.plus[1]))
    return abs(s0 - t0) <= tol * scale and abs(s1 - t1) <= tol * scale


@given(wet_pairs())
@settings(max_examples=300)
def test_roe_split_path_sum(pair):
    c = PhysConstants()
    Wl, Wr = _ext(pair)
    split = roe_source_split(Wl, Wr, c)
    assert _sum_matches_trapezoid(split, Wl, Wr, c)


@given(wet_pairs())
@settings(max_examples=300)
def test_omega_split_path_sum(pair):
    c = PhysConstants()
    Wl, Wr = _ext(pair)
    for omega in (0.0, 0.5, 1.0):
        split = omega_source_split(Wl, Wr, omega, 0.1, 0.01, c)
        assert _sum_matches_trapezoid(split, Wl, Wr, c)


def test_splits_vanish_without_a_step(c):
    W = ExtState(PhysState(0.4, 0.3), 0.2)
    for split in (
        roe_source_split(W, W, c),
        omega_source_split(W, W, 0.5, 0.1, 0.01, c),
    ):
        assert split.minus == (0.0, 0.0) or all(abs(v) == 0.0 for v in split.minus)
        assert all(abs(v) == 0.0 for v in split.plus)


def test_roe_split_supersonic_goes_downstream(c):
    """Both eigenvalues positive: the entire source lands on the right cell."""
    Wl = ExtState(PhysState(0.2, 0.2 * 3.0), 0.1)
    Wr = ExtState(PhysState(0.22, 0.22 * 3.1), 0.3)
    split = roe_source_split(Wl, Wr, c)
    t0, t1 = path_source_trapezoid(Wl, Wr, c)
    assert abs(split.minus[0]) <= 1e-12 and abs(split.minus[1]) <= 1e-12
    assert split.plus[1] == pytest.approx(t1, rel=1e-12)
    # mirrored flow sends it upstream-left instead
    Wl2 = ExtState(PhysState(0.22, -0.22 * 3.1), 0.1)
    Wr2 = ExtState(PhysState(0.2, -0.2 * 3.0), 0.3)
    split2 = roe_source_split(Wl2, Wr2, c)
    assert abs(split2.plus[1]) <= 1e-12
    assert split2.minus[1] == pytest.approx(path_source_trapezoid(Wl2, Wr2, c)[1], rel=1e-12)


def test_roe_split_sonic_policy(c):
    """The singular Roe matrix of a sonic interface is clamped, not inverted."""
    h = 0.3
    q = h * np.sqrt(c.g * h)  # lambda_1 = 0 exactly for equal states
    W = ExtState(PhysState(h, q), 0.0)
    W2 = ExtState(PhysState(h, q), 0.2)
    split = roe_source_split(W, W2, c)
    assert np.all(np.isfinite(split.minus)) and np.all(np.isfinite(split.plus))


def test_resolved_split_form_is_half():
    assert resolved_split_form() == "half"


def _as_printed_split(W_l, W_r, omega, dx, dt, c):
    """The omega splitting as printed: no 1/2 on either part (an erratum)."""
    dH = np.asarray(W_r.H, float) - np.asarray(W_l.H, float)
    roe = roe_average(W_l.state, W_r.state, c)
    c2 = roe.c * roe.c
    a = (1.0 - omega) * dx / dt
    b = omega * dt / dx
    up0 = a * dH + b * (c2 * dH)
    up1 = b * (2.0 * roe.u * c2 * dH)
    return SourceSplit(minus=(-up0, c2 * dH - up1), plus=(up0, c2 * dH + up1))


def _rest_over_step_residual(split_fn):
    """Max |dh|, |dq| of one assembled FORCE update of a 4-cell rest state
    over a bottom step, at the two interior cells."""
    c = PhysConstants()
    H = np.array([0.5, 0.5, 0.2, 0.2])
    h = 0.5 + H  # free surface at 0.5, at rest
    q = np.zeros_like(h)
    dx = 0.1
    dt = 0.9 * dx / np.max(np.sqrt(c.g * h))
    omega = 0.5
    wl, wr = PhysState(h[:-1], q[:-1]), PhysState(h[1:], q[1:])
    f0, f1 = omega_flux(wl, wr, omega, dx, dt, c)
    s = split_fn(ExtState(wl, H[:-1]), ExtState(wr, H[1:]), omega, dx, dt, c)
    res = 0.0
    for i in (1, 2):  # interface i carries cells (i, i+1)
        dh = -(dt / dx) * (f0[i] - f0[i - 1]) + (dt / dx) * (s.plus[0][i - 1] + s.minus[0][i])
        dq = -(dt / dx) * (f1[i] - f1[i - 1]) + (dt / dx) * (s.plus[1][i - 1] + s.minus[1][i])
        res = max(res, abs(dh), abs(dq))
    return res, s


def test_pinned_split_keeps_rest_and_as_printed_does_not():
    pinned, s = _rest_over_step_residual(omega_source_split)
    printed, p = _rest_over_step_residual(_as_printed_split)
    for got, half in zip(p.minus + p.plus, s.minus + s.plus):
        np.testing.assert_allclose(got, 2.0 * half, rtol=1e-14, atol=0.0)
    assert pinned < 1e-13
    assert printed > 1e-3


def test_as_printed_form_breaks_path_sum(c):
    """Without the 1/2 the split sums to twice the segment integral."""
    Wl = ExtState(PhysState(0.5, 0.2), 0.1)
    Wr = ExtState(PhysState(0.45, 0.25), 0.3)
    split = _as_printed_split(Wl, Wr, 0.5, 0.1, 0.01, c)
    t1 = path_source_trapezoid(Wl, Wr, c)[1]
    assert split.minus[1] + split.plus[1] == pytest.approx(2.0 * t1, rel=1e-12)


def test_omega_split_form_validation(c):
    Wl = ExtState(PhysState(0.5, 0.2), 0.1)
    with pytest.raises(ValueError):
        omega_source_split(Wl, Wl, 0.5, -0.1, 0.01, c)


def test_lambda_floor_scale_relative():
    assert lambda_floor(0.0, 0.5) == pytest.approx(1e-8)
    assert lambda_floor(10.0, 2.0) == pytest.approx(12e-8)
