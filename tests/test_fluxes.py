"""Numerical fluxes: consistency, the Roe property, matrix algebra."""

import numpy as np
import pytest
from hypothesis import given, settings

from swelab import kernel
from swelab.core import DryInterfaceError, PhysConstants, PhysState, physical_flux
from swelab.fluxes import ROE, FluxKind, RoeData, omega_flux, roe_average, roe_flux

from conftest import wet_pairs, wet_states


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _matrix(m00, m01, m10, m11):
    """Stacked (..., 2, 2) array from the four entries."""
    m = np.broadcast_arrays(*(np.asarray(v, float) for v in (m00, m01, m10, m11)))
    return np.stack([np.stack(m[:2], -1), np.stack(m[2:], -1)], -2)


def _J(roe):
    return _matrix(0.0, 1.0, roe.c * roe.c - roe.u * roe.u, 2.0 * roe.u)


def _K(roe):
    l1, l2 = roe.lam
    return _matrix(1.0, 1.0, l1, l2)


def _K_inv(roe):
    l1, l2 = roe.lam
    d = l2 - l1
    return _matrix(l2 / d, -1.0 / d, -l1 / d, 1.0 / d)


def _absJ(roe):
    """|J| as the step assembles it."""
    return _matrix(*kernel.abs_jacobian(roe.u, roe.c))


# -- FluxKind -------------------------------------------------------------

def test_flux_kind_rules():
    assert FluxKind("omega", "force").omega(0.9) == 0.5
    assert FluxKind("omega", "gforce").omega(0.9) == pytest.approx(1.0 / 1.9)
    assert FluxKind("omega", "lax-friedrichs").omega(0.5) == 0.0


def test_flux_kind_validation():
    with pytest.raises(ValueError):
        FluxKind("hll")
    with pytest.raises(ValueError):
        FluxKind("omega", "osher")
    for rule in (1.5, 0.3, "lax-wendroff", None):
        with pytest.raises(ValueError):
            FluxKind("omega", rule)
    with pytest.raises(ValueError):
        ROE.omega(0.9)


# -- Roe algebra ----------------------------------------------------------

@given(wet_pairs())
@settings(max_examples=200)
def test_roe_property(pair):
    """F(w_r) - F(w_l) = J (w_r - w_l) for the Roe linearization."""
    (hl, ql), (hr, qr), _, _ = pair
    c = PhysConstants()
    wl, wr = PhysState(hl, ql), PhysState(hr, qr)
    roe = roe_average(wl, wr, c)
    fl = physical_flux(wl, c)
    fr = physical_flux(wr, c)
    j0, j1 = kernel.apply_jacobian(roe.u, roe.c, hr - hl, qr - ql)
    scale = max(1.0, abs(fr[0]), abs(fr[1]))
    assert abs((fr[0] - fl[0]) - j0) <= 1e-12 * scale
    assert abs((fr[1] - fl[1]) - j1) <= 1e-12 * scale


@given(wet_states())
@settings(max_examples=100)
def test_roe_matrix_identities(w):
    """K K^-1 = Id and |J| = K |Lambda| K^-1, assembled explicitly."""
    h, q = w
    roe = roe_average(PhysState(h, q), PhysState(h, q), PhysConstants())
    K, K_inv = _K(roe), _K_inv(roe)
    assert np.allclose(K @ K_inv, np.eye(2), atol=1e-13 * max(1.0, np.abs(K).max()))
    l1, l2 = roe.lam
    absJ_ref = K @ np.diag([abs(l1), abs(l2)]) @ K_inv
    assert np.allclose(_absJ(roe), absJ_ref, atol=1e-12 * max(1.0, np.abs(absJ_ref).max()))
    J_ref = K @ np.diag([l1, l2]) @ K_inv
    assert np.allclose(_J(roe), J_ref, atol=1e-12 * max(1.0, np.abs(J_ref).max()))


def test_roe_absJ_against_eigendecomposition(c):
    """Independent oracle: |J| from numpy's eig of the assembled J."""
    roe = roe_average(PhysState(0.8, 0.9), PhysState(0.3, -0.2), c)
    lam, V = np.linalg.eig(_J(roe))
    absJ_ref = V @ np.diag(np.abs(lam)) @ np.linalg.inv(V)
    assert np.allclose(_absJ(roe), absJ_ref, atol=1e-12)
    v = np.array([0.37, -1.1])
    m00, m01, m10, m11 = kernel.abs_jacobian(roe.u, roe.c)
    assert np.allclose((m00 * v[0] + m01 * v[1], m10 * v[0] + m11 * v[1]), absJ_ref @ v,
                       atol=1e-12)


# -- flux consistency and upwinding ---------------------------------------

@given(wet_states())
@settings(max_examples=200)
def test_roe_flux_consistency(w):
    c = PhysConstants()
    h, q = w
    state = PhysState(h, q)
    F = physical_flux(state, c)
    f = roe_flux(state, state, c)
    assert _rel(f[0], F[0]) <= 1e-14 and _rel(f[1], F[1]) <= 1e-14


@given(wet_states())
@settings(max_examples=200)
def test_omega_flux_consistency(w):
    c = PhysConstants()
    h, q = w
    state = PhysState(h, q)
    F = physical_flux(state, c)
    for omega in (0.0, 0.5, 1.0):
        f = omega_flux(state, state, omega, 0.1, 0.01, c)
        assert _rel(f[0], F[0]) <= 1e-14 and _rel(f[1], F[1]) <= 1e-14


def test_roe_flux_supersonic_upwinds_fully(c):
    """Both eigenvalues positive: the Roe flux is exactly F(w_l)."""
    wl = PhysState(0.2, 0.2 * 3.0)  # u = 3 > sqrt(g*0.2) ~ 1.4
    wr = PhysState(0.25, 0.25 * 3.2)
    roe = roe_average(wl, wr, c)
    assert min(roe.lam) > 0
    f = roe_flux(wl, wr, c)
    F_l = physical_flux(wl, c)
    assert f[0] == pytest.approx(F_l[0], rel=1e-12)
    assert f[1] == pytest.approx(F_l[1], rel=1e-12)


def test_omega_zero_is_lax_friedrichs(c):
    wl, wr = PhysState(0.8, 0.4), PhysState(0.6, -0.1)
    dx, dt = 0.1, 0.01
    f = omega_flux(wl, wr, 0.0, dx, dt, c)
    Fl, Fr = physical_flux(wl, c), physical_flux(wr, c)
    assert f[0] == pytest.approx(0.5 * (Fl[0] + Fr[0]) - 0.5 * dx / dt * (0.6 - 0.8), rel=1e-13)
    assert f[1] == pytest.approx(0.5 * (Fl[1] + Fr[1]) - 0.5 * dx / dt * (-0.1 - 0.4), rel=1e-13)


def test_omega_flux_argument_validation(c):
    w = PhysState(0.5, 0.1)
    with pytest.raises(ValueError):
        omega_flux(w, w, 0.5, -0.1, 0.01, c)
    with pytest.raises(ValueError):
        omega_flux(w, w, 1.5, 0.1, 0.01, c)


# -- dry handling ---------------------------------------------------------

def test_all_dry_interface_raises(c):
    dry = PhysState(0.0, 0.0)
    with pytest.raises(DryInterfaceError):
        roe_flux(dry, dry, c)


def test_dry_interfaces_zeroed_in_arrays(c):
    wl = PhysState(np.array([0.5, 0.0]), np.array([0.1, 0.0]))
    wr = PhysState(np.array([0.4, 0.0]), np.array([0.0, 0.0]))
    f0, f1 = roe_flux(wl, wr, c)
    assert f0[1] == 0.0 and f1[1] == 0.0
    assert f0[0] != 0.0  # the wet interface is untouched
    g0, g1 = omega_flux(wl, wr, 0.5, 0.1, 0.01, c)
    assert g0[1] == 0.0 and g1[1] == 0.0


def test_roe_flux_hand_assembled_interface(c):
    """Single interface against a from-scratch assembly of the formula."""
    wl, wr = PhysState(0.6, 0.3), PhysState(0.4, -0.2)
    sl, sr = np.sqrt(0.6), np.sqrt(0.4)
    u = (sl * (0.3 / 0.6) + sr * (-0.2 / 0.4)) / (sl + sr)
    cel = np.sqrt(c.g * 0.5)
    J = np.array([[0.0, 1.0], [cel**2 - u**2, 2 * u]])
    lam, V = np.linalg.eig(J)
    absJ = V @ np.diag(np.abs(lam)) @ np.linalg.inv(V)
    dw = np.array([0.4 - 0.6, -0.2 - 0.3])
    Fl = np.array(physical_flux(wl, c))
    Fr = np.array(physical_flux(wr, c))
    ref = 0.5 * (Fl + Fr) - 0.5 * absJ @ dw
    f = roe_flux(wl, wr, c)
    assert f[0] == pytest.approx(ref[0], rel=1e-13)
    assert f[1] == pytest.approx(ref[1], rel=1e-13)
