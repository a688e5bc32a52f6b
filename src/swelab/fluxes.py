"""Consistent numerical fluxes for the homogeneous shallow water system.

Roe's linearized flux and the one-parameter centred family (omega = 0
Lax-Friedrichs, omega = 1 Lax-Wendroff, omega = 1/2 FORCE, omega =
1/(1+CFL) GFORCE), plus the Roe interface quantities that the source
treatments reuse.

Everything is elementwise over arrays. Interfaces where both sides are
dry are computed against a dummy wet state and zeroed afterwards; a
call whose every interface is dry raises ``DryInterfaceError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swelab.core import DryInterfaceError, PhysConstants, PhysState, physical_flux, velocity

__all__ = ["FluxKind", "ROE", "RoeData", "roe_average", "roe_flux", "omega_flux"]

_OMEGA_RULES = {
    "force": lambda cfl: 0.5,
    "gforce": lambda cfl: 1.0 / (1.0 + cfl),
    "lax-friedrichs": lambda cfl: 0.0,
    "lax-wendroff": lambda cfl: 1.0,
}


@dataclass(frozen=True)
class FluxKind:
    """Flux selector: 'roe', or 'omega' with a rule name or a number in [0, 1]."""

    name: str
    rule: str | float | None = None

    def __post_init__(self):
        if self.name not in ("roe", "omega"):
            raise ValueError(f"unknown flux kind {self.name!r}")
        if self.name == "omega":
            if isinstance(self.rule, str):
                if self.rule not in _OMEGA_RULES:
                    raise ValueError(f"unknown omega rule {self.rule!r}")
            elif self.rule is None or not 0.0 <= float(self.rule) <= 1.0:
                raise ValueError("omega must lie in [0, 1]")

    def omega(self, cfl: float) -> float:
        if self.name != "omega":
            raise ValueError("omega() only makes sense for the centred family")
        if isinstance(self.rule, str):
            return _OMEGA_RULES[self.rule](cfl)
        return float(self.rule)


ROE = FluxKind("roe")


@dataclass
class RoeData:
    """Roe-averaged interface quantities.

    ``u`` and ``c`` are the square-root-weighted velocity and the
    celerity sqrt(g (h_l + h_r)/2); eigenvalues are u -/+ c with
    eigenvectors (1, lambda). The matrix properties build stacked
    (..., 2, 2) arrays from the closed 2x2 forms; the apply_* methods
    are the allocation-light paths used by the schemes.
    """

    u: float | np.ndarray
    c: float | np.ndarray

    @property
    def lam(self):
        return (self.u - self.c, self.u + self.c)

    @property
    def J(self):
        u, c = np.broadcast_arrays(np.asarray(self.u, float), np.asarray(self.c, float))
        z = np.zeros_like(u)
        return np.stack(
            [np.stack([z, z + 1.0], -1), np.stack([c * c - u * u, 2.0 * u], -1)], -2
        )

    @property
    def K(self):
        l1, l2 = self.lam
        l1, l2 = np.broadcast_arrays(np.asarray(l1, float), np.asarray(l2, float))
        one = np.ones_like(l1)
        return np.stack([np.stack([one, one], -1), np.stack([l1, l2], -1)], -2)

    @property
    def K_inv(self):
        l1, l2 = self.lam
        l1, l2 = np.broadcast_arrays(np.asarray(l1, float), np.asarray(l2, float))
        d = l2 - l1
        one = np.ones_like(l1)
        return np.stack(
            [np.stack([l2 / d, -one / d], -1), np.stack([-l1 / d, one / d], -1)], -2
        )

    @property
    def absJ(self):
        m00, m01, m10, m11 = self._abs_components()
        m00, m01, m10, m11 = np.broadcast_arrays(
            *(np.asarray(m, float) for m in (m00, m01, m10, m11))
        )
        return np.stack([np.stack([m00, m01], -1), np.stack([m10, m11], -1)], -2)

    def _abs_components(self):
        l1, l2 = self.lam
        a, b = np.abs(l1), np.abs(l2)
        d = 2.0 * self.c  # l2 - l1
        return (a * l2 - b * l1) / d, (b - a) / d, l1 * l2 * (a - b) / d, (b * l2 - a * l1) / d

    def apply_J(self, v0, v1):
        """J @ (v0, v1)."""
        u, c = self.u, self.c
        return v1, (c * c - u * u) * v0 + 2.0 * u * v1

    def apply_absJ(self, v0, v1):
        """|J| @ (v0, v1), |J| = K |Lambda| K^-1."""
        m00, m01, m10, m11 = self._abs_components()
        return m00 * v0 + m01 * v1, m10 * v0 + m11 * v1

    def sign_matrix_source(self, lam_floor):
        """|J| J^-1 applied to (0, c^2), i.e. c^2 K sgn(Lambda) K^-1 e2.

        Eigenvalue signs are regularized as lam / max(|lam|, floor) so
        the result stays finite through sonic interfaces.
        """
        l1, l2 = self.lam
        s1 = l1 / np.maximum(np.abs(l1), lam_floor)
        s2 = l2 / np.maximum(np.abs(l2), lam_floor)
        d = 2.0 * self.c
        c2 = self.c * self.c
        return c2 * (s2 - s1) / d, c2 * (s2 * l2 - s1 * l1) / d


def _sanitize_pair(w_l: PhysState, w_r: PhysState, c: PhysConstants):
    """Dummy-wet substitution for interfaces that are dry on both sides."""
    hl = np.asarray(w_l.h, dtype=float)
    hr = np.asarray(w_r.h, dtype=float)
    wet = (hl > c.h_dry) | (hr > c.h_dry)
    if not np.any(wet):
        raise DryInterfaceError("dry interface")
    if np.all(wet):
        return w_l, w_r, None
    hl = np.where(wet, hl, 1.0)
    hr = np.where(wet, hr, 1.0)
    ql = np.where(wet, np.asarray(w_l.q, float), 0.0)
    qr = np.where(wet, np.asarray(w_r.q, float), 0.0)
    return PhysState(hl, ql), PhysState(hr, qr), wet


def roe_average(w_l: PhysState, w_r: PhysState, c: PhysConstants) -> RoeData:
    """Roe linearization of the interface.

    Velocity is the sqrt(h)-weighted average, the celerity uses the
    arithmetic depth mean; together they satisfy the Roe property
    F(w_r) - F(w_l) = J (w_r - w_l).
    """
    w_l, w_r, _ = _sanitize_pair(w_l, w_r, c)
    sl = np.sqrt(np.asarray(w_l.h, dtype=float))
    sr = np.sqrt(np.asarray(w_r.h, dtype=float))
    ul = velocity(w_l, c)
    ur = velocity(w_r, c)
    u = (sl * ul + sr * ur) / (sl + sr)
    cel = np.sqrt(c.g * 0.5 * (np.asarray(w_l.h, float) + np.asarray(w_r.h, float)))
    return RoeData(u=u, c=cel)


def roe_flux(w_l: PhysState, w_r: PhysState, c: PhysConstants):
    """Roe flux 1/2 (F_l + F_r) - 1/2 |J| (w_r - w_l)."""
    w_l, w_r, wet = _sanitize_pair(w_l, w_r, c)
    roe = roe_average(w_l, w_r, c)
    fl0, fl1 = physical_flux(w_l, c)
    fr0, fr1 = physical_flux(w_r, c)
    d0 = np.asarray(w_r.h, float) - np.asarray(w_l.h, float)
    d1 = np.asarray(w_r.q, float) - np.asarray(w_l.q, float)
    v0, v1 = roe.apply_absJ(d0, d1)
    f0 = 0.5 * (fl0 + fr0) - 0.5 * v0
    f1 = 0.5 * (fl1 + fr1) - 0.5 * v1
    if wet is not None:
        f0 = np.where(wet, f0, 0.0)
        f1 = np.where(wet, f1, 0.0)
    return f0, f1


def omega_flux(w_l: PhysState, w_r: PhysState, omega: float, dx: float, dt: float,
               c: PhysConstants):
    """Centred flux minus the omega-blended viscosity.

    1/2 (F_l + F_r) - 1/2 [(1-omega) dx/dt Id + omega dt/dx J^2] (w_r - w_l).
    """
    if not (dx > 0 and dt > 0):
        raise ValueError("dx and dt must be positive")
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")
    w_l, w_r, wet = _sanitize_pair(w_l, w_r, c)
    roe = roe_average(w_l, w_r, c)
    fl0, fl1 = physical_flux(w_l, c)
    fr0, fr1 = physical_flux(w_r, c)
    d0 = np.asarray(w_r.h, float) - np.asarray(w_l.h, float)
    d1 = np.asarray(w_r.q, float) - np.asarray(w_l.q, float)
    j0, j1 = roe.apply_J(d0, d1)
    jj0, jj1 = roe.apply_J(j0, j1)
    a = (1.0 - omega) * dx / dt
    b = omega * dt / dx
    f0 = 0.5 * (fl0 + fr0) - 0.5 * (a * d0 + b * jj0)
    f1 = 0.5 * (fl1 + fr1) - 0.5 * (a * d1 + b * jj1)
    if wet is not None:
        f0 = np.where(wet, f0, 0.0)
        f1 = np.where(wet, f1, 0.0)
    return f0, f1
