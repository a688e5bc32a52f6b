"""Consistent numerical fluxes for the homogeneous shallow water system.

Roe's linearized flux and the one-parameter centred family (omega = 0
Lax-Friedrichs, omega = 1 Lax-Wendroff, omega = 1/2 FORCE, omega =
1/(1+CFL) GFORCE), plus the Roe interface quantities that the source
treatments reuse.

Object-level adapters over the formulas in ``swelab.kernel``,
elementwise over arrays, on the kernel's two-cell rows
(``two_cell_rows``), so they follow its dry rule: interfaces where both
sides are dry are computed against a dummy wet state and zeroed; a call
whose every interface is dry raises ``DryInterfaceError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swelab import kernel
from swelab.core import PhysConstants, PhysState

# Unused here since the formulas moved to ``kernel``; bound for bench/tracer.py.
from swelab.core import physical_flux, velocity  # noqa: F401

__all__ = ["RoeData", "roe_average", "roe_flux", "omega_flux"]


@dataclass
class RoeData:
    """Roe-averaged interface quantities: the sqrt(h)-weighted velocity
    ``u`` and the celerity ``c`` = sqrt(g (h_l + h_r)/2); eigenvalues are
    u -/+ c with eigenvectors (1, lambda)."""

    u: float | np.ndarray
    c: float | np.ndarray

    @property
    def lam(self):
        return (self.u - self.c, self.u + self.c)


def two_cell_rows(w_l, w_r) -> np.ndarray:
    """``w_l`` and ``w_r``, each a ``PhysState`` (H = 0) or an ``ExtState``,
    as the kernel's two-cell rows: one (3, 2, ...) float array, (h, q, H)
    by (left, right), whose first two rows are ``kernel.flux``'s sides."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (
        w_l.h, w_r.h, w_l.q, w_r.q, getattr(w_l, "H", 0.0), getattr(w_r, "H", 0.0))))
    return np.array(arrays).reshape(3, 2, *arrays[0].shape)


def roe_average(w_l: PhysState, w_r: PhysState, c: PhysConstants) -> RoeData:
    """Roe linearization of the interface (``kernel.interfaces``)."""
    return RoeData(*kernel.sides(two_cell_rows(w_l, w_r)[:2], c.g, c.h_dry)[2])


def roe_flux(w_l: PhysState, w_r: PhysState, c: PhysConstants):
    """Roe flux 1/2 (F_l + F_r) - 1/2 |J| (w_r - w_l)."""
    return tuple(kernel.flux(two_cell_rows(w_l, w_r)[:2], c.g, c.h_dry))


def omega_flux(w_l: PhysState, w_r: PhysState, omega: float, dx: float, dt: float,
               c: PhysConstants):
    """1/2 (F_l + F_r) - 1/2 [(1-omega) dx/dt Id + omega dt/dx J^2] (w_r - w_l)."""
    omega_ab = kernel.omega_coefficients(omega, dx, dt)
    return tuple(kernel.flux(two_cell_rows(w_l, w_r)[:2], c.g, c.h_dry, omega_ab))
