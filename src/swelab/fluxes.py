"""Consistent numerical fluxes for the homogeneous shallow water system.

Roe's linearized flux and the one-parameter centred family (omega = 0
Lax-Friedrichs, omega = 1 Lax-Wendroff, omega = 1/2 FORCE, omega =
1/(1+CFL) GFORCE), plus the Roe interface quantities that the source
treatments reuse.

Object-level adapters over the formulas in ``swelab.kernel``,
elementwise over arrays: interfaces where both sides are dry are
computed against a dummy wet state and zeroed; a call whose every
interface is dry raises ``DryInterfaceError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swelab import kernel
from swelab.core import PhysConstants, PhysState, velocity

# Unused here since the formulas moved to ``kernel``; bound for bench/tracer.py.
from swelab.core import physical_flux  # noqa: F401

__all__ = ["FluxKind", "ROE", "RoeData", "roe_average", "roe_flux", "omega_flux"]

_OMEGA_RULES = {
    "force": lambda cfl: 0.5,
    "gforce": lambda cfl: 1.0 / (1.0 + cfl),
    "lax-friedrichs": lambda cfl: 0.0,
}


@dataclass(frozen=True)
class FluxKind:
    """Flux selector: 'roe', or 'omega' with a named rule for omega(CFL)."""

    name: str
    rule: str | None = None

    def __post_init__(self):
        if self.name not in ("roe", "omega"):
            raise ValueError(f"unknown flux kind {self.name!r}")
        if self.name == "omega" and self.rule not in _OMEGA_RULES:
            raise ValueError(f"unknown omega rule {self.rule!r}")

    def omega(self, cfl: float) -> float:
        if self.name != "omega":
            raise ValueError("omega() only makes sense for the centred family")
        return _OMEGA_RULES[self.rule](cfl)


ROE = FluxKind("roe")


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


def _arrays(w_l: PhysState, w_r: PhysState):
    return tuple(np.asarray(a, dtype=float) for a in (w_l.h, w_l.q, w_r.h, w_r.q))


def roe_average(w_l: PhysState, w_r: PhysState, c: PhysConstants) -> RoeData:
    """Roe linearization of the interface (``kernel.roe_mean``)."""
    hl, ql, hr, qr, _ = kernel.wet_pairs(*_arrays(w_l, w_r), c.h_dry)
    ul, ur = velocity(PhysState(hl, ql), c), velocity(PhysState(hr, qr), c)
    return RoeData(*kernel.roe_mean(hl, hr, ul, ur, c.g))


def roe_flux(w_l: PhysState, w_r: PhysState, c: PhysConstants):
    """Roe flux 1/2 (F_l + F_r) - 1/2 |J| (w_r - w_l)."""
    return kernel.flux(*_arrays(w_l, w_r), c.g, c.h_dry)[0]


def omega_flux(w_l: PhysState, w_r: PhysState, omega: float, dx: float, dt: float,
               c: PhysConstants):
    """1/2 (F_l + F_r) - 1/2 [(1-omega) dx/dt Id + omega dt/dx J^2] (w_r - w_l)."""
    omega_ab = kernel.omega_coefficients(omega, dx, dt)
    return kernel.flux(*_arrays(w_l, w_r), c.g, c.h_dry, omega_ab)[0]
