"""Upwind splittings of the topography source term.

The interface source g h dH/dx is split into a part S- applied to the
left cell and S+ applied to the right cell. Two families are provided:
the Roe projection splitting (characteristic upwinding) and the
splitting that pairs with the omega centred fluxes.

Both families are path-conservative along straight segments: S+ + S-
equals (0, g (h_l + h_r)/2 (H_r - H_l)), the exact straight-segment
integral of the source, and both parts vanish when the two states
coincide.

The literature prints the omega splitting without a 1/2 on either term.
That transcription, exactly twice the splitting used here, fails the
water-at-rest fixed-point check; the same expression with a 1/2 on both
the centred part and the upwinding part (mirroring the 1/2 in the flux)
passes it exactly. Through sonic points J^-1 is replaced by the inverse
of the zero-velocity matrix J* = [[0, 1], [c^2, 0]], which is never
singular. The printed regularized inverse (1/mu) [[0, 1], [c^2, 2u]]
does not tend to J^-1 away from the sonic point and breaks water at
rest too, so it is not offered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swelab.core import ExtState, PhysConstants
from swelab.fluxes import roe_average

__all__ = [
    "SourceSplit",
    "lambda_floor",
    "roe_source_split",
    "omega_source_split",
    "path_source_trapezoid",
    "resolved_split_form",
]


@dataclass
class SourceSplit:
    """S- goes to the interface's left cell, S+ to the right cell.

    Each part is a length-2 component tuple (mass, momentum); the mass
    component is identically zero.
    """

    minus: tuple
    plus: tuple


def lambda_floor(u, c):
    """Scale-relative threshold below which an eigenvalue counts as zero."""
    return 1e-8 * np.maximum(1.0, np.abs(u) + c)


def roe_source_split(W_l: ExtState, W_r: ExtState, c: PhysConstants) -> SourceSplit:
    """Characteristic splitting S+- = 1/2 (Id +- |J| J^-1) (0, c^2) dH.

    The projection sends the whole source downstream when the flow is
    supersonic and splits it across both cells otherwise. At a sonic
    interface J is singular; the eigenvalue signs are regularized at
    ``lambda_floor`` so the parts stay finite.
    """
    dH = np.asarray(W_r.H, float) - np.asarray(W_l.H, float)
    roe = roe_average(W_l.state, W_r.state, c)
    floor = lambda_floor(roe.u, roe.c)
    c2 = roe.c * roe.c
    up0, up1 = roe.sign_matrix_source(floor)
    minus = (0.5 * (0.0 - up0 * dH), 0.5 * (c2 * dH - up1 * dH))
    plus = (0.5 * (0.0 + up0 * dH), 0.5 * (c2 * dH + up1 * dH))
    return SourceSplit(minus=minus, plus=plus)


def omega_source_split(W_l: ExtState, W_r: ExtState, omega: float, dx: float, dt: float,
                       c: PhysConstants) -> SourceSplit:
    """Splitting paired with the omega centred flux.

    S+- = 1/2 [(0, c^2 dH) +- ((1-omega) dx/dt (J*)^-1 + omega dt/dx J) (0, c^2 dH)],
    with the zero-velocity inverse (J*)^-1 (0, c^2 dH) = (dH, 0) (see the
    module docstring).
    """
    if not (dx > 0 and dt > 0):
        raise ValueError("dx and dt must be positive")
    dH = np.asarray(W_r.H, float) - np.asarray(W_l.H, float)
    roe = roe_average(W_l.state, W_r.state, c)
    u, cel = np.asarray(roe.u, float), np.asarray(roe.c, float)
    c2 = cel * cel
    # J and (J*)^-1 applied to (0, c^2 dH)
    jS0 = c2 * dH
    jS1 = 2.0 * u * c2 * dH
    iS0 = dH + np.zeros_like(jS0)
    iS1 = np.zeros_like(jS0)
    a = (1.0 - omega) * dx / dt
    b = omega * dt / dx
    up0 = a * iS0 + b * jS0
    up1 = a * iS1 + b * jS1
    minus = (0.5 * (0.0 - up0), 0.5 * (c2 * dH - up1))
    plus = (0.5 * (0.0 + up0), 0.5 * (c2 * dH + up1))
    return SourceSplit(minus=minus, plus=plus)


def path_source_trapezoid(W_l: ExtState, W_r: ExtState, c: PhysConstants):
    """Exact straight-segment integral of the source, (0, g (h_l+h_r)/2 dH).

    This is the oracle for the S+ + S- sum identities.
    """
    hl = np.asarray(W_l.h, float)
    hr = np.asarray(W_r.h, float)
    dH = np.asarray(W_r.H, float) - np.asarray(W_l.H, float)
    return np.zeros_like(hl + dH), c.g * 0.5 * (hl + hr) * dH


def resolved_split_form() -> str:
    """The omega-splitting form every run uses, recorded in run reports."""
    return "half"
