"""Upwind splittings of the topography source term.

The interface source g h dH/dx is split into S- for the left cell and
S+ for the right cell, by Roe projection (characteristic upwinding) or
by the splitting paired with the omega centred fluxes. Both are
path-conservative along straight segments, S+ + S- = (0, g (h_l + h_r)/2
(H_r - H_l)), and both parts vanish when the two states coincide.

The literature prints the omega splitting without a 1/2 on either term.
That transcription, exactly twice the splitting used here, fails the
water-at-rest fixed-point check; with a 1/2 on both the centred and the
upwinding part (mirroring the flux) it passes exactly. Through sonic
points J^-1 is replaced by the inverse of the zero-velocity matrix
J* = [[0, 1], [c^2, 0]], which is never singular. The printed
regularized inverse (1/mu) [[0, 1], [c^2, 2u]] does not tend to J^-1
away from the sonic point and breaks water at rest too.

The formulas live in ``swelab.kernel``; these are object-level adapters,
each one ``kernel.upwind`` call on the two-cell rows of its interfaces,
so an interface with no wet side carries zero sources, as in the step.
"""

from __future__ import annotations

from dataclasses import dataclass

from swelab import kernel
from swelab.core import ExtState, PhysConstants
from swelab.fluxes import two_cell_rows
from swelab.kernel import lambda_floor

# An object-level function this module no longer calls, bound for bench/tracer.py.
from swelab.fluxes import roe_average  # noqa: F401

__all__ = [
    "SourceSplit",
    "lambda_floor",
    "roe_source_split",
    "omega_source_split",
    "resolved_split_form",
]


@dataclass
class SourceSplit:
    """S- goes to the interface's left cell, S+ to the right cell, each a
    (mass, momentum) tuple; the two mass components sum to zero."""

    minus: tuple
    plus: tuple


def roe_source_split(W_l: ExtState, W_r: ExtState, c: PhysConstants) -> SourceSplit:
    """Characteristic splitting S+- = 1/2 (Id +- |J| J^-1) (0, c^2) dH: all
    downstream when supersonic, eigenvalue signs floored at sonic points."""
    _, minus, plus = kernel.upwind(two_cell_rows(W_l, W_r), kernel.Constants(c))
    return SourceSplit(minus=tuple(minus[:, 0]), plus=tuple(plus[:, 0]))


def omega_source_split(W_l: ExtState, W_r: ExtState, omega: float, dx: float, dt: float,
                       c: PhysConstants) -> SourceSplit:
    """S+- = 1/2 [(0, c^2 dH) +- ((1-omega) dx/dt (J*)^-1 + omega dt/dx J) (0, c^2 dH)]."""
    omega_ab = kernel.omega_coefficients(omega, dx, dt)
    _, minus, plus = kernel.upwind(two_cell_rows(W_l, W_r), kernel.Constants(c), omega_ab)
    return SourceSplit(minus=tuple(minus[:, 0]), plus=tuple(plus[:, 0]))


def resolved_split_form() -> str:
    """The omega-splitting form every run uses, recorded in run reports."""
    return "half"
