"""Hydrostatic reconstruction (HR) and its large-step modification.

HR redefines the two interface states at the level H* = min(H_l, H_r)
so that any consistent homogeneous flux becomes well balanced for water
at rest, at the price of pressure corrections p(h) = g h^2 / 2 in the
source split. When one cell's free surface lies below the other cell's
bottom level ("large step"), the reconstruction clips at zero and the
original scheme stops seeing the step height; the modified variant adds
the corrections T+- that restore the straight-segment source integral
over the full step, gated by a mechanical-energy criterion in emerging
bottom configurations.

Sign convention: the split used here makes S- the source-path integral
of the left reconstruction segment and S+ that of the right segment,
which is the orientation forced by the water-at-rest fixed point.

The formulas live in ``swelab.kernel``; these adapters call it on the
two-cell rows of their interfaces (``fluxes.two_cell_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from swelab import kernel
from swelab.core import ExtState, PhysConstants, PhysState, velocity
from swelab.fluxes import two_cell_rows
from swelab.kernel import GATE_POLICIES, pressure
from swelab.sources import SourceSplit

# Unused here since the formulas moved to ``kernel``; bound for bench/tracer.py.
from swelab.fluxes import omega_flux, roe_flux  # noqa: F401

__all__ = [
    "HRInterface",
    "HRCorrections",
    "pressure",
    "hr_reconstruct",
    "modified_hr_corrections",
    "hr_interface_terms",
    "GATE_POLICIES",
]


@dataclass
class HRInterface:
    """Reconstructed interface: bottom level, one-sided states, large-step flags."""

    H_star: float | np.ndarray
    w_minus: PhysState
    w_plus: PhysState
    large_step: bool | np.ndarray


@dataclass
class HRCorrections:
    """Momentum corrections added to the HR source split, zero outside large
    steps, and where the energy gate let the fluid climb an emerging bottom."""

    T_minus: float | np.ndarray
    T_plus: float | np.ndarray
    gate_applied: bool | np.ndarray


def hr_reconstruct(W_l: ExtState, W_r: ExtState, c: PhysConstants) -> HRInterface:
    """One-sided states at H* = min(H_l, H_r) with the donor-cell
    velocities; see ``kernel.hr_depths``."""
    (hl, hr), _, (Hl, Hr) = two_cell_rows(W_l, W_r)
    H_star, (hm, hp), large = kernel.hr_depths(hl, Hl, hr, Hr)
    ul, ur = velocity(W_l.state, c), velocity(W_r.state, c)
    return HRInterface(H_star, PhysState(hm, hm * ul), PhysState(hp, hp * ur), large)


def modified_hr_corrections(W_l: ExtState, W_r: ExtState, gate: str,
                            c: PhysConstants) -> HRCorrections:
    """Large-step corrections T+- (``kernel.large_step_corrections``) on the
    reconstruction of the two states (``kernel.hr_depths``), zero outside
    large steps; the gate keeps rest against a dry bank."""
    h, _, H = two_cell_rows(W_l, W_r)  # the kernel's rows: one interface per column
    hl, hr = h[:-1], h[1:]
    ul, ur = velocity(W_l.state, c), velocity(W_r.state, c)
    Hl, Hr, _, dH = kernel.hydrostatic_bottom(H, True)
    recon, k = kernel.hr_depths(hl, Hl, hr, Hr), kernel.Constants(c)
    T, gated = kernel.large_step_corrections(
        hl, ul, Hl, hr, ur, Hr, recon, kernel.hr_source(h, recon[1], k), dH, k, gate)
    return HRCorrections(T[0, 0], T[1, 0], gated[0])


def hr_interface_terms(W_l: ExtState, W_r: ExtState, cfg, c: PhysConstants,
                       dx: float | None = None, dt: float | None = None):
    """The interface terms of the HR scheme that the ``solver.SchemeConfig``
    ``cfg`` picks (``kernel.hydrostatic``); an omega flux needs ``dx`` and ``dt``.

    Returns (flux pair, SourceSplit); interfaces dry on both sides carry zeros.
    """
    if cfg.source not in ("hr", "modified-hr"):
        raise ValueError(f"source {cfg.source!r} is not a hydrostatic reconstruction")
    if cfg.flux != "roe" and (dx is None or dt is None):
        raise ValueError("omega fluxes need dx and dt")
    F, minus, plus = kernel.hydrostatic(
        two_cell_rows(W_l, W_r), kernel.Constants(c), cfg.source == "modified-hr", cfg.gate,
        kernel.omega_weights(cfg.flux, cfg.cfl, dx, dt))
    zero = np.zeros_like(minus[0])
    return tuple(F[:, 0]), SourceSplit(minus=(zero, minus[0]), plus=(zero, plus[0]))
