"""Error metrics, well-balance residuals, entropy checks, convergence.

The entropy machinery works with the pair (eta~, G~) that includes the
-g h H topography shift. The sufficient interface condition checked
here is the E_l >= 0, E_r <= 0 criterion for reconstruction-based
schemes written in one-sided flux form F-+ = F + (0, p-corrections + T);
our source splits map onto that form with T^- = -T_minus and
T^+ = +T_plus, where T_minus/T_plus are the corrections as returned by
``modified_hr_corrections`` (zero for the original reconstruction).

The global production diagnostic sums the per-cell entropy change and
closes the telescoping interior fluxes with certified one-sided bounds
at the two boundary interfaces, so a semi-discrete entropy satisfying
scheme reports a nonpositive number without ever constructing the
numerical entropy flux itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from swelab.core import (ExtState, PhysConstants, PhysState, cell_velocity, entropy_pair,
                         physical_flux, velocity)
from swelab.kernel import hr_depths, pressure
from swelab.solver import (
    BoundaryCondition,
    Grid,
    SchemeConfig,
    SimSpec,
    SimState,
    StepInfo,
    cfl_dt,
    run,
    step,
)

__all__ = [
    "EntropyCheck",
    "ConvergenceRow",
    "l1_error",
    "well_balance_residual",
    "entropy_interface_check",
    "entropy_production_total",
    "convergence_study",
]

_ENTROPY_TOL = 1e-12


@dataclass
class EntropyCheck:
    """Outcome of the sufficient interface condition E_l >= 0 >= E_r."""

    E_l: float | np.ndarray
    E_r: float | np.ndarray
    H_star_used: float | np.ndarray
    satisfied: bool | np.ndarray


@dataclass(frozen=True)
class ConvergenceRow:
    n_cells: int
    l1_error: float
    met_bound: bool


def l1_error(h_num, h_exact, dx: float) -> float:
    """dx * sum |h_num - h_exact| over matching cell arrays."""
    a = np.asarray(h_num, dtype=float)
    b = np.asarray(h_exact, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(dx * np.sum(np.abs(a - b)))


def well_balance_residual(state: SimState, cfg: SchemeConfig, c: PhysConstants) -> float:
    """Max one-step update magnitude |dh| + |dq| at dt = cfl_dt.

    One step on a unit-dx grid with open boundaries; zero (to round-off)
    exactly on the scheme's discrete steady states.
    """
    grid = Grid(0.0, float(len(state.h)), len(state.h))
    bc = BoundaryCondition()
    dt = cfl_dt(state, cfg, grid, c)
    after, _ = step(state, cfg, grid, bc, bc, dt, c)
    return float(np.max(np.abs(after.h - state.h) + np.abs(after.q - state.q)))


def entropy_interface_check(hl, ql, Hl, hr, qr, Hr, F, c: PhysConstants, T_minus=0.0,
                            T_plus=0.0, tol: float = _ENTROPY_TOL) -> EntropyCheck:
    """Evaluate the sufficient entropy condition between the cells (hl, ql, Hl)
    and (hr, qr, Hr), reconstructed as the scheme does (``kernel.hr_depths``).

    ``F`` is the homogeneous flux pair (F^h, F^q) evaluated at the
    reconstructed states; ``T_minus``/``T_plus`` are the large-step
    corrections of the modified reconstruction (leave at zero for the
    original one).

    E_l = F^h (g(h_l - h*_l - H_l + H*) + (u*_l)^2/2 - u_l^2/2)
          + (u_l - u*_l)(F^q - p(h*_l)) - u_l T_minus,
    E_r = F^h (g(h_r - h*_r - H_r + H*) + (u*_r)^2/2 - u_r^2/2)
          + (u_r - u*_r)(F^q - p(h*_r)) + u_r T_plus,

    satisfied iff E_l >= -tol and E_r <= +tol.
    """
    g = c.g
    Fh = np.asarray(F[0], float)
    Fq = np.asarray(F[1], float)
    hl, ql, Hl, hr, qr, Hr = (np.asarray(a, float) for a in (hl, ql, Hl, hr, qr, Hr))
    Hs, hm, hp, _ = hr_depths(hl, Hl, hr, Hr)
    ul, ur = cell_velocity(hl, ql, c.h_dry), cell_velocity(hr, qr, c.h_dry)
    um, up = cell_velocity(hm, hm * ul, c.h_dry), cell_velocity(hp, hp * ur, c.h_dry)
    E_l = (
        Fh * (g * (hl - hm - Hl + Hs) + 0.5 * um * um - 0.5 * ul * ul)
        + (ul - um) * (Fq - pressure(hm, g))
        - ul * np.asarray(T_minus, float)
    )
    E_r = (
        Fh * (g * (hr - hp - Hr + Hs) + 0.5 * up * up - 0.5 * ur * ur)
        + (ur - up) * (Fq - pressure(hp, g))
        + ur * np.asarray(T_plus, float)
    )
    return EntropyCheck(E_l=E_l, E_r=E_r, H_star_used=Hs + np.zeros_like(E_l),
                        satisfied=(E_l >= -tol) & (E_r <= tol))


def entropy_production_total(before: SimState, after: SimState, dt: float, dx: float,
                             c: PhysConstants, info: StepInfo) -> float:
    """Global entropy production of the step that ``info`` describes.

    sum_i (eta~(after_i) - eta~(before_i)) dx/dt + (G_right - G_left),

    closed with the step's ghosts and one-sided fluxes F- (leftmost
    interface) / F+ (rightmost): G_right is replaced by its certified
    lower bound and G_left by its certified upper bound, so the reported
    value is a lower bound on the true production and is nonpositive
    for any semi-discrete entropy satisfying scheme.
    """
    eb = entropy_pair(ExtState(PhysState(before.h, before.q), before.H), c)
    ea = entropy_pair(ExtState(PhysState(after.h, after.q), after.H), c)
    interior = float(np.sum(np.asarray(ea.eta) - np.asarray(eb.eta)) * dx / dt)

    def boundary_G(ghost, flux):
        # G + grad_w eta~ . (flux - F(ghost)), with grad_w eta~ = (g (h - H) - u^2/2, u)
        h, q, H = ghost
        W = ExtState(PhysState(h, q), H)
        Fg = physical_flux(W.state, c)
        u = velocity(W.state, c)
        dot = (c.g * (h - H) - 0.5 * u * u) * (flux[0] - Fg[0]) + u * (flux[1] - Fg[1])
        return float(entropy_pair(W, c).G + dot)

    return interior + (boundary_G(info.ghosts[1], info.right_flux)
                       - boundary_G(info.ghosts[0], info.left_flux))


def convergence_study(spec_family: Callable[[int], SimSpec], cfg: SchemeConfig,
                      exact: Callable[[np.ndarray], np.ndarray], bound: float,
                      meshes: Sequence[int], c: PhysConstants = PhysConstants(),
                      max_workers: int = 1):
    """L1(h) error against an exact profile over a mesh ladder.

    Each mesh runs its SimSpec to its stop rule, one after another on
    the calling thread; the error is measured on the final state against
    ``exact`` sampled at the cell centers. Returns (rows, cells_needed),
    with cells_needed = None when no mesh meets the bound.
    ``max_workers`` accepts only 1: threads were measured slower than
    the serial loop, and the name stays for callers that pass it.
    """
    if max_workers != 1:
        raise ValueError(f"max_workers must be 1 (runs are serial), got {max_workers!r}")
    if not 0.0 < bound < np.inf:  # NaN or a bound no error can meet would run every mesh
        raise ValueError(f"the error bound must be finite and > 0, got {bound}")
    rows = []
    for n in meshes:
        spec = spec_family(n)
        rep = run(spec, cfg, c)
        x = spec.grid.centers()
        err = l1_error(rep.final.h, exact(x), spec.grid.dx)
        rows.append(ConvergenceRow(n_cells=n, l1_error=err, met_bound=err <= bound))
    cells_needed = next((r.n_cells for r in rows if r.met_bound), None)
    return rows, cells_needed
