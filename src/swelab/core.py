"""Physical model of the 1D shallow water system.

States, fluxes, eigenstructure, Riemann invariants of the stationary
(bottom) field, the entropy pair, and exact stationary-solution oracles.

Conventions used throughout the package:

* ``h`` is the water thickness, ``q = h u`` the discharge.
* ``H`` is the bottom DEPTH, measured positive downward from the
  reference level; the bottom elevation is ``z = -H`` and the free
  surface sits at ``eta = h - H``.
* With these signs the momentum source is ``+ g h dH/dx``.

All operations accept scalars or numpy arrays (broadcast elementwise);
the oracles ``exact_step_state`` / ``exact_smooth_profile`` are scalar
root-finding routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SWEError",
    "DryStateError",
    "DryInterfaceError",
    "NoAdmissibleRootError",
    "TranscriticalProfileError",
    "NearCriticalError",
    "PhysConstants",
    "PhysState",
    "ExtState",
    "EntropyValues",
    "velocity",
    "physical_flux",
    "eigenvalues",
    "froude_squared",
    "riemann_invariant",
    "entropy_pair",
    "invariant_depth_function",
    "critical_depth",
    "solve_invariant_depth",
    "exact_step_state",
    "exact_smooth_profile",
]


class SWEError(Exception):
    """Base class for model-level failures."""


class DryStateError(SWEError):
    """An operation that needs a wet state received a dry one."""


class DryInterfaceError(SWEError):
    """Both sides of an interface are dry."""


class NoAdmissibleRootError(SWEError):
    """The stationary invariant equation has no positive root."""


class TranscriticalProfileError(SWEError):
    """A smooth stationary profile would have to cross the critical state."""


class NearCriticalError(SWEError):
    """Branch selection is ambiguous: the reference state is near-critical."""


@dataclass(frozen=True)
class PhysConstants:
    """Gravity and the dry-cell threshold.

    ``h_dry`` defaults to 1e-8 m, far below every benchmark's depth
    scale (>= 0.02 m).
    """

    g: float = 9.81
    h_dry: float = 1e-8

    def __post_init__(self):
        if not self.g > 0:
            raise ValueError(f"g must be positive, got {self.g}")
        if not 0 < self.h_dry < 1e-2:
            raise ValueError(f"h_dry must be a small positive value, got {self.h_dry}")


@dataclass(frozen=True)
class PhysState:
    """Conserved pair (thickness h, discharge q) on one cell.

    Fields may be scalars or equally-shaped arrays.
    """

    h: float | np.ndarray
    q: float | np.ndarray


@dataclass(frozen=True)
class ExtState:
    """Physical state plus the local bottom depth H."""

    state: PhysState
    H: float | np.ndarray

    @property
    def h(self):
        return self.state.h

    @property
    def q(self):
        return self.state.q

    @property
    def eta(self):
        """Free-surface elevation h - H."""
        return self.state.h - self.H


@dataclass(frozen=True)
class EntropyValues:
    """Entropy density and entropy flux (the pair including the -g h H shift)."""

    eta: float | np.ndarray
    G: float | np.ndarray


def _scalarize(*vals):
    out = tuple(float(v) if np.ndim(v) == 0 else v for v in vals)
    return out if len(out) > 1 else out[0]


def _check_nonnegative_depth(h):
    if np.any(np.asarray(h) < 0):
        raise ValueError("negative water thickness")


def velocity(w: PhysState, c: PhysConstants):
    """Depth-averaged velocity q/h; exactly zero at and below the dry threshold."""
    h = np.asarray(w.h, dtype=float)
    q = np.asarray(w.q, dtype=float)
    u = np.where(h > c.h_dry, q / np.maximum(h, c.h_dry), 0.0)
    return _scalarize(u)


def physical_flux(w: PhysState, c: PhysConstants):
    """Exact flux (q, q^2/h + g h^2 / 2); the dry state maps to (0, 0)."""
    _check_nonnegative_depth(w.h)
    h = np.asarray(w.h, dtype=float)
    q = np.asarray(w.q, dtype=float)
    u = np.where(h > 0, q / np.maximum(h, 1e-300), 0.0)
    return _scalarize(q * np.where(h > 0, 1.0, 0.0), q * u + 0.5 * c.g * h * h)


def eigenvalues(w: PhysState, c: PhysConstants):
    """Characteristic speeds (u - sqrt(g h), u + sqrt(g h)).

    The third, identically-zero eigenvalue of the extended (h, q, H)
    system is implicit. Dry states return (0, 0).
    """
    _check_nonnegative_depth(w.h)
    u = np.asarray(velocity(w, c))
    cel = np.sqrt(c.g * np.asarray(w.h, dtype=float))
    return _scalarize(u - cel, u + cel)


def froude_squared(w: PhysState, c: PhysConstants):
    """Square of the Froude number, u^2 / (g h). Rejects dry input."""
    h = np.asarray(w.h, dtype=float)
    if np.any(h <= c.h_dry):
        raise DryStateError("froude_squared needs a wet state")
    u = np.asarray(w.q, dtype=float) / h
    return _scalarize(u * u / (c.g * h))


def riemann_invariant(W: ExtState, c: PhysConstants):
    """Invariants of the stationary contact: (q, h + q^2/(2 g h^2) - H)."""
    h = np.asarray(W.h, dtype=float)
    if np.any(h <= c.h_dry):
        raise DryStateError("riemann_invariant needs a wet state")
    q = np.asarray(W.q, dtype=float)
    return _scalarize(q + 0.0, h + q * q / (2.0 * c.g * h * h) - W.H)


def entropy_pair(W: ExtState, c: PhysConstants) -> EntropyValues:
    """Entropy density h u^2/2 + g h^2/2 - g h H and flux (u^2/2 + g h) h u - g h u H.

    Dry states map to (0, 0); every term of the flux carries u, so G
    vanishes whenever q = 0.
    """
    h = np.asarray(W.h, dtype=float)
    q = np.asarray(W.q, dtype=float)
    u = np.where(h > 0, q / np.maximum(h, 1e-300), 0.0)
    eta = 0.5 * h * u * u + 0.5 * c.g * h * h - c.g * h * np.asarray(W.H, dtype=float)
    G = (0.5 * u * u + c.g * h) * h * u - c.g * h * u * np.asarray(W.H, dtype=float)
    eta, G = _scalarize(eta, G)
    return EntropyValues(eta=eta, G=G)


# -- stationary-solution oracles ------------------------------------------

_PHI_TOL = 1e-12
_NEAR_CRITICAL_TOL = 1e-6


def invariant_depth_function(h: float, q: float, c: PhysConstants) -> float:
    """phi(h) = h + q^2 / (2 g h^2), the depth part of the second invariant."""
    return h + q * q / (2.0 * c.g * h * h)


def critical_depth(q: float, c: PhysConstants) -> float:
    """Depth at which phi attains its minimum, (q^2/g)^(1/3)."""
    return (q * q / c.g) ** (1.0 / 3.0)


def solve_invariant_depth(q: float, target: float, branch: str, c: PhysConstants) -> float:
    """Solve phi(h) = target by bracketed bisection on one monotone branch.

    ``branch`` is 'subcritical' (h >= h_c, phi increasing) or
    'supercritical' (h <= h_c, phi decreasing). Unconditionally
    convergent; tolerance 1e-12 on phi.
    """
    q = float(q)
    target = float(target)
    if q == 0.0:
        if target <= 0.0:
            raise NoAdmissibleRootError("invariant level gives non-positive depth")
        return target
    h_c = critical_depth(q, c)
    phi_min = 1.5 * h_c
    if target < phi_min * (1.0 - 1e-14):
        raise NoAdmissibleRootError(
            f"no admissible root: invariant level {target} below critical minimum {phi_min}"
        )
    if branch == "supercritical":
        lo = np.sqrt(q * q / (2.0 * c.g * target))  # phi(lo) = lo + target > target
        hi = h_c
    elif branch == "subcritical":
        lo = h_c
        hi = max(target, h_c)  # phi(hi) >= hi >= target
    else:
        raise ValueError(f"unknown branch {branch!r}")

    def phi(h):
        return invariant_depth_function(h, q, c)

    # phi is monotone on the bracket; sign of (phi - target) flips across it.
    increasing = branch == "subcritical"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = phi(mid) - target
        if abs(r) <= _PHI_TOL or (hi - lo) <= 1e-17 * max(1.0, hi):
            return mid
        if (r > 0) == increasing:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _branch_of(W: ExtState, c: PhysConstants) -> str:
    fr2 = froude_squared(W.state, c)
    if abs(fr2 - 1.0) < _NEAR_CRITICAL_TOL:
        raise NearCriticalError("near-critical, branch ambiguous")
    return "supercritical" if fr2 > 1.0 else "subcritical"


def exact_step_state(W_l: ExtState, H_r: float, c: PhysConstants) -> PhysState:
    """State across a stationary contact over a bottom step.

    Returns (h_r, q_l) with h_r solving the invariant equation for the
    bottom depth ``H_r``, on the same flow-regime branch as ``W_l``.
    """
    q, inv2 = riemann_invariant(W_l, c)
    if q == 0.0:
        h_r = float(W_l.h) - float(W_l.H) + float(H_r)
        if h_r <= 0.0:
            raise NoAdmissibleRootError("rest surface lies below the bottom at H_r")
        return PhysState(h=h_r, q=0.0)
    branch = _branch_of(W_l, c)
    h_r = solve_invariant_depth(q, inv2 + float(H_r), branch, c)
    return PhysState(h=h_r, q=q)


def exact_smooth_profile(
    bathymetry: Callable[[np.ndarray], np.ndarray],
    inlet: ExtState,
    xs: Sequence[float],
    c: PhysConstants,
) -> PhysState:
    """Smooth stationary profile sharing the inlet's Riemann invariants.

    At each position the depth solves the invariant equation for the
    local bottom, on the branch fixed by the inlet regime. Raises
    ``TranscriticalProfileError`` if some position admits no root on
    that branch.
    """
    q, inv2 = riemann_invariant(inlet, c)
    xs = np.asarray(xs, dtype=float)
    Hs = np.asarray(bathymetry(xs), dtype=float)
    if q == 0.0:
        h = inv2 + Hs
        if np.any(h <= 0):
            raise TranscriticalProfileError("rest surface dips below the bottom")
        return PhysState(h=h, q=np.zeros_like(h))
    branch = _branch_of(inlet, c)
    h = np.empty_like(Hs)
    for i, H in enumerate(Hs):
        try:
            h[i] = solve_invariant_depth(q, inv2 + H, branch, c)
        except NoAdmissibleRootError as exc:
            raise TranscriticalProfileError(
                f"transcritical profile: no {branch} root at x = {xs[i]}"
            ) from exc
    return PhysState(h=h, q=np.full_like(h, q))
