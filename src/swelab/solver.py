"""Grid, boundary conditions, CFL time stepping and the assembled update.

One explicit step reads

    w_i^{n+1} = w_i - dt/dx (F_{i+1/2} - F_{i-1/2})
                    + dt/dx (S+_{i-1/2} + S-_{i+1/2})

for any combination of homogeneous flux and source treatment. All
interface terms are computed from time-n data only, vectorized over the
interfaces of a ghost-padded array, by the plain-array formulas of
``swelab.kernel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from swelab import kernel
from swelab.core import DryStateError, PhysConstants, SWEError, all_wet
from swelab.sources import resolved_split_form

# Object-level functions the step no longer calls, bound for bench/tracer.py.
from swelab.fluxes import omega_flux, roe_flux  # noqa: F401
from swelab.hydrostatic import hr_interface_terms  # noqa: F401
from swelab.sources import omega_source_split, roe_source_split  # noqa: F401

__all__ = [
    "Grid",
    "SchemeConfig",
    "SCHEMES",
    "BoundaryCondition",
    "StopRule",
    "SimSpec",
    "SimState",
    "StepInfo",
    "RunReport",
    "cfl_dt",
    "apply_boundaries",
    "interface_terms",
    "step",
    "run",
]


@dataclass(frozen=True)
class Grid:
    """Uniform cell partition of [x_left, x_right]."""

    x_left: float
    x_right: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError("need at least 2 cells")
        if not self.x_right > self.x_left:
            raise ValueError("empty domain")

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.dx


# Scheme taxonomy used by the benchmark harness. 'subsonic' is a named
# slot for the subsonic reconstruction solver, deliberately left
# unimplemented.
SCHEMES = {
    "roe": dict(flux="roe", source="upwind", implemented=True,
                label="Roe flux with characteristic source upwinding"),
    "hr": dict(flux="roe", source="hr", implemented=True,
               label="hydrostatic reconstruction, Roe homogeneous flux"),
    "modified-hr": dict(flux="roe", source="modified-hr", implemented=True,
                        label="modified hydrostatic reconstruction, Roe homogeneous flux"),
    "force-hr": dict(flux="force", source="hr", implemented=True,
                     label="hydrostatic reconstruction, FORCE homogeneous flux"),
    "gforce-hr": dict(flux="gforce", source="hr", implemented=True,
                      label="hydrostatic reconstruction, GFORCE homogeneous flux"),
    "force-wb": dict(flux="force", source="upwind", implemented=True,
                     label="FORCE flux with the paired source splitting"),
    "gforce-wb": dict(flux="gforce", source="upwind", implemented=True,
                      label="GFORCE flux with the paired source splitting"),
    "subsonic": dict(flux=None, source=None, implemented=False,
                     label="subsonic reconstruction (not implemented, see Bouchut &"
                           " Morales de Luna 2010)"),
}


@dataclass(frozen=True)
class SchemeConfig:
    """Everything that picks the numerics of one run."""

    scheme: str
    flux: str  # one of kernel.FLUXES
    source: str  # 'upwind' | 'hr' | 'modified-hr'
    cfl: float = 0.9
    gate: str = "dimensional"

    def __post_init__(self):
        if self.flux not in kernel.FLUXES:
            raise ValueError(f"unknown flux {self.flux!r}")
        if self.source not in ("upwind", "hr", "modified-hr"):
            raise ValueError(f"unknown source treatment {self.source!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("CFL must lie in (0, 1]")
        kernel.check_gate(self.gate)
        entry = SCHEMES.get(self.scheme)  # a registered name means its numerics
        if entry is not None and (entry["flux"], entry["source"]) != (self.flux, self.source):
            raise ValueError(f"scheme {self.scheme!r} is not {self.flux} with {self.source}")

    @classmethod
    def from_id(cls, scheme_id: str, **kw) -> "SchemeConfig":
        try:
            entry = SCHEMES[scheme_id]
        except KeyError:
            raise ValueError(f"unknown scheme {scheme_id!r}") from None
        if not entry["implemented"]:
            raise NotImplementedError(f"scheme {scheme_id!r}: {entry['label']}")
        return cls(scheme=scheme_id, flux=entry["flux"], source=entry["source"], **kw)


@dataclass(frozen=True)
class BoundaryCondition:
    """Ghost-cell rule for one side of the domain: the depth ``h`` and the
    discharge ``q`` it imposes (``None`` copies the near end cell), or
    ``periodic``, which copies the far end cell."""

    h: float | None = None
    q: float | None = None
    periodic: bool = False

    def __post_init__(self):
        if self.periodic and (self.h is not None or self.q is not None):
            raise ValueError("a periodic boundary imposes no depth or discharge")
        if self.h is not None and not 0.0 <= self.h < math.inf:
            raise ValueError(f"a boundary depth must be finite and >= 0, got {self.h}")
        if self.q is not None and not math.isfinite(self.q):
            raise ValueError(f"a boundary discharge must be finite, got {self.q}")

    @property
    def kind(self) -> str:
        """'open' | 'discharge' | 'depth' | 'both' | 'periodic'"""
        if self.periodic:
            return "periodic"
        if self.h is None:
            return "open" if self.q is None else "discharge"
        return "depth" if self.q is None else "both"


@dataclass(frozen=True)
class StopRule:
    """When a run is over: a fixed final time, a steady-state residual
    tolerance (relative to the first step's residual), or both
    (whichever hits first). ``max_steps``, an integer >= 0, is a hard guard."""

    final_time: float | None = None
    steady_tol: float | None = None
    max_time: float | None = None
    max_steps: int = 5_000_000

    def __post_init__(self):
        if self.final_time is None and self.steady_tol is None:
            raise ValueError("need a final time or a steady tolerance")
        if self.steady_tol is not None and self.final_time is None and self.max_time is None:
            raise ValueError("a steady-state stop needs a max_time backstop")
        for v in (self.final_time, self.steady_tol, self.max_time):
            if v is not None and not 0.0 <= v < np.inf:  # NaN or inf would never stop a run
                raise ValueError(f"stop times and tolerances must be finite and >= 0, got {v}")
        n = self.max_steps
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"max_steps must be an integer >= 0, got {n!r}")

    def time_bound(self) -> float | None:
        ts = [t for t in (self.final_time, self.max_time) if t is not None]
        return min(ts) if ts else None


@dataclass
class SimSpec:
    """Full description of one simulation (scheme-independent part)."""

    grid: Grid
    bathymetry: Callable[[np.ndarray], np.ndarray]
    init: Callable[[np.ndarray, np.ndarray], tuple]
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition
    stop: StopRule
    probes: tuple = ()  # (name, x) pairs, reported at the final state


@dataclass
class SimState:
    """Cell-averaged state at one time level; H is fixed after setup."""

    t: float
    h: np.ndarray
    q: np.ndarray
    H: np.ndarray

    def copy(self) -> "SimState":
        return SimState(self.t, self.h.copy(), self.q.copy(), self.H.copy())


@dataclass
class StepInfo:
    """Per-step bookkeeping returned by ``step``."""

    clip_events: int
    minor_clip_events: int
    min_h_pre_clip: float
    update_l1: float  # sum |h^{n+1} - h^n| + sum |q^{n+1} - q^n| of the clipped update
    ghosts: tuple  # (h, q, H) of the left and of the right ghost cell
    left_flux: tuple  # one-sided flux F- seen by the left ghost
    right_flux: tuple  # one-sided flux F+ seen by the right ghost


@dataclass
class RunReport:
    """Everything a benchmark needs from one run."""

    metadata: dict
    x: np.ndarray
    H: np.ndarray
    snapshots: list  # [(t, h, q)] of the final state only; kept for the benchmark
    final_residual: float | None  # last step's residual; None when no step was taken
    probes: dict
    final_time: float
    n_steps: int
    clip_events: int
    minor_clip_events: int
    stop_reason: str  # 'steady' | 'final_time' | 'max_time' | 'max_steps'
    entropy_production: np.ndarray | None = None

    @property
    def steady_reached(self) -> bool:
        return self.stop_reason == "steady"

    @property
    def final(self) -> SimState:
        t, h, q = self.snapshots[-1]
        return SimState(t, h.copy(), q.copy(), self.H.copy())

    def summary(self) -> dict:
        d = dict(self.metadata)
        d.update(
            steady_reached=self.steady_reached,
            final_time=float(self.final_time),
            n_steps=int(self.n_steps),
            clip_events=int(self.clip_events),
            minor_clip_events=int(self.minor_clip_events),
            final_residual=self.final_residual,
            probes={k: {kk: float(vv) for kk, vv in v.items()} for k, v in self.probes.items()},
        )
        return d


def cfl_dt(state: SimState, cfg: SchemeConfig, grid: Grid, c: PhysConstants) -> float:
    """dt = CFL dx / max over wet cells of (|u| + sqrt(g h))."""
    h, q = state.h, state.q
    if not all_wet(h, c.h_dry):
        wet = h > c.h_dry
        if not wet.any():
            raise DryStateError("all cells dry, no wave speed")
        h, q = h[wet], q[wet]
    s = np.abs(q)
    s /= h
    celerity = c.g * h
    s += np.sqrt(celerity, out=celerity)
    smax = s.max()
    if smax <= 0:
        raise SWEError("zero wave speed")
    return cfg.cfl * grid.dx / smax


def apply_boundaries(state: SimState, bc_left: BoundaryCondition,
                     bc_right: BoundaryCondition):
    """One (3, n+2) array of the rows (h, q, H) with one ghost cell on each
    side, and each ghost's (h, q, H), left then right. A ghost takes its
    boundary's given values and the rest, H included, from the near end cell
    (the far one if periodic). Periodicity needs both sides periodic."""
    if bc_left.periodic != bc_right.periodic:
        raise ValueError("a periodic boundary needs a periodic boundary on the other side")
    ghosts = []
    for bc, near, far in ((bc_left, 0, -1), (bc_right, -1, 0)):
        i = far if bc.periodic else near
        ghosts.append((state.h[i] if bc.h is None else bc.h,
                       state.q[i] if bc.q is None else bc.q, state.H[i]))
    W = np.empty((3, len(state.h) + 2))
    W[0, 1:-1] = state.h
    W[1, 1:-1] = state.q
    W[2, 1:-1] = state.H
    (W[0, 0], W[1, 0], W[2, 0]), (W[0, -1], W[1, -1], W[2, -1]) = ghosts  # scalar stores
    return W, ghosts


def interface_terms(W: np.ndarray, cfg: SchemeConfig, dx: float, dt: float,
                    c: PhysConstants):
    """F, S-, S+ over the interfaces of the padded row W = (h, q, H), which
    ``kernel``'s two scheme functions both take: F is a (2, m) pair, and so
    are the sources of the upwind schemes; the hydrostatic sources are
    momentum rows alone. Dry/dry interfaces carry zeros."""
    omega_ab = kernel.omega_weights(cfg.flux, cfg.cfl, dx, dt)
    if cfg.source == "upwind":
        return kernel.upwind(W, c.g, c.h_dry, omega_ab)
    return kernel.hydrostatic(W, c.g, c.h_dry, cfg.source == "modified-hr", cfg.gate, omega_ab)


def step(state: SimState, cfg: SchemeConfig, grid: Grid,
         bc_left: BoundaryCondition, bc_right: BoundaryCondition,
         dt: float, c: PhysConstants):
    """One assembled explicit update over all interfaces, ghosts included.

    Depths that undershoot zero are clipped (counted as a minor event
    below h_dry, a clip event beyond); cells at or below h_dry carry no
    momentum. Raises on a ``dt`` that is not finite and positive, and on
    non-finite values, naming the first bad cell.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    W, ghosts = apply_boundaries(state, bc_left, bc_right)
    dx = grid.dx
    F, Sm, Sp = interface_terms(W, cfg, dx, dt, c)
    r = dt / dx
    w = W[:2, 1:-1]  # (h, q) at time n
    Wn = F[:, 1:] - F[:, :-1]
    Wn *= r
    np.subtract(w, Wn, out=Wn)
    h, q = Wn[0], Wn[1]
    S = Sp[..., :-1] + Sm[..., 1:]
    S *= r
    if S.ndim == 2:
        Wn += S
    else:  # the hydrostatic sources have no mass part
        q += S
    del S
    # a non-finite value makes the sum non-finite; only then look cell by cell
    if not math.isfinite(Wn.sum()):
        finite = np.isfinite(Wn).all(axis=0)
        if not finite.all():
            bad = int(np.argmax(~finite))
            raise SWEError(f"non-finite state in cell {bad} at t = {state.t + dt}")
    min_h = float(h.min())
    clips = minor = 0
    if min_h < 0:
        clips = int(np.count_nonzero(h < -c.h_dry))
        minor = int(np.count_nonzero(h < 0)) - clips
        np.maximum(h, 0.0, out=h)
    if min_h <= c.h_dry:  # else every cell is wet
        q[h <= c.h_dry] = 0.0
    change = Wn - w
    l1 = np.abs(change, out=change).sum(axis=1)
    sm, sp = (Sm[:, 0], Sp[:, -1]) if Sm.ndim == 2 else ((0.0, Sm[0]), (0.0, Sp[-1]))
    # the state is copied after every temporary of the step: on a large grid
    # the copy then lies above them on the heap, so their release returns no
    # pages to the system for the next step to fault in again
    Wn = Wn.copy()
    h, q = Wn[0], Wn[1]
    info = StepInfo(
        clip_events=clips,
        minor_clip_events=minor,
        min_h_pre_clip=min_h,
        update_l1=l1[0] + l1[1],
        ghosts=tuple(ghosts),
        left_flux=(F[0, 0] - sm[0], F[1, 0] - sm[1]),
        right_flux=(F[0, -1] + sp[0], F[1, -1] + sp[1]),
    )
    return SimState(state.t + dt, h, q, state.H), info


def initial_state(spec: SimSpec, c: PhysConstants) -> SimState:
    """Sample bathymetry and initial data pointwise at cell centers."""
    x = spec.grid.centers()
    H = np.asarray(spec.bathymetry(x), dtype=float) + np.zeros_like(x)
    h, q = spec.init(x, H)
    h = np.asarray(h, dtype=float) + np.zeros_like(x)
    q = np.asarray(q, dtype=float) + np.zeros_like(x)
    if np.any(h < 0):
        raise ValueError("initial depth is negative somewhere")
    q = np.where(h > c.h_dry, q, 0.0)
    return SimState(0.0, h, q, H)


def run(spec: SimSpec, cfg: SchemeConfig, c: PhysConstants = PhysConstants(),
        track_entropy: bool = False) -> RunReport:
    """March a simulation to its stop rule and report its final state.

    The last step is clamped to land exactly on the stop rule's time
    bound. The residual |w^{n+1} - w^n|_1 / dt is taken each step; with
    a steady tolerance set, the run is steady once it falls below
    tol * (first residual + 1e-30). The report keeps the last residual;
    its ``stop_reason`` is the first rule that holds before a step, in
    the order steady, time bound, ``max_steps``.
    """
    state = initial_state(spec, c)
    grid = spec.grid
    dx = grid.dx
    stop = spec.stop
    bound = stop.time_bound()
    entropy = [] if track_entropy else None
    clips = minor = 0
    residual0 = res = None
    n_steps = 0
    if track_entropy:
        from swelab.diagnostics import entropy_production_total

    while True:
        if (stop.steady_tol is not None and res is not None
                and res <= stop.steady_tol * (residual0 + 1e-30)):
            stop_reason = "steady"
            break
        if bound is not None and state.t >= bound - 1e-12:
            stop_reason = "final_time" if bound == stop.final_time else "max_time"
            break
        if n_steps >= stop.max_steps:
            stop_reason = "max_steps"
            break
        dt = cfl_dt(state, cfg, grid, c)
        if bound is not None:
            dt = min(dt, bound - state.t)
        before = state
        state, info = step(state, cfg, grid, spec.bc_left, spec.bc_right, dt, c)
        n_steps += 1
        clips += info.clip_events
        minor += info.minor_clip_events
        res = float(info.update_l1 * dx / dt)
        if residual0 is None:
            residual0 = res
        if track_entropy:
            entropy.append(entropy_production_total(before, state, dt, dx, c, info))

    probes = {}
    for name, xp in spec.probes:
        i = int(np.argmin(np.abs(grid.centers() - xp)))
        probes[name] = dict(x=grid.centers()[i], h=state.h[i], q=state.q[i])

    return RunReport(
        metadata=dict(scheme=cfg.scheme, n_cells=grid.n_cells, cfl=cfg.cfl, gate=cfg.gate,
                      h_dry=c.h_dry, omega_split_form=resolved_split_form()),
        x=grid.centers(),
        H=state.H.copy(),
        snapshots=[(state.t, state.h, state.q)],
        final_residual=res,
        probes=probes,
        final_time=state.t,
        n_steps=n_steps,
        clip_events=clips,
        minor_clip_events=minor,
        stop_reason=stop_reason,
        entropy_production=np.asarray(entropy) if entropy is not None else None,
    )
