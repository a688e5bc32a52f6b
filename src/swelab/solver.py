"""Grid, boundary conditions, CFL time stepping and the assembled update.

One explicit step reads

    w_i^{n+1} = w_i - dt/dx (F_{i+1/2} - F_{i-1/2})
                    + dt/dx (S+_{i-1/2} + S-_{i+1/2})

for any combination of homogeneous flux and source treatment. All
interface terms are computed from time-n data only, vectorized over the
interfaces of a ghost-padded array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from swelab.core import (
    DryStateError,
    ExtState,
    PhysConstants,
    PhysState,
    SWEError,
    velocity,
)
from swelab.fluxes import FluxKind, ROE, omega_flux, roe_flux
from swelab.hydrostatic import hr_interface_terms
from swelab.sources import omega_source_split, resolved_split_form, roe_source_split

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
    "roe": dict(flux=ROE, source="upwind", implemented=True,
                label="Roe flux with characteristic source upwinding"),
    "hr": dict(flux=ROE, source="hr", implemented=True,
               label="hydrostatic reconstruction, Roe homogeneous flux"),
    "modified-hr": dict(flux=ROE, source="modified-hr", implemented=True,
                        label="modified hydrostatic reconstruction, Roe homogeneous flux"),
    "force-hr": dict(flux=FluxKind("omega", "force"), source="hr", implemented=True,
                     label="hydrostatic reconstruction, FORCE homogeneous flux"),
    "gforce-hr": dict(flux=FluxKind("omega", "gforce"), source="hr", implemented=True,
                      label="hydrostatic reconstruction, GFORCE homogeneous flux"),
    "force-wb": dict(flux=FluxKind("omega", "force"), source="upwind", implemented=True,
                     label="FORCE flux with the paired source splitting"),
    "gforce-wb": dict(flux=FluxKind("omega", "gforce"), source="upwind", implemented=True,
                      label="GFORCE flux with the paired source splitting"),
    "subsonic": dict(flux=None, source=None, implemented=False,
                     label="subsonic reconstruction (not implemented, see Bouchut &"
                           " Morales de Luna 2010)"),
}


@dataclass(frozen=True)
class SchemeConfig:
    """Everything that picks the numerics of one run."""

    scheme: str
    flux: FluxKind
    source: str  # 'upwind' | 'hr' | 'modified-hr'
    cfl: float = 0.9
    gate: str = "dimensional"
    h_dry: float = 1e-8

    def __post_init__(self):
        if self.source not in ("upwind", "hr", "modified-hr"):
            raise ValueError(f"unknown source treatment {self.source!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("CFL must lie in (0, 1]")

    @classmethod
    def from_id(cls, scheme_id: str, **kw) -> "SchemeConfig":
        try:
            entry = SCHEMES[scheme_id]
        except KeyError:
            raise ValueError(f"unknown scheme {scheme_id!r}") from None
        if not entry["implemented"]:
            raise NotImplementedError(f"scheme {scheme_id!r}: {entry['label']}")
        return cls(scheme=scheme_id, flux=entry["flux"], source=entry["source"], **kw)

    def constants(self) -> PhysConstants:
        return PhysConstants(h_dry=self.h_dry)


@dataclass(frozen=True)
class BoundaryCondition:
    """Ghost-cell rule for one side of the domain."""

    kind: str  # 'open' | 'discharge' | 'depth' | 'both' | 'periodic'
    h: float | None = None
    q: float | None = None

    @classmethod
    def open(cls):
        return cls("open")

    @classmethod
    def discharge(cls, q):
        return cls("discharge", q=q)

    @classmethod
    def depth(cls, h):
        return cls("depth", h=h)

    @classmethod
    def both(cls, h, q):
        return cls("both", h=h, q=q)

    @classmethod
    def periodic(cls):
        return cls("periodic")


@dataclass(frozen=True)
class StopRule:
    """When a run is over: a fixed final time, a steady-state residual
    tolerance (relative to the first step's residual), or both
    (whichever hits first). ``max_steps`` is a hard guard."""

    final_time: float | None = None
    steady_tol: float | None = None
    max_time: float | None = None
    max_steps: int = 5_000_000

    def __post_init__(self):
        if self.final_time is None and self.steady_tol is None:
            raise ValueError("need a final time or a steady tolerance")
        if self.steady_tol is not None and self.final_time is None and self.max_time is None:
            raise ValueError("a steady-state stop needs a max_time backstop")

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
    snapshot_times: tuple = ()
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
    left_ghost: ExtState
    right_ghost: ExtState
    left_flux: tuple  # one-sided flux F- seen by the left ghost
    right_flux: tuple  # one-sided flux F+ seen by the right ghost


@dataclass
class RunReport:
    """Everything a benchmark needs from one run."""

    metadata: dict
    x: np.ndarray
    H: np.ndarray
    snapshots: list  # (t, h, q) triples
    residual_history: np.ndarray
    probes: dict
    steady_reached: bool
    final_time: float
    n_steps: int
    clip_events: int
    minor_clip_events: int
    entropy_production: np.ndarray | None = None

    @property
    def final(self) -> SimState:
        t, h, q = self.snapshots[-1]
        return SimState(t, h.copy(), q.copy(), self.H.copy())

    def summary(self) -> dict:
        d = dict(self.metadata)
        d.update(
            steady_reached=bool(self.steady_reached),
            final_time=float(self.final_time),
            n_steps=int(self.n_steps),
            clip_events=int(self.clip_events),
            minor_clip_events=int(self.minor_clip_events),
            final_residual=float(self.residual_history[-1]) if len(self.residual_history) else None,
            probes={k: {kk: float(vv) for kk, vv in v.items()} for k, v in self.probes.items()},
        )
        return d


def cfl_dt(state: SimState, cfg: SchemeConfig, grid: Grid, c: PhysConstants) -> float:
    """dt = CFL dx / max over wet cells of (|u| + sqrt(g h))."""
    wet = state.h > c.h_dry
    if not np.any(wet):
        raise DryStateError("all cells dry, no wave speed")
    u = np.abs(state.q[wet]) / state.h[wet]
    smax = np.max(u + np.sqrt(c.g * state.h[wet]))
    if smax <= 0:
        raise SWEError("zero wave speed")
    return cfg.cfl * grid.dx / smax


def apply_boundaries(state: SimState, bc_left: BoundaryCondition,
                     bc_right: BoundaryCondition):
    """Ghost states for both sides; ghost H copies the interior value."""

    def ghost(bc, i_near, i_far):
        if bc.kind == "periodic":
            return state.h[i_far], state.q[i_far], state.H[i_far]
        h, q = state.h[i_near], state.q[i_near]
        if bc.kind == "open":
            pass
        elif bc.kind == "discharge":
            q = bc.q
        elif bc.kind == "depth":
            h = bc.h
        elif bc.kind == "both":
            h, q = bc.h, bc.q
        else:
            raise ValueError(f"unknown boundary kind {bc.kind!r}")
        return h, q, state.H[i_near]

    hl, ql, Hl = ghost(bc_left, 0, -1)
    hr, qr, Hr = ghost(bc_right, -1, 0)
    return ExtState(PhysState(hl, ql), Hl), ExtState(PhysState(hr, qr), Hr)


def interface_terms(w_l: PhysState, w_r: PhysState, H_l, H_r, cfg: SchemeConfig,
                    dx: float, dt: float, c: PhysConstants):
    """Flux and source split for every interface, dispatched by scheme.

    Returns (F0, F1), (Sm0, Sm1), (Sp0, Sp1) arrays over interfaces.
    Interfaces dry on both sides carry zeros.
    """
    W_l = ExtState(w_l, H_l)
    W_r = ExtState(w_r, H_r)
    wet = (np.asarray(w_l.h, float) > c.h_dry) | (np.asarray(w_r.h, float) > c.h_dry)
    if cfg.source == "upwind":
        if cfg.flux.name == "roe":
            F = roe_flux(w_l, w_r, c)
            split = roe_source_split(W_l, W_r, c)
        else:
            omega = cfg.flux.omega(cfg.cfl)
            F = omega_flux(w_l, w_r, omega, dx, dt, c)
            split = omega_source_split(W_l, W_r, omega, dx, dt, c)
    else:
        variant = "original" if cfg.source == "hr" else "modified"
        F, split, _ = hr_interface_terms(
            W_l, W_r, cfg.flux, variant, c, dx=dx, dt=dt, cfl=cfg.cfl, gate=cfg.gate
        )
    z = np.zeros_like(np.asarray(F[0]))
    mask = lambda a: np.where(wet, a, z)
    return (
        (mask(F[0]), mask(F[1])),
        (mask(split.minus[0]), mask(split.minus[1])),
        (mask(split.plus[0]), mask(split.plus[1])),
    )


def step(state: SimState, cfg: SchemeConfig, grid: Grid,
         bc_left: BoundaryCondition, bc_right: BoundaryCondition,
         dt: float, c: PhysConstants):
    """One assembled explicit update over all interfaces, ghosts included.

    Depths that undershoot zero are clipped (counted as a minor event
    below h_dry, a clip event beyond); cells at or below h_dry carry no
    momentum. Raises on non-finite values, naming the first bad cell.
    """
    gl, gr = apply_boundaries(state, bc_left, bc_right)
    hp = np.concatenate(([gl.h], state.h, [gr.h]))
    qp = np.concatenate(([gl.q], state.q, [gr.q]))
    Hp = np.concatenate(([gl.H], state.H, [gr.H]))
    w_l = PhysState(hp[:-1], qp[:-1])
    w_r = PhysState(hp[1:], qp[1:])
    F, Sm, Sp = interface_terms(w_l, w_r, Hp[:-1], Hp[1:], cfg, grid.dx, dt, c)
    r = dt / grid.dx
    h = state.h - r * (F[0][1:] - F[0][:-1]) + r * (Sp[0][:-1] + Sm[0][1:])
    q = state.q - r * (F[1][1:] - F[1][:-1]) + r * (Sp[1][:-1] + Sm[1][1:])
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(q))):
        bad = int(np.argmax(~(np.isfinite(h) & np.isfinite(q))))
        raise SWEError(f"non-finite state in cell {bad} at t = {state.t + dt}")
    min_h = float(np.min(h))
    neg = h < 0
    clips = int(np.count_nonzero(h < -c.h_dry))
    minor = int(np.count_nonzero(neg)) - clips
    if np.any(neg):
        h = np.maximum(h, 0.0)
    q = np.where(h > c.h_dry, q, 0.0)
    info = StepInfo(
        clip_events=clips,
        minor_clip_events=minor,
        min_h_pre_clip=min_h,
        left_ghost=gl,
        right_ghost=gr,
        left_flux=(F[0][0] - Sm[0][0], F[1][0] - Sm[1][0]),
        right_flux=(F[0][-1] + Sp[0][-1], F[1][-1] + Sp[1][-1]),
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


def run(spec: SimSpec, cfg: SchemeConfig, c: PhysConstants | None = None,
        track_entropy: bool = False, metadata: dict | None = None) -> RunReport:
    """March a simulation to its stop rule.

    The last step before each requested output time is clamped to land
    exactly on it. The residual |w^{n+1} - w^n|_1 / dt is recorded each
    step; with a steady tolerance set, the run stops once the residual
    falls below tol * (first residual + 1e-30).
    """
    if c is None:
        c = cfg.constants()
    state = initial_state(spec, c)
    grid = spec.grid
    stop = spec.stop
    bound = stop.time_bound()
    snap_times = sorted(t for t in spec.snapshot_times if bound is None or t <= bound + 1e-12)
    snapshots = []
    residuals = []
    entropy = [] if track_entropy else None
    clips = minor = 0
    steady = False
    residual0 = None
    n_steps = 0
    if track_entropy:
        from swelab.diagnostics import entropy_production_total

    pending = [t for t in snap_times if t > 1e-14]
    if snap_times and snap_times[0] <= 1e-14:
        snapshots.append((0.0, state.h.copy(), state.q.copy()))

    while True:
        if bound is not None and state.t >= bound - 1e-12:
            break
        if steady and stop.steady_tol is not None:
            break
        if n_steps >= stop.max_steps:
            break
        dt = cfl_dt(state, cfg, grid, c)
        targets = [t for t in pending if t > state.t + 1e-14]
        limit = min([bound] if bound is not None else [np.inf])
        if targets:
            limit = min(limit, targets[0])
        if np.isfinite(limit):
            dt = min(dt, limit - state.t)
        before = state
        state, info = step(state, cfg, grid, spec.bc_left, spec.bc_right, dt, c)
        n_steps += 1
        clips += info.clip_events
        minor += info.minor_clip_events
        res = float(
            (np.sum(np.abs(state.h - before.h)) + np.sum(np.abs(state.q - before.q)))
            * grid.dx / dt
        )
        residuals.append(res)
        if residual0 is None:
            residual0 = res
        if track_entropy:
            entropy.append(
                entropy_production_total(
                    before, state, dt, grid.dx, c,
                    left_ghost=info.left_ghost, right_ghost=info.right_ghost,
                    left_flux=info.left_flux, right_flux=info.right_flux,
                )
            )
        if stop.steady_tol is not None and res <= stop.steady_tol * (residual0 + 1e-30):
            steady = True
        while pending and state.t >= pending[0] - 1e-12:
            snapshots.append((state.t, state.h.copy(), state.q.copy()))
            pending.pop(0)

    if not snapshots or abs(snapshots[-1][0] - state.t) > 1e-12:
        snapshots.append((state.t, state.h.copy(), state.q.copy()))

    probes = {}
    for name, xp in spec.probes:
        i = int(np.argmin(np.abs(grid.centers() - xp)))
        probes[name] = dict(x=grid.centers()[i], h=state.h[i], q=state.q[i])

    meta = dict(metadata or {})
    meta.setdefault("scheme", cfg.scheme)
    meta.setdefault("n_cells", grid.n_cells)
    meta.setdefault("cfl", cfg.cfl)
    meta.setdefault("gate", cfg.gate)
    meta.setdefault("h_dry", cfg.h_dry)
    meta.setdefault("omega_split_form", resolved_split_form())
    return RunReport(
        metadata=meta,
        x=grid.centers(),
        H=state.H.copy(),
        snapshots=snapshots,
        residual_history=np.asarray(residuals),
        probes=probes,
        steady_reached=steady,
        final_time=state.t,
        n_steps=n_steps,
        clip_events=clips,
        minor_clip_events=minor,
        entropy_production=np.asarray(entropy) if entropy is not None else None,
    )
