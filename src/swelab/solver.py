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
from swelab.core import DryStateError, PhysConstants, SWEError
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

    @classmethod
    def from_id(cls, scheme_id: str, **kw) -> "SchemeConfig":
        try:
            entry = SCHEMES[scheme_id]
        except KeyError:
            raise ValueError(f"unknown scheme {scheme_id!r}") from None
        if not entry["implemented"]:
            raise NotImplementedError(f"scheme {scheme_id!r}: {entry['label']}")
        return cls(scheme=scheme_id, flux=entry["flux"], source=entry["source"], **kw)


# The boundary values each ghost-cell rule imposes.
_BC_VALUES = {"open": (), "discharge": ("q",), "depth": ("h",), "both": ("h", "q"),
              "periodic": ()}


@dataclass(frozen=True)
class BoundaryCondition:
    """Ghost-cell rule for one side of the domain."""

    kind: str  # 'open' | 'discharge' | 'depth' | 'both' | 'periodic'
    h: float | None = None
    q: float | None = None

    def __post_init__(self):
        if self.kind not in _BC_VALUES:
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        missing = [k for k in _BC_VALUES[self.kind] if getattr(self, k) is None]
        if missing:
            raise ValueError(f"a {self.kind!r} boundary needs {' and '.join(missing)}")
        if self.h is not None and not 0.0 <= self.h < math.inf:
            raise ValueError(f"a boundary depth must be finite and >= 0, got {self.h}")
        if self.q is not None and not math.isfinite(self.q):
            raise ValueError(f"a boundary discharge must be finite, got {self.q}")

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
        for v in (self.final_time, self.steady_tol, self.max_time):
            if v is not None and not 0.0 <= v < np.inf:  # NaN or inf would never stop a run
                raise ValueError(f"stop times and tolerances must be finite and >= 0, got {v}")

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
    steady_reached: bool
    final_time: float
    n_steps: int
    clip_events: int
    minor_clip_events: int
    entropy_production: np.ndarray | None = None
    stop_reason: str = ""  # 'steady' | 'final_time' | 'max_time' | 'max_steps'

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
            final_residual=self.final_residual,
            probes={k: {kk: float(vv) for kk, vv in v.items()} for k, v in self.probes.items()},
        )
        return d


def cfl_dt(state: SimState, cfg: SchemeConfig, grid: Grid, c: PhysConstants) -> float:
    """dt = CFL dx / max over wet cells of (|u| + sqrt(g h))."""
    h, q = state.h, state.q
    if not h.min() > c.h_dry:
        wet = h > c.h_dry
        if not wet.any():
            raise DryStateError("all cells dry, no wave speed")
        h, q = h[wet], q[wet]
    smax = (np.abs(q) / h + np.sqrt(c.g * h)).max()
    if smax <= 0:
        raise SWEError("zero wave speed")
    return cfg.cfl * grid.dx / smax


def apply_boundaries(state: SimState, bc_left: BoundaryCondition,
                     bc_right: BoundaryCondition):
    """The rows (h, q, H) with one ghost cell on each side, and each ghost's
    (h, q, H), left then right. A ghost takes its boundary's given values and
    the rest, H included, from the near end cell (the far one if periodic)."""
    ghosts = []
    for bc, near, far in ((bc_left, 0, -1), (bc_right, -1, 0)):
        i = far if bc.kind == "periodic" else near
        given = _BC_VALUES[bc.kind]
        ghosts.append((bc.h if "h" in given else state.h[i],
                       bc.q if "q" in given else state.q[i], state.H[i]))
    (hl, ql, Hl), (hr, qr, Hr) = ghosts
    n = len(state.h) + 2
    hp, qp, Hp = np.empty(n), np.empty(n), np.empty(n)
    hp[0], hp[1:-1], hp[-1] = hl, state.h, hr
    qp[0], qp[1:-1], qp[-1] = ql, state.q, qr
    Hp[0], Hp[1:-1], Hp[-1] = Hl, state.H, Hr
    return (hp, qp, Hp), ghosts


def interface_terms(hp: np.ndarray, qp: np.ndarray, Hp: np.ndarray, cfg: SchemeConfig,
                    dx: float, dt: float, c: PhysConstants):
    """(F0, F1), (Sm0, Sm1), (Sp0, Sp1) over the interfaces of the padded
    arrays (see ``kernel``); dry/dry interfaces carry zeros."""
    omega_ab = kernel.omega_weights(cfg.flux, cfg.cfl, dx, dt)
    if cfg.source == "upwind":
        return kernel.upwind(hp, qp, Hp, c.g, c.h_dry, omega_ab)
    return kernel.hydrostatic(*kernel.row_states(hp, qp, Hp, c.h_dry), c.g, c.h_dry,
                              cfg.source == "modified-hr", cfg.gate, omega_ab)


def step(state: SimState, cfg: SchemeConfig, grid: Grid,
         bc_left: BoundaryCondition, bc_right: BoundaryCondition,
         dt: float, c: PhysConstants):
    """One assembled explicit update over all interfaces, ghosts included.

    Depths that undershoot zero are clipped (counted as a minor event
    below h_dry, a clip event beyond); cells at or below h_dry carry no
    momentum. Raises on non-finite values, naming the first bad cell.
    """
    (hp, qp, Hp), ghosts = apply_boundaries(state, bc_left, bc_right)
    dx = grid.dx
    (F0, F1), (Sm0, Sm1), (Sp0, Sp1) = interface_terms(hp, qp, Hp, cfg, dx, dt, c)
    r = dt / dx
    h = state.h - r * (F0[1:] - F0[:-1])
    if Sm0 is not None:
        h = h + r * (Sp0[:-1] + Sm0[1:])
    q = state.q - r * (F1[1:] - F1[:-1]) + r * (Sp1[:-1] + Sm1[1:])
    # a non-finite value makes its sum non-finite; only then look cell by cell
    if not math.isfinite(h.sum() + q.sum()):
        finite = np.isfinite(h) & np.isfinite(q)
        if not finite.all():
            bad = int(np.argmax(~finite))
            raise SWEError(f"non-finite state in cell {bad} at t = {state.t + dt}")
    min_h = float(h.min())
    clips = minor = 0
    if min_h < 0:
        clips = int(np.count_nonzero(h < -c.h_dry))
        minor = int(np.count_nonzero(h < 0)) - clips
        h = np.maximum(h, 0.0)
    if min_h <= c.h_dry:  # else every cell is wet
        q = np.where(h > c.h_dry, q, 0.0)
    sm0 = 0.0 if Sm0 is None else Sm0[0]
    sp0 = 0.0 if Sp0 is None else Sp0[-1]
    info = StepInfo(
        clip_events=clips,
        minor_clip_events=minor,
        min_h_pre_clip=min_h,
        ghosts=tuple(ghosts),
        left_flux=(F0[0] - sm0, F1[0] - Sm1[0]),
        right_flux=(F0[-1] + sp0, F1[-1] + Sp1[-1]),
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
    a steady tolerance set, the run stops once it falls below
    tol * (first residual + 1e-30). The report keeps the last residual,
    and its ``stop_reason`` says which rule ended the run.
    """
    state = initial_state(spec, c)
    grid = spec.grid
    dx = grid.dx
    stop = spec.stop
    bound = stop.time_bound()
    entropy = [] if track_entropy else None
    clips = minor = 0
    steady = False
    residual0 = res = None
    n_steps = 0
    if track_entropy:
        from swelab.diagnostics import entropy_production_total

    while True:
        if bound is not None and state.t >= bound - 1e-12:
            stop_reason = "final_time" if bound == stop.final_time else "max_time"
            break
        if steady:
            stop_reason = "steady"
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
        res = float((np.abs(state.h - before.h).sum() + np.abs(state.q - before.q).sum())
                    * dx / dt)
        if residual0 is None:
            residual0 = res
        if track_entropy:
            entropy.append(entropy_production_total(before, state, dt, dx, c, info))
        if stop.steady_tol is not None and res <= stop.steady_tol * (residual0 + 1e-30):
            steady = True

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
        steady_reached=steady,
        final_time=state.t,
        n_steps=n_steps,
        clip_events=clips,
        minor_clip_events=minor,
        entropy_production=np.asarray(entropy) if entropy is not None else None,
        stop_reason=stop_reason,
    )
