"""Interface formulas of every scheme, on plain float arrays.

The one place where the fluxes, source splits and hydrostatic
reconstruction are written down. The two scheme functions at the
bottom, ``upwind`` and ``hydrostatic``, are the only entry points: both
take rows of cells W = (h, q, H), ``solver.step`` its padded (3, n+2)
row and the adapters in ``fluxes``, ``sources`` and ``hydrostatic``
their m interfaces as one (3, 2, m) array of two-cell rows. The cell
formulas (velocity and physical flux) come from ``swelab.core``; the
``Constants`` and bottom terms they read come from ``solver``'s step plan.

Every flux is one formula, ``interface_flux``, fed with the mean
physical flux and jump of each interface (``interfaces``) and the
``dissipation`` of its ``linearisation``. ``upwind``, when every cell
is wet, makes one cell pass over its row (u, sqrt(h), sqrt(h) u and
the physical flux), sliced for the two sides; ``flux`` takes the side
states as one (2, 2, m) array, (h, q) by (left, right), and makes one
pass over both sides. ``hydrostatic`` takes the cell velocities once
per cell of its row. The linearisation (the Roe decomposition, or for
an omega flux c^2 and the entries of J) is built once per interface and
shared by the flux and its source split.

Numpy's cost at these sizes is the call, not the arithmetic: a call
costs 0.35-0.5 us and a reduction 0.8-0.95 us, about what the
arithmetic of a few hundred cells costs. So every (mass, momentum) pair
is one (2, m) float array, and one call serves both of its rows: the
mean flux, the jump w_r - w_l, the dissipation, the flux, the
eigenvalues and their moduli, the source splits and, in ``solver.step``,
the update, whose finiteness takes one sum and whose clipped change,
sum |dh| + sum |dq|, goes on ``StepInfo.update_l1`` for ``run``'s
residual. ``solver.apply_boundaries`` builds the padded rows as one
(3, n+2) array. A pair is contiguous, so a call on it takes numpy's fast
path; a call that broadcasts a row over a pair, or reads a strided
view, costs about twice a plain one, so a formula that is different
in each row stays two row calls. Temporaries are chained in place
(``t = a * l2; t -= b * l1; t /= d``) and die as soon as they are
used: holding the decomposition and the |J| entries through the flux
made a 3,200-cell hr step 5-18% slower. Every element keeps its
floating-point operations in the order of the formulas as written, so
the row pass, the per-side pass and the stacked pairs give the same
bits as one element at a time.

Dryness is decided once and passed down. ``hydrostatic`` tests its row
of cells once (``core.all_wet``); when every cell is wet, the velocity
is q/h, the sources take no mask and ``large_step_corrections`` no
emerging-bottom test. ``wet_pairs`` tests the side states once; when
every side is wet, every interface is live and the flux takes no mask.
Otherwise it lists the dry sides by flat index. Interfaces the flux
cannot see (dry on both sides, and for the hydrostatic reconstruction
also two empty or damp reconstructed columns, or no wet cell beside
them) are computed against the dummy wet state (1, 0) and zeroed, flux
and sources alike, for the step and the adapters; the upwind schemes
raise ``DryInterfaceError`` if every interface is dry. The dry sides of
live interfaces, wet/dry fronts and truncated columns, one or two per
row, go to ``core.cell_flux``, the one place the dry cell formula is
written: it runs the wet formula over every side, those holding the
dummy, and overwrites them one at a time. The scheme functions return
``(F, S-, S+)``: F is a pair; S- goes to the left cell and S+ to the
right one, each a pair for the upwind schemes and a momentum row alone
for the hydrostatic ones, which have no mass part.
"""

from __future__ import annotations

import numpy as np

from swelab.core import DryInterfaceError, all_wet, cell_flux, cell_velocity, wet_cell_flux

GATE_POLICIES = ("dimensional", "as-printed")

# omega(CFL) of each centred flux: FORCE, GFORCE and Lax-Friedrichs
OMEGA_RULES = {
    "force": lambda cfl: 0.5,
    "gforce": lambda cfl: 1.0 / (1.0 + cfl),
    "lax-friedrichs": lambda cfl: 0.0,
}
FLUXES = ("roe", *OMEGA_RULES)


def check_gate(gate):
    """Reject a gate policy outside ``GATE_POLICIES``."""
    if gate not in GATE_POLICIES:
        raise ValueError(f"unknown gate policy {gate!r}")


def pressure(h, half_g):
    """Hydrostatic pressure integral p(h) = g h^2 / 2, from ``half_g`` = g/2."""
    return half_g * h * h


def _constant(x):
    """A read-only 0-d float64 array. numpy converts a Python float operand
    on every call, at about 0.2 us, as much as the arithmetic on a few
    hundred cells; a 0-d array skips that and leaves every element's
    operation unchanged."""
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


_ZERO, _HALF, _ONE, _EPS = _constant(0.0), _constant(0.5), _constant(1.0), _constant(1e-8)


class Constants:
    """``c``'s g, g/2 (= 0.5 * g = g * 0.5) and h_dry as ``_constant`` arrays; h_dry a float."""

    def __init__(self, c):
        self.h_dry = c.h_dry
        self.G, self.HALF_G, self.H_DRY = map(_constant, (c.g, 0.5 * c.g, c.h_dry))


def wet_pairs(S, k, wet=None):
    """The side states ``S``, (h, q) by (left, right), with the dummy wet
    state (1, 0) on both sides of the interfaces that are not live; the mask
    of the live ones (None when all are); and the flat indices in ``S[0]`` of
    the dry sides left, those of live interfaces (see ``cell_flux``).

    An interface is live where a side is wet. Without ``wet`` the sides are
    cells, and one interface must be live. The hydrostatic reconstruction,
    whose sides are its columns, passes ``wet``: True when every cell is
    wet, else the mask of the interfaces beside a wet cell, which a live
    interface needs too."""
    h = S[0]
    no_mask = wet is None or wet is True
    if no_mask and all_wet(h, k.h_dry):
        return S, None, []
    d = h <= k.H_DRY
    dry = d.ravel().nonzero()[0].tolist()
    # an interface is dead where its left and its right side are dry (or no
    # wet cell is beside it), so only if there are dry sides on both
    if no_mask and not (dry and dry[0] < d.size // 2 <= dry[-1]):
        return S, None, dry
    dead = d[0] & d[1]
    if wet is None:
        if dead.item(dead.argmin()):  # all(), read at the argmin
            raise DryInterfaceError("dry interface")
    elif wet is not True:
        dead |= ~wet
    if not dead.item(dead.argmax()):  # any(), read at the argmax
        return S, None, dry
    live = ~dead
    d &= live
    dummy = np.reshape((1.0, 0.0), (2,) + (1,) * (S.ndim - 1))
    return np.where(live, S, dummy), live, d.ravel().nonzero()[0].tolist()


def _masked(wet, a):
    return a if wet is None else np.where(wet, a, _ZERO)


def interfaces(L, R, k):
    """1/2 (F_l + F_r) as one pair, the jump w_r - w_l and the Roe average
    (u, c) from the cell values (h, q, F0, F1, sqrt(h), sqrt(h) u) on the
    left, L, and on the right, R, of each interface.

    The jump is the three rows (dq, dh, dq): its pair (dh, dq) is rows 1-2
    and the swapped pair (dq, dh) rows 0-1, so |J| (dh, dq) takes two pair
    products. The Roe average, u = (sqrt(h_l) u_l + sqrt(h_r) u_r) /
    (sqrt(h_l) + sqrt(h_r)) and c = sqrt(g (h_l + h_r)/2), satisfies
    F(w_r) - F(w_l) = J (w_r - w_l).
    """
    hl, ql, f0l, f1l, sl, sul = L
    hr, qr, f0r, f1r, sr, sur = R
    shape = hl.shape
    mean = np.empty((2, *shape))
    np.add(f0l, f0r, mean[0, ...])
    np.add(f1l, f1r, mean[1, ...])
    mean *= _HALF
    D = np.empty((3, *shape))
    np.subtract(qr, ql, D[0, ...])
    np.subtract(hr, hl, D[1, ...])
    D[2, ...] = D[0, ...]
    u = sul + sur
    u /= sl + sr
    c = hl + hr
    c *= k.HALF_G
    return mean, D, (u, np.sqrt(c))


def sides(S, k, wet=None):
    """The ``interfaces`` of the side states ``S``, (h, q) by (left, right),
    dummy where not live (see ``wet_pairs``), and the mask of the live ones;
    one cell pass covers both sides. A dry side's u, and so its sqrt(h) u,
    is zero."""
    S, live, dry = wet_pairs(S, k, wet)
    h, q = S[0], S[1]
    u, f0, f1 = cell_flux(h, q, k.HALF_G, k.h_dry, dry)
    s = np.sqrt(h)
    u *= s
    cells = (h, q, f0, f1, s, u)
    return (*interfaces([a[0] for a in cells], [a[1] for a in cells], k), live)


def row_sides(W, k):
    """``sides`` of the interfaces between consecutive cells of the row
    W = (h, q, ...); when every cell is wet, one cell pass sliced for both
    sides and no mask."""
    h, q = W[0], W[1]
    if all_wet(h, k.h_dry):
        u, _, f1 = wet_cell_flux(h, q, k.HALF_G)
        s = np.sqrt(h)
        u *= s
        ql, qr = q[:-1], q[1:]  # q is F0 too
        L = (h[:-1], ql, ql, f1[:-1], s[:-1], u[:-1])
        R = (h[1:], qr, qr, f1[1:], s[1:], u[1:])
        return (*interfaces(L, R, k), None)
    S = np.empty((2, 2, *h[1:].shape))
    S[:, 0] = W[:2, :-1]
    S[:, 1] = W[:2, 1:]
    return sides(S, k)


def roe_decomposition(u, c):
    """(u, c, lam, |lam|, 2c) with the eigenvalues lam = (l1, l2) = (u - c,
    u + c) as one pair and 2c = l2 - l1: what |J| and the Roe source split
    read."""
    lam = np.empty((2, *c.shape))
    np.subtract(u, c, lam[0, ...])
    np.add(u, c, lam[1, ...])
    return u, c, lam, np.abs(lam), c + c  # c + c is 2.0 * c exactly


def jacobian_terms(u, c):
    """(c^2, c^2 - u^2, 2u): J = [[0, 1], [c^2 - u^2, 2u]] and the c^2 of
    the omega source split."""
    c2 = c * c
    return c2, c2 - u * u, u + u  # u + u is 2.0 * u exactly


def linearisation(u, c, omega_ab):
    """What the flux and its source split share at each interface: the
    ``roe_decomposition``, or for an omega flux the ``jacobian_terms``."""
    return roe_decomposition(u, c) if omega_ab is None else jacobian_terms(u, c)


def apply_jacobian(terms, v0, v1):
    """J (v0, v1) from the ``jacobian_terms``."""
    _, k, u2 = terms
    return v1, k * v0 + u2 * v1


def abs_jacobian(eig):
    """|J| = K |Lambda| K^-1 from the ``roe_decomposition``, as two pairs of
    its entries: the diagonal (m00, m11) and the off-diagonal (m01, m10)."""
    _, _, lam, A, d = eig
    l1, l2, a, b = lam[0, ...], lam[1, ...], A[0, ...], A[1, ...]
    M = np.empty((4, *d.shape))
    m00, m11, m01, m10 = M[0, ...], M[1, ...], M[2, ...], M[3, ...]
    np.multiply(a, l2, m00)
    m00 -= b * l1
    np.multiply(b, l2, m11)
    m11 -= a * l1
    np.subtract(b, a, m01)
    np.subtract(a, b, m10)
    m10 *= l1 * l2
    M /= d
    return M[:2], M[2:]


def lambda_floor(u, c):
    """Scale-relative threshold below which an eigenvalue counts as zero."""
    return _EPS * np.maximum(_ONE, np.abs(u) + c)


def omega_coefficients(omega, dx, dt):
    """(a, b) = ((1-omega) dx/dt, omega dt/dx), the weights of Id and J^2."""
    if not (dx > 0 and dt > 0):
        raise ValueError("dx and dt must be positive")
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")
    return (1.0 - omega) * dx / dt, omega * dt / dx


def omega_weights(flux, cfl, dx, dt):
    """``omega_ab`` of the flux named ``flux``: None for 'roe', else the
    ``omega_coefficients`` of its rule's omega(CFL), each a ``_constant``."""
    if flux == "roe":
        return None
    return tuple(map(_constant, omega_coefficients(OMEGA_RULES[flux](cfl), dx, dt)))


def dissipation(D, lin, omega_ab=None):
    """|J| (dh, dq) for the Roe flux, or (a Id + b J^2) (dh, dq) with
    ``omega_ab = (a, b)``, as one pair, from the jump D (see
    ``interfaces``), which it overwrites, and the ``linearisation`` ``lin``."""
    jump = D[1:]
    if omega_ab is None:
        diagonal, off = abs_jacobian(lin)
        diagonal *= jump  # m00 dh, m11 dq
        off *= D[:2]  # m01 dq, m10 dh
        diagonal += off
        return diagonal
    a, b = omega_ab
    _, k, u2 = lin
    d0, d1 = jump[0, ...], jump[1, ...]
    JJ = np.empty_like(jump)  # J^2 D = J (d1, j1) = (j1, k d1 + u2 j1)
    j1, jj1 = JJ[0, ...], JJ[1, ...]
    np.multiply(k, d0, j1)
    j1 += u2 * d1
    np.multiply(k, d1, jj1)
    jj1 += u2 * j1
    jump *= a
    JJ *= b
    jump += JJ
    return jump


def interface_flux(mean, v):
    """1/2 (F_l + F_r) - 1/2 v from the mean of the physical fluxes (see
    ``interfaces``) and the ``dissipation`` v: the one formula of every
    flux, on (mass, momentum) pairs. Both arguments are overwritten."""
    v *= _HALF
    mean -= v
    return mean


def flux(S, k, omega_ab=None, wet=None):
    """Roe flux, or an omega flux with ``omega_ab = (a, b)``, of the side
    states ``S`` (see ``sides``), as one pair, zero where not live (see
    ``wet_pairs``)."""
    mean, D, (u, c), live = sides(S, k, wet)
    v = dissipation(D, linearisation(u, c, omega_ab), omega_ab)
    return _masked(live, interface_flux(mean, v))


def _split(c2, dH, up):
    """(S-, S+) = 1/2 ((0, c^2 dH) -+ up), each a pair."""
    plus = np.empty_like(up)
    plus[0, ...] = 0.0
    np.multiply(c2, dH, plus[1, ...])
    minus = plus - up
    minus *= _HALF
    plus += up
    plus *= _HALF
    return minus, plus


def roe_source(eig, dH):
    """S+- = 1/2 (Id +- |J| J^-1) (0, c^2 dH), as (S-, S+), each a pair, from
    the ``roe_decomposition``.

    |J| J^-1 (0, c^2) = c^2 K sgn(Lambda) K^-1 e2, each sign taken as
    lam / max(|lam|, lambda_floor) so sonic interfaces stay finite.
    """
    u, c, lam, A, d = eig
    c2 = c * c
    sign = np.maximum(A, lambda_floor(u, c))
    np.divide(lam, sign, sign)  # s1, s2
    sign_lam = sign * lam  # s1 l1, s2 l2
    up = np.empty_like(sign)
    up0, up1 = up[0, ...], up[1, ...]
    np.subtract(sign[1, ...], sign[0, ...], up0)  # s2 - s1
    np.subtract(sign_lam[1, ...], sign_lam[0, ...], up1)  # s2 l2 - s1 l1
    del sign, sign_lam
    for row in up0, up1:
        row *= c2
        row /= d
        row *= dH
    return _split(c2, dH, up)


def omega_source(terms, dH, a, b):
    """S+- = 1/2 [(0, c^2 dH) +- (a (J*)^-1 + b J) (0, c^2 dH)], as (S-, S+),
    each a pair, from the ``jacobian_terms``, with (J*)^-1 (0, c^2 dH) =
    (dH, 0) and J (0, c^2 dH) = (c^2 dH, 2 u c^2 dH)."""
    c2, _, u2 = terms
    up = np.empty((2, *dH.shape))
    up0, up1 = up[0, ...], up[1, ...]
    np.multiply(a, dH, up0)
    c2dH = c2 * dH
    c2dH *= b
    up0 += c2dH
    del c2dH
    np.multiply(u2, c2, up1)
    up1 *= dH
    up1 *= b
    return _split(c2, dH, up)


def hr_depths(hl, Hl, hr, Hr, out=None, H_star=None):
    """H* = min(H_l, H_r) (``H_star`` if given), the depths (h-, h+)
    re-measured from H* and clipped at zero, as one pair (``out`` if given),
    and the large-step flags (a column truncated)."""
    H_star = np.minimum(Hl, Hr) if H_star is None else H_star
    e = np.empty((2, *H_star.shape)) if out is None else out
    el, er = e[0, ...], e[1, ...]
    np.subtract(hl, Hl, el)
    el += H_star
    np.subtract(hr, Hr, er)
    er += H_star
    truncated = e < _ZERO
    return H_star, np.maximum(e, _ZERO, out=e), truncated[0] | truncated[1]


def hydrostatic_bottom(H, modified):
    """H_l, H_r, H* = min(H_l, H_r) and, if ``modified``, the pair (H* - H_l, H_r - H*)."""
    Hl, Hr = H[:-1], H[1:]
    H_star = np.minimum(Hl, Hr)
    return Hl, Hr, H_star, np.array((H_star - Hl, Hr - H_star)) if modified else None


def hr_source(h, depths, k):
    """Momentum parts p(h-) - p(h_l) of S- and p(h_r) - p(h+) of S+, as one
    pair, at the interfaces between consecutive cells of the row ``h``, from
    their reconstructed ``depths`` (h-, h+) (see ``hr_depths``)."""
    p, split = pressure(h, k.HALF_G), pressure(depths, k.HALF_G)
    split[0, ...] -= p[:-1]
    np.subtract(p[1:], split[1, ...], split[1, ...])
    return split


def gate_threshold(h, u, g, policy):
    """Right-hand side of the energy gate: the critical-head form (3/2)
    ((g h u)^2)^(1/3) ('dimensional', the default) or the printed form
    (3/2) sqrt((g h u)^3), dimensionally inconsistent with the
    specific-energy left-hand side ('as-printed'); callers ``check_gate``."""
    ghu = g * h * u
    if policy == "dimensional":
        return 1.5 * np.cbrt(ghu * ghu)
    return 1.5 * np.sqrt(np.maximum(ghu, _ZERO) ** 3)


def large_step_corrections(hl, ul, Hl, hr, ur, Hr, recon, split, dH, k, gate,
                           all_cells_wet=False):
    """(T-, T+) of the modified reconstruction, as one pair, and the gate
    flags, from the outputs ``recon`` of ``hr_depths`` and ``split`` of
    ``hr_source`` and the bottom drops ``dH`` of ``hydrostatic_bottom``.

    T turns a side's source into the straight-segment integral over the
    full step. At an emerging bottom (one side dry below the opposite
    bottom level) it applies only if the energy gate lets the fluid climb;
    a caller that knows every cell is wet says so (``all_cells_wet``), and
    no bottom emerges.
    """
    check_gate(gate)
    _, depths, large = recon
    apply, gated = large, np.zeros(large.shape, bool)
    if not all_cells_wet:
        emerging_r = (hr <= k.H_DRY) & (hl - Hl + Hr < _ZERO)
        emerging_l = (hl <= k.H_DRY) & (hr - Hr + Hl < _ZERO)
        gate_r = emerging_r & (ul > _ZERO) & (
            _HALF * ul * ul + k.G * (hl - Hl + Hr) > gate_threshold(hl, ul, k.G, gate))
        gate_l = emerging_l & (ur < _ZERO) & (
            _HALF * ur * ur + k.G * (hr - Hr + Hl) > gate_threshold(hr, -ur, k.G, gate))
        gated = gate_r | gate_l
        apply = large & (~(emerging_r | emerging_l) | gated)
    # T- = g/2 (h_l + h-) (H* - H_l) - S-, T+ = g/2 (h_r + h+) (H_r - H*) - S+
    T = np.empty_like(depths)
    np.add(hl, depths[0, ...], T[0, ...])
    np.add(hr, depths[1, ...], T[1, ...])
    T *= k.HALF_G
    T *= dH
    T -= split
    return np.where(apply, T, _ZERO), gated


def upwind(W, k, omega_ab=None, dH=None):
    """Roe flux with the characteristic source split, or an omega centred
    flux, ``omega_ab = (a, b)``, with its paired source split, over the
    interfaces between consecutive cells of the row W = (h, q, H) (dH = H_r - H_l)."""
    mean, D, (u, c), wet = row_sides(W, k)
    lin = linearisation(u, c, omega_ab)
    F = interface_flux(mean, dissipation(D, lin, omega_ab))
    del D
    dH = W[2, 1:] - W[2, :-1] if dH is None else dH
    if omega_ab is None:
        minus, plus = roe_source(lin, dH)
    else:
        minus, plus = omega_source(lin, dH, *omega_ab)
    return _masked(wet, F), _masked(wet, minus), _masked(wet, plus)


def hydrostatic(W, k, modified, gate, omega_ab=None, bottom=None):
    """Hydrostatic reconstruction over the Roe flux, or an omega flux with
    ``omega_ab = (a, b)``, over the interfaces between consecutive cells of
    the row W = (h, q, H); ``modified`` adds the large-step corrections.
    The flux is zero unless a side is wet and so is a reconstructed column
    (not, e.g., at rest against a bank; see ``wet_pairs``), the sources
    unless a side is. The sources are the momentum parts of S- and S+ alone:
    they have no mass part. Whether every cell is wet is decided once, and
    the ``hydrostatic_bottom`` of H only if not given as ``bottom``."""
    h, q = W[0], W[1]
    if all_wet(h, k.h_dry):
        wet, u = True, q / h
    else:
        wet, u = (h[:-1] > k.H_DRY) | (h[1:] > k.H_DRY), cell_velocity(h, q, k.H_DRY)
    hl, ul, hr, ur = h[:-1], u[:-1], h[1:], u[1:]
    Hl, Hr, H_star, dH = bottom or hydrostatic_bottom(W[2], modified)
    S = np.empty((2, 2, *hl.shape))  # the reconstructed columns, see ``sides``
    depths = S[0]
    recon = hr_depths(hl, Hl, hr, Hr, out=depths, H_star=H_star)
    sources = hr_source(h, depths, k)
    large = recon[2]
    if modified and large.item(large.argmax()):  # any(), read at the argmax
        sources += large_step_corrections(hl, ul, Hl, hr, ur, Hr, recon, sources, dH, k, gate,
                                          all_cells_wet=wet is True)[0]
    del recon
    np.multiply(depths[0], ul, out=S[1, 0, ...])
    np.multiply(depths[1], ur, out=S[1, 1, ...])
    F = flux(S, k, omega_ab, wet)
    if wet is not True:
        sources = _masked(wet, sources)
    return F, sources[0], sources[1]
