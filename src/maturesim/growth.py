"""Collagen density evolution: biological and mechanically driven growth.

The density rate splits into a cell-driven part following a Weibull time
course and a mechanotransduction part that switches on once the stored
collagen energy per unit mass exceeds a critical threshold,

    rho_dot = rho_dot_bio(t) + rho_dot_mech(rho, psi_m).

Time integration is backward Euler; the scalar update is solved with a
bracketed Newton iteration.  The update also returns the sensitivity
d rho / d psi_m obtained from the implicit function theorem, which the
constitutive layer needs for consistent tangents.

Units: densities in ug/mm^3, energies per unit mass in MPa mm^3/ug
(= mJ/ug), times in days.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SolverError, StateError

#: absolute residual tolerance of the density update, ug/mm^3
UPDATE_TOL = 1e-12
#: iteration cap of the density update
UPDATE_MAXIT = 50


@dataclass(frozen=True)
class GrowthParams:
    """Parameters of the density evolution law.

    a1: bio growth gain, ug/cells.
    a2: mechanical growth gain, mm^3/(cells day).
    psi_crit: critical collagen energy per unit mass, MPa mm^3/ug.
    rho_th: saturation density of the mechanical term, ug/mm^3.
    c_cell: cell concentration, cells/mm^3.
    tau, h: Weibull scale (days) and shape of the bio time course.
    """

    a1: float
    a2: float
    psi_crit: float
    rho_th: float
    c_cell: float
    tau: float
    h: float

    def __post_init__(self):
        for name in ("a1", "a2", "psi_crit", "rho_th", "c_cell", "tau"):
            if getattr(self, name) <= 0.0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if self.h <= 1.0:
            raise ParameterError(f"Weibull shape h must exceed 1, got {self.h}")


@dataclass(frozen=True)
class GrowthState:
    """Per-point internal state: density, and the per-mass collagen energy
    and density sensitivity of its last update.  The fields are arrays when
    the state belongs to a stack of points (see `total_response`).

    Construction is the package's one admissibility check of a density and
    of psi_m: each must be finite and non-negative at every point, NaN
    failing too, or StateError is raised.  Functions that take a density or
    psi_m from their caller check it by building a state from it.
    """

    rho: float = 0.0
    drho_dpsim: float = 0.0
    psi_m: float = 0.0

    def __post_init__(self):
        for name, what in (("rho", "density"),
                           ("psi_m", "collagen energy per unit mass")):
            value = np.asarray(getattr(self, name), dtype=float)
            # NaN fails both comparisons
            if not np.all((value >= 0.0) & (value < np.inf)):
                raise StateError(f"{what} must be finite and non-negative, "
                                 f"got {getattr(self, name)}")


def _weibull_time(t, tau, h):
    """t as an array, once tau and h are positive and finite and every t
    finite and non-negative (NaN fails each test); ParameterError if not."""
    if not (0.0 < tau < np.inf and 0.0 < h < np.inf):
        raise ParameterError(f"tau and h must be positive and finite, got {tau}, {h}")
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t < np.inf)):
        raise ParameterError("time must be finite and non-negative")
    return t


def weibull_alpha(t, tau, h):
    """Weibull CDF alpha(t) = 1 - exp(-(t/tau)^h), the bio time course."""
    t = _weibull_time(t, tau, h)
    out = 1.0 - np.exp(-((t / tau) ** h))
    return out if out.ndim else float(out)


def weibull_alpha_rate(t, tau, h):
    """d alpha / d t.  Defined as 0 at t = 0 for shapes h > 1."""
    t = _weibull_time(t, tau, h)
    if h <= 1.0 and np.any(t == 0.0):
        raise ParameterError("rate at t = 0 is undefined for h <= 1")
    x = t / tau
    with np.errstate(divide="ignore"):
        out = np.where(x > 0.0, (h / tau) * np.exp(-(x**h)) * x ** (h - 1.0), 0.0)
    return out if out.ndim else float(out)


def bio_rate(t, p: GrowthParams):
    """Cell-driven density rate a1 * c_cell * d alpha/dt, ug/mm^3/day."""
    return p.a1 * p.c_cell * weibull_alpha_rate(t, p.tau, p.h)


def mech_rate(rho, psi_m, p: GrowthParams):
    """Mechanically driven density rate; zero below the energy threshold.

    rho_dot_mech = a2 * c_cell * exp(-rho/rho_th) * rho * (psi_m - psi_crit)/psi_crit
    """
    GrowthState(rho=rho, psi_m=psi_m)
    rho = np.asarray(rho, dtype=float)
    psi_m = np.asarray(psi_m, dtype=float)
    rate = _mech_partials(rho, (psi_m - p.psi_crit) / p.psi_crit, p)[0]
    out = np.where(psi_m >= p.psi_crit, rate, 0.0)
    return out if out.ndim else float(out)


def _mech_partials(rho, q, p: GrowthParams):
    """m, dm/drho, dm/dpsi and second partials of the active mechanical rate.

    q = (psi_m - psi_crit)/psi_crit is the threshold excess.
    """
    A = p.a2 * p.c_cell
    e = np.exp(-rho / p.rho_th)
    m = A * e * rho * q
    m_r = A * e * q * (1.0 - rho / p.rho_th)
    m_p = A * e * rho / p.psi_crit
    m_rr = A * e * q * (rho / p.rho_th - 2.0) / p.rho_th
    m_rp = A * e * (1.0 - rho / p.rho_th) / p.psi_crit
    return m, m_r, m_p, m_rr, m_rp


def update_density_batch(rho_n, psi_m, t_np1, dt, p: GrowthParams):
    """Backward-Euler density update for a batch of points.

    Solves rho = rho_n + dt * (rho_dot_bio(t_np1) + rho_dot_mech(rho, psi_m))
    for each point and returns (rho, drho_dpsim, d2rho_dpsim2).  The bio rate
    is evaluated at the end of the step.  Sensitivities are zero wherever the
    mechanical branch is inactive.
    """
    rho_n = np.atleast_1d(np.asarray(rho_n, dtype=float))
    psi_m = np.atleast_1d(np.asarray(psi_m, dtype=float))
    if rho_n.shape != psi_m.shape:
        raise ParameterError("rho_n and psi_m must have matching shapes")
    GrowthState(rho=rho_n, psi_m=psi_m)
    if not 0.0 <= dt < np.inf:
        raise ParameterError(f"dt must be finite and non-negative, got {dt}")

    D = np.zeros_like(rho_n)
    D2 = np.zeros_like(rho_n)
    if dt == 0.0:
        return rho_n.copy(), D, D2

    rho = rho_n + dt * bio_rate(t_np1, p)
    active = psi_m >= p.psi_crit
    if not np.any(active):
        return rho, D, D2

    psi_a = psi_m[active]
    # an excess so large that the rates overflow leaves no root to find in
    # floating point: the same failure as a residual above UPDATE_TOL
    try:
        with np.errstate(over="raise"):
            x, Da, D2a = _update_active(rho[active], psi_a, dt, p)
    except FloatingPointError:
        raise SolverError("density update did not converge", residual=np.inf,
                          psi_m=float(np.max(psi_a)),
                          tolerance=UPDATE_TOL) from None
    rho[active] = x
    D[active] = Da
    D2[active] = D2a
    return rho, D, D2


def _update_active(base, psi_a, dt, p: GrowthParams):
    """Density update of the points whose psi_m reaches psi_crit.

    `base` is their bio-only predictor.  Returns (rho, drho_dpsim,
    d2rho_dpsim2) of those points.
    """
    q = (psi_a - p.psi_crit) / p.psi_crit
    # Upper bracket: m <= A*q*rho_th/e bounds the root by the first term,
    # which grows linearly in q.  The second grows like log q: for
    # x >= 2*base and x >= rho_th*log(2*dt*A*q), x - base >= x/2 >= dt*m(x),
    # so the residual is non-negative there.
    dtAq = dt * p.a2 * p.c_cell * q
    hi = np.minimum(base + dtAq * p.rho_th / np.e,
                    np.maximum(2.0 * base,
                               p.rho_th * np.log(np.maximum(2.0 * dtAq, 1.0))))
    lo = base.copy()  # the bio-only predictor is the lower bracket
    x = base.copy()
    converged = np.zeros(x.shape, dtype=bool)
    for _ in range(UPDATE_MAXIT):
        m, m_r, _, _, _ = _mech_partials(x, q, p)
        r = x - base - dt * m
        # a residual within a few ulps of the density is converged too:
        # above rho ~ 560 that exceeds UPDATE_TOL, which round-off in r
        # would otherwise keep out of reach
        converged = np.abs(r) <= np.maximum(UPDATE_TOL, 8.0 * np.finfo(float).eps * x)
        if np.all(converged):
            break
        lo = np.where((r < 0.0) & ~converged, x, lo)
        hi = np.where((r > 0.0) & ~converged, x, hi)
        dr = 1.0 - dt * m_r
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_newton = x - r / dr
        bad = (dr <= 0.0) | (x_newton <= lo) | (x_newton >= hi) | ~np.isfinite(x_newton)
        x = np.where(converged, x, np.where(bad, 0.5 * (lo + hi), x_newton))
    else:
        resid = np.abs(x - base - dt * _mech_partials(x, q, p)[0])
        worst = int(np.argmax(resid))
        raise SolverError(
            "density update did not converge",
            residual=float(resid[worst]),
            psi_m=float(psi_a[worst]),
            tolerance=UPDATE_TOL,
            iterations=UPDATE_MAXIT,
        )

    m, m_r, m_p, m_rr, m_rp = _mech_partials(x, q, p)
    dr = 1.0 - dt * m_r
    Da = dt * m_p / dr
    D2a = dt * (m_rr * Da**2 + 2.0 * m_rp * Da) / dr
    return x, Da, D2a


def update_density(state: GrowthState, t_np1, dt, psi_m, p: GrowthParams) -> GrowthState:
    """Single-point backward-Euler update; see `update_density_batch`."""
    rho, D, _ = update_density_batch(
        np.array([state.rho]), np.array([float(psi_m)]), t_np1, dt, p
    )
    return GrowthState(rho=float(rho[0]), drho_dpsim=float(D[0]),
                       psi_m=float(psi_m))
