"""Collagen density evolution: biological and mechanically driven growth.

The density rate splits into a cell-driven part following a Weibull time
course and a mechanotransduction part that switches on once the stored
collagen energy per unit mass exceeds a critical threshold,

    rho_dot = rho_dot_bio(t) + rho_dot_mech(rho, psi_m).

Time integration is backward Euler; the scalar update is solved by Newton's
method on the log form of its residual, finished by Newton steps on the
residual itself.  The update also returns the sensitivity
d rho / d psi_m obtained from the implicit function theorem, which the
constitutive layer needs for consistent tangents.

Units: densities in ug/mm^3, energies per unit mass in MPa mm^3/ug
(= mJ/ug), times in days.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SolverError, StateError, check_range

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

    Every field must be positive and finite, h greater than 1 and the bio
    rate's scale h / tau finite; ParameterError otherwise.
    """

    a1: float
    a2: float
    psi_crit: float
    rho_th: float
    c_cell: float
    tau: float
    h: float

    def __post_init__(self):
        # every field is a positive constant, and the shape h exceeds 1
        check_range(vars(self), 0.0, "positive and finite")
        check_range({"h": self.h}, 1.0, "greater than 1 and finite")
        # a rate scale past the float range makes rates NaN (see weibull_alpha_rate)
        check_range({"h / tau": float(self.h) / float(self.tau)}, 0.0, "positive and finite")


@dataclass(frozen=True)
class GrowthState:
    """Per-point internal state: density, and the per-mass collagen energy
    of its last update.  The fields are arrays when the state belongs to a
    stack of points (see `total_response`).

    Construction is the package's one admissibility check of a density and
    of psi_m: each must be finite and non-negative at every point, NaN
    failing too, or StateError is raised.  Functions that take a density or
    psi_m from their caller check it by building a state from it.
    """

    rho: float = 0.0
    psi_m: float = 0.0

    def __post_init__(self):
        for name, what in (("rho", "density"),
                           ("psi_m", "collagen energy per unit mass")):
            value = np.asarray(getattr(self, name), dtype=float)
            # NaN fails both comparisons
            if not ((value >= 0.0) & (value < np.inf)).all():
                raise StateError(f"{what} must be finite and non-negative, "
                                 f"got {getattr(self, name)}")


def _weibull_time(t):
    """t as an array, once every t is finite and non-negative;
    ParameterError if not."""
    t = np.asarray(t, dtype=float)
    check_range({"time": t}, 0.0, "finite and non-negative", closed=True)
    return t


def weibull_alpha(t, tau, h):
    """Weibull CDF alpha(t) = 1 - exp(-(t/tau)^h), the bio time course."""
    check_range({"tau": tau, "h": h}, 0.0, "positive and finite")
    t = _weibull_time(t)
    # (t/tau)^h past the float range is alpha = 1
    with np.errstate(over="ignore"):
        out = 1.0 - np.exp(-((t / tau) ** h))
    return out if out.ndim else float(out)


def weibull_alpha_rate(t, tau, h):
    """d alpha / d t.  Defined as 0 at t = 0 for shapes h > 1."""
    check_range({"tau": tau, "h": h}, 0.0, "positive and finite")
    # the rate's scale, past the float range or rounded to 0, makes the rate
    # NaN where it meets (t/tau)^(h-1) = 0 or inf; floats divide silently
    check_range({"h / tau": float(h) / float(tau)}, 0.0, "positive and finite")
    t = _weibull_time(t)
    if h <= 1.0 and np.any(t == 0.0):
        raise ParameterError("rate at t = 0 is undefined for h <= 1")
    return _alpha_rate(t, tau, h)


def _alpha_rate(t, tau, h):
    """d alpha / d t at checked times t, for a checked tau and h."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = t / tau
        xh = x**h
        # where (t/tau)^h passes the float range the rate is 0 and the
        # product below is not finite
        out = np.where((x > 0.0) & (xh < np.inf),
                       (h / tau) * np.exp(-xh) * x ** (h - 1.0), 0.0)
    return out if out.ndim else float(out)


def bio_rate(t, p: GrowthParams):
    """Cell-driven density rate a1 * c_cell * d alpha/dt, ug/mm^3/day.

    Only t is checked here: `p` checked tau and h when it was built.
    """
    return p.a1 * p.c_cell * _alpha_rate(_weibull_time(t), p.tau, p.h)


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
    check_range({"dt": dt}, 0.0, "finite and non-negative", closed=True)

    D = np.zeros(rho_n.shape)
    D2 = np.zeros(rho_n.shape)
    if dt == 0.0:
        return rho_n.copy(), D, D2

    rho = rho_n + dt * bio_rate(t_np1, p)
    active = psi_m >= p.psi_crit
    if not active.any():
        return rho, D, D2

    x, Da, D2a = _update_active(rho[active], psi_m[active], dt, p)
    rho[active] = x
    D[active] = Da
    D2[active] = D2a
    return rho, D, D2


def _update_tolerance(x, dr):
    """Residual accepted as converged at densities x, where dr = 1 - dt*m_rho
    is the residual's slope.

    UPDATE_TOL, unless round-off puts it out of reach: a residual within a
    few ulps of the density (above rho ~ 560), or one whose Newton
    correction r/dr is at most eps*|x|/4.  Doubles at x are at least
    eps*|x|/2 apart, so such a correction rounds back to x and no update
    can reduce the residual further; where rho lands far above rho_th in
    one step, |dr| ~ rho/rho_th is large and this allowance exceeds
    UPDATE_TOL.
    """
    eps = np.finfo(float).eps
    return np.maximum(UPDATE_TOL, eps * np.abs(x) * np.maximum(8.0, 0.25 * np.abs(dr)))


def _update_active(base, psi_a, dt, p: GrowthParams):
    """Density update of the points whose psi_m reaches psi_crit.

    `base` is their bio-only predictor.  Returns (rho, drho_dpsim,
    d2rho_dpsim2) of those points.

    The root of r(rho) = rho - base - dt*m(rho), m = A*q*rho*exp(-rho/rho_th)
    with A = a2*c_cell, lies at or above `base`, where it is also the root of
    the log form g = s - ln(rho) - L + rho/rho_th, s = ln(rho - base) and
    L = ln(dt*A*q).  Newton steps in s keep every iterate above `base` and
    reach a root far above rho_th in a few steps; once such a step moves rho
    by less than 1e-8*rho, Newton steps on r finish, since g's root can lie
    a few ulps off r's.  Convergence is judged on r with `_update_tolerance`.
    A point whose excess q overflows, whose iterate returns to its previous
    value unconverged, or which is still unconverged after UPDATE_MAXIT
    updates, raises SolverError naming its psi_m, its residual and the
    tolerance applied to it; one whose slope dr/drho = 1 - dt*m_rho is 0 at
    an iterate, where D = dt*m_psi/(dr/drho) would divide by 0, raises it
    naming its psi_m and the slope.
    """
    with np.errstate(over="ignore"):
        q = (psi_a - p.psi_crit) / p.psi_crit
    if not np.isfinite(q).all():
        # an excess that overflows leaves no root to find in floating point
        worst = int(np.argmax(psi_a))
        raise SolverError("density update did not converge", residual=np.inf,
                          psi_m=float(psi_a[worst]), tolerance=UPDATE_TOL)
    with np.errstate(divide="ignore"):  # q = 0 at psi_m = psi_crit
        L = np.log(float(dt)) + np.log(p.a2 * p.c_cell) + np.log(q)
    # start at base + dt*m(base) where that lift is at most base; a larger
    # lift puts the root above max(2*base, rho_th*L), a start from which the
    # first step in s is bounded (the capped exponent cannot overflow)
    lift = base * np.exp(np.minimum(L - base / p.rho_th, 1.0))
    x = np.where(lift > base, np.maximum(2.0 * base, p.rho_th * L), base + lift)
    prev = x
    for it in range(UPDATE_MAXIT + 1):
        m, m_r, m_p, m_rr, m_rp = _mech_partials(x, q, p)
        r = x - base - dt * m
        dr = 1.0 - dt * m_r
        if (dr == 0.0).any():
            # the bifurcation of the roots rho = 0 and rho = rho_th*L (base
            # = 0, L = 0): neither a Newton step on r nor D exists there
            worst = int(np.argmax(dr == 0.0))
            raise SolverError("density update has a zero slope",
                              residual=float(abs(r[worst])),
                              psi_m=float(psi_a[worst]), slope=0.0,
                              iterations=it)
        tol = _update_tolerance(x, dr)
        converged = np.abs(r) <= tol
        if converged.all():
            break
        d = x - base
        # d = 0 only at points converged at base; their step is discarded
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.log(d) - np.log(x) - L + x / p.rho_th
            x_log = base + d * np.exp(-g / (base / x + d / p.rho_th))
        # a step on r that rounds back to x moves one ulp instead, so a point
        # that cannot converge shows as a return to its previous iterate
        x_r = x - r / dr
        x_r = np.where(x_r == x, np.nextafter(x, np.where(r > 0.0, -np.inf, np.inf)), x_r)
        x_new = np.where(converged, x,
                         np.where(np.abs(x_log - x) < 1e-8 * x, x_r, x_log))
        failed = ~converged & ((x_new == prev) | (it == UPDATE_MAXIT))
        if failed.any():
            worst = int(np.argmax(np.where(failed, np.abs(r) / tol, 0.0)))
            raise SolverError("density update did not converge",
                              residual=float(abs(r[worst])),
                              psi_m=float(psi_a[worst]),
                              tolerance=float(tol[worst]), iterations=it)
        prev, x = x, x_new

    Da = dt * m_p / dr
    D2a = dt * (m_rr * Da**2 + 2.0 * m_rp * Da) / dr
    return x, Da, D2a

