"""Mixed stretch/stress control of a single material point.

Drives a point through a diagonal deformation history F = diag(l1, l2, l3)
where each axis is either stretch-controlled or traction-free.  Free axes
are solved by Newton iteration so the corresponding Cauchy stress components
vanish; the growth state marches with the prescribed time axis.  This is
the workhorse behind uniaxial/biaxial test protocols and the calibration
forward models.
"""

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SolverError
from .growth import GrowthParams, GrowthState, bio_rate
from .materials import (MaterialParams, cauchy_stress, collagen_psi_mass,
                        total_response)

#: free-axis convergence tolerance on Cauchy stress, MPa
STRESS_TOL = 1e-10
NEWTON_MAXIT = 30

FREE = "free"

CSV_HEADER = "time,F11,F22,F33,S11,S22,S33,sigma11,sigma22,sigma33,rho,psi_m"


@dataclass(frozen=True, eq=False)
class LoadProgram:
    """Piecewise-linear schedule of per-axis controls.

    `times` are the knot times (days, strictly increasing, starting at 0).
    `controls` holds one entry per axis: either the string "free" or an
    array of knot values.  Values are stretches, or engineering strains when
    `strain_measure` == "engineering" (converted at construction).  Between
    knots the controlled values are interpolated linearly and each interval
    is cut into `steps_per_interval` equal growth steps.  `grow=False`
    freezes the density (pure hyperelastic protocol).
    """

    times: np.ndarray
    controls: tuple
    steps_per_interval: int = 1
    strain_measure: str = "stretch"
    grow: bool = True

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ParameterError("program needs at least two knot times")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
            raise ParameterError("knot times must start at 0 and increase strictly")
        object.__setattr__(self, "times", times)
        if self.strain_measure not in ("stretch", "engineering"):
            raise ParameterError(f"unknown strain measure {self.strain_measure!r}")
        if len(self.controls) != 3:
            raise ParameterError("controls must cover exactly three axes")
        if self.steps_per_interval < 1:
            raise ParameterError("steps_per_interval must be at least 1")
        parsed = []
        n_controlled = 0
        for ax, c in enumerate(self.controls):
            if isinstance(c, str):
                if c != FREE:
                    raise ParameterError(f"axis {ax}: unknown control {c!r}")
                parsed.append(FREE)
                continue
            vals = np.asarray(c, dtype=float)
            if vals.shape != times.shape:
                raise ParameterError(f"axis {ax}: need one value per knot")
            if self.strain_measure == "engineering":
                vals = vals + 1.0
            if np.any(vals <= 0.0):
                raise ParameterError(f"axis {ax}: stretches must be positive")
            parsed.append(vals)
            n_controlled += 1
        if n_controlled == 0:
            raise ParameterError("at least one axis must be stretch-controlled")
        object.__setattr__(self, "controls", tuple(parsed))


@dataclass(eq=False)
class PointRecord:
    """State snapshot after a converged step."""

    time: float
    F: np.ndarray
    S: np.ndarray
    sigma: np.ndarray
    rho: float
    psi_m: float


def _free_axis_jacobian(lams, st, sigma, free):
    """d sigma_i / d lambda_j on the free axes for diagonal F.

    sigma_i = lambda_i^2 S_i / J with J = l1 l2 l3 and dS_i/dlambda_j =
    CC[(ii),(jj)] * lambda_j under the package tangent convention.
    """
    J = np.prod(lams)
    lf = lams[free]
    jac = (lf[:, None] ** 2 * (st.CC[np.ix_(free, free)] * lf)) / J - sigma[free, None] / lf
    jac[np.diag_indices(len(free))] += 2.0 * lf * st.S[free] / J
    return jac


def solve_mixed_point(program: LoadProgram, params: MaterialParams,
                      init: GrowthState = GrowthState()) -> list:
    """March a material point through a load program.

    Returns one `PointRecord` per step, the first being the initial knot.
    Raises SolverError when a free-axis Newton iteration stalls.
    """
    free = [ax for ax, c in enumerate(program.controls) if isinstance(c, str)]
    controlled = [ax for ax in range(3) if ax not in free]

    def targets(k0, k1, w):
        lams = np.empty(3)
        for ax in controlled:
            vals = program.controls[ax]
            lams[ax] = (1.0 - w) * vals[k0] + w * vals[k1]
        return lams

    lams = np.ones(3)
    for ax in controlled:
        lams[ax] = program.controls[ax][0]

    state = init
    records = []

    def record(t, F, st, sigma, rho):
        psi_m, _ = collagen_psi_mass(F.T @ F, params.collagen)
        records.append(PointRecord(time=t, F=F.copy(), S=st.S.copy(),
                                   sigma=sigma.copy(), rho=rho, psi_m=psi_m))

    # initial point: solve free axes at t = 0 with frozen growth
    lams, F, st, sigma, _ = _newton_free_axes(lams, free, params, state, 0.0, 0.0)
    record(0.0, F, st, sigma, state.rho)

    t_prev = program.times[0]
    for k in range(len(program.times) - 1):
        t0, t1 = program.times[k], program.times[k + 1]
        for s in range(1, program.steps_per_interval + 1):
            w = s / program.steps_per_interval
            t = t0 + w * (t1 - t0)
            dt = (t - t_prev) if program.grow else 0.0
            tgt = targets(k, k + 1, w)
            for ax in controlled:
                lams[ax] = tgt[ax]
            lams, F, st, sigma, new_state = _newton_free_axes(lams, free, params,
                                                              state, dt, t)
            state = new_state if program.grow else state
            record(t, F, st, sigma, state.rho)
            t_prev = t
    return records


def _newton_free_axes(lams, free, params, state, dt, t):
    """Zero the Cauchy stress on the free axes.

    Returns the converged stretches with the evaluation taken there:
    (lams, F, stress/tangent, sigma, new growth state).
    """
    lams = lams.copy()
    last = np.inf
    for _ in range(NEWTON_MAXIT):
        F = np.diag(lams)
        st, new_state = total_response(F, params, state, dt, t)
        sigma = cauchy_stress(F, st.S)
        res = sigma[free]
        last = float(np.max(np.abs(res), initial=0.0))
        if last <= STRESS_TOL:
            return lams, F, st, sigma, new_state
        jac = _free_axis_jacobian(lams, st, sigma, free)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular free-axis Jacobian", residual=last) from exc
        for r, ax in enumerate(free):
            new = lams[ax] + step[r]
            # keep iterates physical; halve toward the old value if needed
            while new <= 0.05:
                step[r] *= 0.5
                new = lams[ax] + step[r]
            lams[ax] = new
    raise SolverError("free-axis Newton did not converge",
                      residual=last, tolerance=STRESS_TOL, iterations=NEWTON_MAXIT)


def unloaded_maturation(p: GrowthParams, t_end, dt):
    """Density history at F = I: the pure biological time course.

    Returns (times, rho) arrays with backward-Euler steps of size dt; with
    psi_m = 0 the update is explicit, a cumulative sum of bio increments.
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ParameterError("t_end and dt must be positive")
    times = np.arange(1, int(round(t_end / dt)) + 1) * dt
    return times, np.cumsum(dt * bio_rate(times, p))


def records_to_csv(records) -> str:
    """Serialize point records to the canonical CSV layout."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in records:
        fields = [r.time, r.F[0, 0], r.F[1, 1], r.F[2, 2],
                  r.S[0], r.S[1], r.S[2],
                  r.sigma[0], r.sigma[1], r.sigma[2], r.rho, r.psi_m]
        buf.write(",".join(f"{v:.17g}" for v in fields) + "\n")
    return buf.getvalue()
