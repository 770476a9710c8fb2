"""Mixed stretch/stress control of a single material point.

Drives a point through a diagonal deformation history F = diag(l1, l2, l3)
where each axis is either stretch-controlled or traction-free.  Free axes
are solved by Newton iteration on their stretches so the corresponding
Cauchy stress components vanish; the growth state marches with the
prescribed time axis.  This is the workhorse behind uniaxial/biaxial test
protocols and the calibration forward models.
"""

import io
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SolverError
from .growth import GrowthParams, GrowthState, bio_rate
from .materials import MaterialParams, total_response
from .tensors import VOIGT_I, VOIGT_J

#: free-axis convergence tolerance on Cauchy stress, MPa
STRESS_TOL = 1e-10
NEWTON_MAXIT = 30
#: most steps `unloaded_maturation` takes (its arrays are allocated whole)
UNLOADED_MAX_STEPS = 1_000_000

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
        if not np.all(np.isfinite(times)) or times[0] != 0.0 \
                or np.any(np.diff(times) <= 0.0):
            raise ParameterError("knot times must be finite, start at 0 and "
                                 "increase strictly")
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
            if not np.all((vals > 0.0) & np.isfinite(vals)):
                raise ParameterError(f"axis {ax}: stretches must be positive and finite")
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


def solve_mixed_point(program: LoadProgram, params: MaterialParams,
                      init: GrowthState = GrowthState()) -> list:
    """March a material point through a load program.

    Returns one `PointRecord` per step, the first being the initial knot.
    With `grow=False` the knots do not depend on one another and the whole
    path is one lockstep batch, its free stretches starting from the
    incompressible guess (1 / prod of the controlled stretches)^(1/n_free);
    a growing program is solved knot by knot in time, each knot starting
    from the last one's stretches.  Raises SolverError when a free-axis
    Newton iteration stalls, and DeformationError when an iterate takes the
    fibers past the collagen law's strain limit.
    """
    free = [ax for ax, c in enumerate(program.controls) if isinstance(c, str)]
    controlled = [ax for ax in range(3) if ax not in free]

    # the path: the initial knot, then per interval the step times
    # t0 + w (t1 - t0) and stretches (1 - w) v0 + w v1 at w = s/n, s = 1..n
    n = program.steps_per_interval
    w = np.arange(1, n + 1) / n
    t0, t1 = program.times[:-1, None], program.times[1:, None]
    path_t = np.concatenate([t0[0], (t0 + w * (t1 - t0)).ravel()])
    path_lams = np.ones((path_t.size, 3))
    for ax in controlled:
        v0, v1 = program.controls[ax][:-1, None], program.controls[ax][1:, None]
        path_lams[0, ax] = v0[0, 0]
        path_lams[1:, ax] = ((1.0 - w) * v0 + w * v1).ravel()

    if not program.grow:
        if free:
            vol = np.prod(path_lams[:, controlled], axis=1, keepdims=True)
            path_lams[:, free] = (1.0 / vol) ** (1.0 / len(free))
        lams, S, sigma, _, psi_m = _newton_free_axes(path_lams, free, params,
                                                     init.rho, 0.0, path_t[0])
        return [PointRecord(time=t, F=np.diag(lams[k]), S=S[k], sigma=sigma[k],
                            rho=init.rho, psi_m=float(psi_m[k]))
                for k, t in enumerate(path_t)]

    lams, rho, records = np.ones((1, 3)), init.rho, []   # free axes start at 1
    t_prev = path_t[0]
    for t, target in zip(path_t, path_lams):
        # the initial knot solves at dt = 0, so its density stays frozen
        lams[0, controlled] = target[controlled]
        lams, S, sigma, rho_new, psi_m = _newton_free_axes(lams, free, params,
                                                           rho, t - t_prev, t)
        rho = float(rho_new[0])
        records.append(PointRecord(time=t, F=np.diag(lams[0]), S=S[0],
                                   sigma=sigma[0], rho=rho,
                                   psi_m=float(psi_m[0])))
        t_prev = t
    return records


def _newton_free_axes(lams, free, params, rho, dt, t):
    """Zero the Cauchy stress on the free axes of a stack of points.

    `lams` (N, 3) holds the starting stretches of N points that share the
    free axes, the previous-level density `rho` and the step (dt, t).  The
    Newton runs in lockstep: each iterate evaluates the points not yet
    converged in one `total_response` call.  F = diag(lams), so
    J = l1 l2 l3 and the push-forward of the PK2 stress is
    sigma_ij = l_i S_ij l_j / J; each iterate takes J, sigma and the
    free-axis Jacobians from its stretches.  Returns the converged
    stretches with the evaluation each point converged at, all over the N
    points: (lams, S, sigma, rho, psi_m), rho being the updated density.
    """
    lams = np.array(lams, dtype=float)
    n = len(lams)
    S, sigma = np.empty((n, 6)), np.empty((n, 6))
    rho_new, psi_m = np.empty(n), np.empty(n)
    state = GrowthState(rho=rho)
    diag = np.diag_indices(len(free))
    todo = np.arange(n)
    for _ in range(NEWTON_MAXIT):
        lam = lams[todo]
        st, new_state = total_response(lam[:, :, None] * np.eye(3), params,
                                       state, dt, t)
        J = np.prod(lam, axis=1)[:, None]
        sig = (lam[:, VOIGT_I] * st.S) * lam[:, VOIGT_J] / J
        res = sig[:, free]
        err = np.max(np.abs(res), axis=1, initial=0.0)
        done = err <= STRESS_TOL
        hit = todo[done]
        S[hit], sigma[hit] = st.S[done], sig[done]
        rho_new[hit], psi_m[hit] = new_state.rho[done], new_state.psi_m[done]
        if done.all():
            return lams, S, sigma, rho_new, psi_m
        go = ~done
        todo, lam, J, res, err = todo[go], lam[go], J[go], res[go], err[go]
        # d sigma_i / d l_j on the free axes, with dS_i/dl_j = CC_ij l_j
        # under the package tangent convention
        lf = lam[:, free]
        CCf = st.CC[go][:, free][:, :, free]
        jac = (lf[:, :, None] ** 2 * (CCf * lf[:, None, :]) / J[:, :, None]
               - res[:, :, None] / lf[:, None, :])
        jac[:, diag[0], diag[1]] += 2.0 * lf * st.S[go][:, free] / J
        try:
            step = np.linalg.solve(jac, -res[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular free-axis Jacobian",
                              residual=float(np.max(err))) from exc
        # keep iterates physical: halve the step until every stretch stays
        # above a twentieth of its old value, a bound halving always meets
        new = lf + step
        while np.any(low := new <= 0.05 * lf):
            step[low] *= 0.5
            new = lf + step
        lams[todo[:, None], free] = new
    worst = int(np.argmax(err))
    raise SolverError("free-axis Newton did not converge",
                      residual=float(err[worst]), tolerance=STRESS_TOL,
                      iterations=NEWTON_MAXIT, point=int(todo[worst]))


def unloaded_maturation(p: GrowthParams, t_end, dt):
    """Density history at F = I: the pure biological time course.

    Returns (times, rho) arrays with backward-Euler steps of size dt; with
    psi_m = 0 the update is explicit, a cumulative sum of bio increments.
    """
    if not (0.0 < t_end < np.inf and 0.0 < dt < np.inf):
        raise ParameterError("t_end and dt must be positive and finite")
    if t_end / dt > UNLOADED_MAX_STEPS:
        raise ParameterError(f"dt = {dt:g} gives more than {UNLOADED_MAX_STEPS} "
                             f"steps up to t_end = {t_end:g}")
    n = int(round(t_end / dt))
    if n < 1:
        raise ParameterError(f"dt = {dt:g} gives no step up to t_end = {t_end:g}")
    times = np.arange(1, n + 1) * dt
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
