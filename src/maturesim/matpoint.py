"""Mixed stretch/stress control of a single material point.

Drives a point through a diagonal deformation history F = diag(l1, l2, l3)
where each axis is either stretch-controlled or traction-free.  Free axes
are solved by Newton iteration on their stretches so the corresponding
Cauchy stress components vanish; the growth state marches with the
prescribed time axis.  This is the workhorse behind uniaxial/biaxial test
protocols and the calibration forward models.  `program_path` lays out a
load program's path; `solve_frozen_path` solves a frozen-density one and
is the one place that orders its starts (a given start, the
incompressible guess, then knot by knot), for `solve_mixed_point` and
`calibrate` alike.
"""

import io
from dataclasses import dataclass

import numpy as np

from .errors import DeformationError, ParameterError, SolverError
from .growth import GrowthParams, GrowthState, bio_rate
from .materials import FIBER_STRAIN_MAX, MaterialParams, total_response
from .tensors import VOIGT_I, VOIGT_J

#: free-axis convergence tolerance on Cauchy stress, MPa
STRESS_TOL = 1e-10
#: a point whose full Newton step moves its free stretches by less than
#: this share is at its root as closely as floating point resolves it, also
#: where the stresses are so large that STRESS_TOL lies below their round-off
STEP_RTOL = 1e-15
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
    """March a material point through a load program from one density.

    Returns one `PointRecord` per step of `program_path(program)`, the
    first being the initial knot.  A frozen program (`grow=False`) keeps
    the density `init.rho` and is `solve_frozen_path`'s; a growing one is
    solved knot by knot in time, each knot starting from the last one's
    stretches.  Raises ParameterError when `init.rho` is not a scalar,
    SolverError when a free-axis Newton iteration stalls, and
    DeformationError when a knot takes the fibers past the collagen law's
    strain limit or its response past the float range.
    """
    if np.ndim(init.rho):
        raise ParameterError("init.rho must be one density, not an array")
    path_t, path_lams, free = program_path(program)
    if program.grow:
        solved = _solve_in_turn(path_lams, free, params, init.rho, path_t)
    else:
        solved = solve_frozen_path(path_lams, free, params, init.rho)
    return _records(path_t, *solved)


def program_path(program: LoadProgram):
    """The path of a load program: (times, stretches, free axes).

    The path is the initial knot, then per interval the step times
    t0 + w (t1 - t0) and stretches (1 - w) v0 + w v1 at w = s/n, s = 1..n.
    The stretches, one row per path point, hold the controlled axes' values
    and 1 on the free axes, which are listed in axis order.
    """
    n = program.steps_per_interval
    w = np.arange(1, n + 1) / n
    t0, t1 = program.times[:-1, None], program.times[1:, None]
    path_t = np.concatenate([t0[0], (t0 + w * (t1 - t0)).ravel()])
    path_lams = np.ones((path_t.size, 3))
    free = []
    for ax, c in enumerate(program.controls):
        if isinstance(c, str):
            free.append(ax)
            continue
        v0, v1 = c[:-1, None], c[1:, None]
        path_lams[0, ax] = v0[0, 0]
        path_lams[1:, ax] = ((1.0 - w) * v0 + w * v1).ravel()
    return path_t, path_lams, free


def solve_frozen_path(path_lams, free, params, rho, start=None, probe=False):
    """Free-axis solve of a frozen-density path, every knot at dt = 0.

    `path_lams` (N, 3) holds the path's stretches with the controlled axes
    set, `free` the free axes in axis order and `rho` the densities, one for
    all knots or one per knot; `start`, if given, the free-axis stretches
    to begin from, (N, len(free)), positive and finite, such as an earlier
    solve's converged stretches.  The knots do not depend on one another,
    so the path is one lockstep batch, tried from
    1. `start`, checked by its stress alone first with `probe` (see
       `_newton_free_axes`), and dropped where it does not lead every knot
       to its root: its batch stalls (SolverError) or leaves the range the
       material laws evaluate (DeformationError);
    2. the incompressible guess, free stretches (1 / prod of the controlled
       stretches)^(1/n_free);
    3. where the guess's batch stalls, knot by knot from the unit stretch,
       raising the guess's SolverError if that fails too.
    A start thus never changes which paths converge or which error a
    failure raises.  Returns the arrays of `_newton_free_axes` over the
    path: (lams, S, sigma, rho, psi_m).
    """
    if start is not None:
        guess = path_lams.copy()
        guess[:, free] = start
        try:
            return _newton_free_axes(guess, free, params, rho, 0.0, 0.0, probe)
        except (SolverError, DeformationError):
            pass
    guess = path_lams.copy()
    if free:
        controlled = [ax for ax in range(3) if ax not in free]
        vol = np.prod(path_lams[:, controlled], axis=1, keepdims=True)
        guess[:, free] = (1.0 / vol) ** (1.0 / len(free))
    try:
        return _newton_free_axes(guess, free, params, rho, 0.0, 0.0)
    except SolverError as exc:
        try:
            return _solve_in_turn(path_lams, free, params, rho)
        except SolverError:
            raise exc from None


def _records(path_t, lams, S, sigma, rho, psi_m):
    """One `PointRecord` per path point of a solved path."""
    return [PointRecord(time=t, F=np.diag(lams[k]), S=S[k], sigma=sigma[k],
                        rho=float(rho[k]), psi_m=float(psi_m[k]))
            for k, t in enumerate(path_t)]


def _solve_in_turn(path_lams, free, params, rho, path_t=None):
    """Solve a path knot by knot, each from the last one's stretches.

    The free axes start at 1.  Given the knot times `path_t`, the density
    grows from knot to knot, starting at the scalar `rho`; without them
    each knot keeps its frozen density, `rho` being one for all knots or
    one per knot, and solves at dt = 0.  Returns the arrays of
    `_newton_free_axes` over the path.
    """
    controlled = [ax for ax in range(3) if ax not in free]
    frozen = path_t is None
    times = np.zeros(len(path_lams)) if frozen else path_t
    rhos = np.broadcast_to(rho, times.shape)
    knots, lams, t_prev = [], np.ones((1, 3)), times[0]
    for k, t in enumerate(times):
        # the initial knot solves at dt = 0, so its density stays frozen
        if frozen:
            rho = rhos[k]
        lams[0, controlled] = path_lams[k, controlled]
        knots.append(_newton_free_axes(lams, free, params, rho, t - t_prev, t))
        # a copy: the next knot writes its controlled axes into `lams`
        lams, rho, t_prev = knots[-1][0].copy(), knots[-1][3][0], t
    return tuple(np.concatenate(field) for field in zip(*knots))


def _newton_free_axes(lams, free, params, rho, dt, t, probe=False):
    """Zero the Cauchy stress on the free axes of a stack of points.

    `lams` (N, 3) holds the starting stretches of N points that share the
    free axes, `rho` the previous-level density, one for all points or one
    per point (the caller has checked it, as a `GrowthState`'s), and
    (dt, t) the step.  The Newton runs in lockstep: each
    iterate evaluates the points not yet converged, with their own
    densities, in one `total_response` call.  F = diag(lams), so
    J = l1 l2 l3, the push-forward of the PK2 stress is
    sigma_ij = l_i S_ij l_j / J and the fiber strain is
    sum_i l_i^2 H_ii - 1; each iterate takes J, sigma and the free-axis
    Jacobians from its stretches.  With `probe`, for starts expected at
    their root, the first iterate evaluates the stress alone and only the
    points it leaves off their root take a tangent evaluation, at the same
    stretches; the stress is that of a full evaluation bit for bit, so the
    iterates are those without `probe`.  Returns the converged stretches
    with the evaluation each point converged at, all over the N points:
    (lams, S, sigma, rho, psi_m), rho being the updated density.
    """
    lams = np.array(lams, dtype=float)
    n = len(lams)
    S, sigma = np.empty((n, 6)), np.empty((n, 6))
    rho_new, psi_m = np.empty(n), np.empty(n)
    rho = np.broadcast_to(rho, n)
    h_diag = np.diag(params.collagen.H)
    diag = np.diag_indices(len(free))
    todo = np.arange(n)
    at_root = np.zeros(n, dtype=bool)
    for _ in range(NEWTON_MAXIT):
        lam = lams[todo]
        st, new_state = total_response(lam[:, :, None] * np.eye(3), params,
                                       GrowthState(rho=rho[todo]), dt, t,
                                       tangent=not probe)
        J = np.prod(lam, axis=1)[:, None]
        sig = (lam[:, VOIGT_I] * st.S) * lam[:, VOIGT_J] / J
        res = sig[:, free]
        err = np.max(np.abs(res), axis=1, initial=0.0)
        done = (err <= STRESS_TOL) | at_root
        hit = todo[done]
        S[hit], sigma[hit] = st.S[done], sig[done]
        rho_new[hit], psi_m[hit] = new_state.rho[done], new_state.psi_m[done]
        if done.all():
            return lams, S, sigma, rho_new, psi_m
        go = ~done
        todo, lam, J, res, err = todo[go], lam[go], J[go], res[go], err[go]
        if probe:
            # the points off their root, at the same stretches
            st, _ = total_response(lam[:, :, None] * np.eye(3), params,
                                   GrowthState(rho=rho[todo]), dt, t)
            S_go, CC_go, probe = st.S, st.CC, False
        else:
            S_go, CC_go = st.S[go], st.CC[go]
        # d sigma_i / d l_j on the free axes, with dS_i/dl_j = CC_ij l_j
        # under the package tangent convention
        lf = lam[:, free]
        CCf = CC_go[:, free][:, :, free]
        jac = (lf[:, :, None] ** 2 * (CCf * lf[:, None, :]) / J[:, :, None]
               - res[:, :, None] / lf[:, None, :])
        jac[:, diag[0], diag[1]] += 2.0 * lf * S_go[:, free] / J
        try:
            step = np.linalg.solve(jac, -res[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular free-axis Jacobian",
                              residual=float(np.max(err))) from exc
        # a full step within STEP_RTOL of the stretches: the point's next
        # evaluation is its last
        at_root = np.all(np.abs(step) <= STEP_RTOL * lf, axis=1)
        # keep iterates physical: halve a free stretch's step until it stays
        # above a twentieth of its old value, and a point's whole step until
        # its fiber strain stays within the collagen law's limit; the old
        # iterate meets both bounds, so halving always ends
        trial = lam.copy()
        while True:
            trial[:, free] = lf + step
            low = trial[:, free] <= 0.05 * lf
            over = trial**2 @ h_diag - 1.0 > FIBER_STRAIN_MAX
            if not (low.any() or over.any()):
                break
            step[low] *= 0.5
            step[over] *= 0.5
        lams[todo[:, None], free] = trial[:, free]
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
