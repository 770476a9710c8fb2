"""Least-squares calibration of the growth and material constants.

A Levenberg-Marquardt fit (`levenberg_marquardt`, numpy only) minimizes
the weighted squared residuals between model curves and measured series,
with a central-difference Jacobian whose ends are evaluated as one stack
of points.  Box bounds are enforced by clipping trial points.
Everything is deterministic: repeated fits of the same problem reproduce the
same iterates bit for bit.  A fit of a `PointModel` prepares its one
frozen-density program once (one knot per series point: its stretches,
free axes and density) and warm-starts the free-axis solve of each
evaluation from the stretches that the fit's last successful one-point
evaluation (its start or a trial) converged to; a Jacobian's stack tiles
the program once per end and starts every copy there, leaving the start
in place.  A start its program's last solve converged at is checked by its
stress alone, with no tangent, and a knot whose constants change the
free-axis stresses the start settled at goes on to its root (see
`matpoint._newton_free_axes`).  Each solve is one
`matpoint.solve_frozen_path` call, which also drops a start that fails
for the cold solve's guess.
That program belongs to the one `fit_material` call, so its history
repeats with the fit; a prediction within a fit meets the same free-axis
stress tolerance as a cold call of the model, and equals it bit for bit
where the fitted constants leave the free stretches in place.
`substitute` keeps the collagen and textile tables that a trial's
constants leave unchanged.
"""

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .errors import FitError, check_range
from .growth import GrowthState, weibull_alpha
from .materials import PER_POINT, MaterialParams
from .matpoint import check_one_density, solve_frozen_path


# relative central-difference step of the Jacobian (see `levenberg_marquardt`)
DIFF_STEP = 1e-4
# the smallest damping factor lam (see `levenberg_marquardt`)
LAMBDA_MIN = 1e-10
# a fit stops once its projected step moves no parameter by this much, relative
STEP_TOL = 1e-10


@dataclass(eq=False)
class LMResult:
    """The outcome of `levenberg_marquardt`.

    `x` is the last accepted point, `r` its residual vector and `f` its
    objective, the sum of squared residuals; `n_evals` counts every point
    evaluated, the Jacobian's ends included; `converged` is true when the
    stop rule held before `max_evals` ran out; `trace` holds one
    (evaluation count, objective) pair per iteration, so its length is
    the iteration count.  The command line reports `n_evals` and
    `converged`, and the benchmark reads `n_evals`.
    """

    x: np.ndarray
    r: np.ndarray
    f: float
    n_evals: int
    converged: bool
    trace: list


def levenberg_marquardt(fn, x0, bounds=None, max_evals=2000):
    """Minimize the sum of squares of a residual vector over a box.

    `fn(X)` takes a stack X (m, n) of m points and returns their residual
    vectors, one row per point (m, k).  The start and each trial are
    stacks of one row, and all ends of one Jacobian are one stack.  A row
    that is not finite is a failed evaluation of its point; a stack that
    raises, or does not return one row per point, is evaluated again one
    row at a time, so that a failing point fails alone.

    Levenberg-Marquardt (Marquardt 1963; More 1978): each iteration takes
    the Jacobian J at x and solves (JᵀJ + lam D) step = -Jᵀr, with
    D = diag(JᵀJ) floored at 1e-12 of its largest entry, so that a column
    carrying no information keeps its parameter exactly in place.  The
    trial x + step is clipped to the box.  A trial that fails or does not
    lower the objective is rejected and lam multiplied by 10; an accepted
    one divides lam by 10, down to LAMBDA_MIN, so that lam never
    underflows and leaves the system of a column without information
    singular.

    Column j is the central difference over x_j +- h,
    h = DIFF_STEP * max(|x_j|, 1e-8), each end cut to the box: an end on
    the box or whose evaluation fails leaves the one-sided difference from
    x, and with neither end the column is zero.  Its truncation error,
    O(h^2), moves the optimum of a fit with nonzero residuals; its
    rounding error, the evaluations' error over h, is a warm point solve's
    free-axis stress tolerance read as slope.  Forward differences leave
    no step that keeps both small.

    The fit stops when the projected step moves no parameter by STEP_TOL
    relative to max(|x_j|, 1e-8), when the residual is exactly zero, or,
    with `converged` False, once `max_evals` points are evaluated; the
    budget is checked before each Jacobian and each trial.  The start is
    clipped to the box and must give finite residuals (FitError).
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    box = np.array([(-np.inf, np.inf)] * n if bounds is None else bounds,
                   dtype=float)
    if box.shape != (n, 2) or not np.all(box[:, 0] < box[:, 1]):
        raise FitError("bounds must be (lo, hi) pairs, one per parameter")
    lo, hi = box.T
    evals = 0

    def rows(X):
        # fn at each row of X: its residual vector, or None where it failed
        try:
            R = np.asarray(fn(X), dtype=float)
            if R.ndim != 2 or len(R) != len(X):
                raise FitError(f"{R.shape} residuals for {len(X)} points")
        except Exception:
            if len(X) == 1:
                return [None]
            return [rows(X[i:i + 1])[0] for i in range(len(X))]
        return [r if np.isfinite(r).all() else None for r in R]

    def evaluate(X):
        nonlocal evals
        evals += len(X)
        return rows(X)

    def jacobian(x, r, typical):
        # the ends of every column, inside the box, as one stack
        h = DIFF_STEP * typical
        ends = [(j, v) for j in range(n)
                for v in (min(x[j] + h[j], hi[j]), max(x[j] - h[j], lo[j]))
                if v != x[j]]
        X = np.repeat(x[None], len(ends), axis=0)
        for X_i, (j, v) in zip(X, ends):
            X_i[j] = v
        diffs = [[(x[j], r)] for j in range(n)]
        for (j, v), rj in zip(ends, evaluate(X)):
            if rj is not None:
                diffs[j].append((v, rj))
        J = np.zeros((r.size, n))
        for j, col in enumerate(diffs):
            if len(col) > 1:
                (a, ra), (b, rb) = col[-2:]
                J[:, j] = (ra - rb) / (a - b)
        return J

    x = np.clip(x0, lo, hi)
    r = evaluate(x[None])[0]
    if r is None:
        raise FitError("residuals are non-finite at the starting point")
    f = float(r @ r)
    lam = 1e-3
    trace = []
    converged = False
    while evals < max_evals and not converged:
        trace.append((evals, f))
        if f == 0.0:
            converged = True
            break
        typical = np.maximum(np.abs(x), 1e-8)
        J = jacobian(x, r, typical)
        jtj, g = J.T @ J, J.T @ r
        d = jtj.diagonal()
        damping = np.diag(np.maximum(d, 1e-12 * d.max() or 1.0))
        while evals < max_evals:
            step = np.linalg.solve(jtj + lam * damping, -g)
            trial = np.clip(x + step, lo, hi)
            if np.max(np.abs(trial - x) / typical) < STEP_TOL:
                converged = True
                break
            rt = evaluate(trial[None])[0]
            ft = np.inf if rt is None else float(rt @ rt)
            if ft < f:
                x, r, f = trial, rt, ft
                lam = max(lam / 10.0, LAMBDA_MIN)
                break
            lam *= 10.0
    return LMResult(x=x.copy(), r=r, f=f, n_evals=evals, converged=converged,
                    trace=trace)


def _vector(values, what):
    """`values`, named `what`, as a float vector; FitError unless 1-D."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise FitError(f"{what} must be a vector, got shape {x.shape}")
    return x


@dataclass(eq=False)
class DataSeries:
    """One measured curve: abscissa, ordinate and optional weights.

    Every x and y must be finite and every weight finite and >= 0; a
    series that breaks this raises FitError naming the series and the
    first bad point, before any fit evaluates it.
    """

    name: str
    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        self.x = _vector(self.x, f"series {self.name}: x")
        self.y = np.asarray(self.y, dtype=float)
        if self.y.shape != self.x.shape:
            raise FitError(f"series {self.name}: x and y must be equal-length vectors")
        if self.weights is None:
            self.weights = np.ones_like(self.x)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.x.shape:
                raise FitError(f"series {self.name}: one weight per point "
                               "required")
        w = self.weights
        for field, ok, need in (
                ("x", np.isfinite(self.x), "finite"),
                ("y", np.isfinite(self.y), "finite"),
                ("weights", np.isfinite(w) & (w >= 0.0), "finite and >= 0")):
            bad = np.flatnonzero(~ok)
            if bad.size:
                i = bad[0]
                raise FitError(f"series {self.name}: {field}[{i}] = "
                               f"{getattr(self, field)[i]} is not {need}")


@dataclass(eq=False)
class FitProblem:
    """Named parameters, start, bounds, data series and a forward model.

    `model(X, series_list)` takes a stack X (m, n) of m trial points and
    returns the predicted ordinates of every series, one (m, len) array
    per series, a row per point.  A row that is not finite fails its
    point; an exception inside, or predictions of the wrong number or
    shape, fail the stack, whose points are then evaluated one at a time
    (see `levenberg_marquardt`).  `fit_material` gives a `PointModel` the
    one program it prepares for the fit (see `PointModel`).
    """

    param_names: list
    x0: np.ndarray
    bounds: list
    series: list
    model: object
    max_evals: int = 2000

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if len(self.param_names) != self.x0.size:
            raise FitError("one starting value per parameter required")
        if not self.series:
            raise FitError("at least one data series required")


@dataclass(eq=False)
class FitResult:
    """The outcome of a fit.

    `params` maps each parameter name to its fitted value and `x` holds
    them in order; `objective` is the weighted sum of squared residuals
    there and `per_series_rms` each series' weighted RMS residual, by
    name.  `nm` is the `LMResult` of the search: the command line reports
    its `nm.n_evals` and `nm.converged`, the benchmark its `nm.n_evals`,
    and `nm.trace` holds the search's progress.  The field keeps the name
    it had when the search was a Nelder-Mead simplex, because the
    benchmark harness reads it by that name.
    """

    params: dict
    x: np.ndarray
    objective: float
    per_series_rms: dict
    nm: LMResult


def fit_weibull(times, values, weights=None, x0=None) -> FitResult:
    """Least-squares Weibull CDF fit of (t, alpha) data; returns tau and h."""
    series = DataSeries("alpha", times, values, weights)
    times, values = series.x, series.y
    if times.size < 3:
        raise FitError("need at least three (t, value) points")
    if np.any(times < 0.0):
        raise FitError("times must be non-negative")

    if x0 is None:
        level = 1.0 - np.exp(-1.0)
        above = values >= level
        tau0 = float(times[above][0]) if np.any(above) else float(np.max(times))
        x0 = np.array([max(tau0, 1e-2), 1.5])

    problem = FitProblem(param_names=["tau", "h"], x0=x0,
                         bounds=[(1e-3, 1e4), (0.05, 50.0)], series=[series],
                         model=lambda X, ss: [weibull_alpha(ss[0].x, X[:, :1],
                                                            X[:, 1:])],
                         max_evals=4000)
    return _fit(problem)


def fit_material(problem: FitProblem) -> FitResult:
    """Weighted least squares over all series of a FitProblem.

    A `PointModel` is evaluated on one program that this call prepares
    from the problem's series and owns: each evaluation's free-axis solve
    starts where the last successful one-point evaluation converged (see
    `_Program.solve`).
    """
    model = problem.model
    if isinstance(model, PointModel):
        model = functools.partial(model, program=model.program(problem.series))
    return _fit(dataclasses.replace(problem, model=model))


def _fit(problem):
    """`levenberg_marquardt` on the weighted residuals sqrt(w) (pred - y)
    of all the problem's series; the `FitResult` with each series' weighted
    RMS residual at the optimum, from the search's last accepted residual
    vector.  A model that raises or returns a prediction of the wrong
    number or shape fails its stack."""
    series = problem.series
    roots = [np.sqrt(s.weights) for s in series]

    def residuals(X):
        parts = []
        for s, root, pred in zip(series, roots, problem.model(X, series),
                                 strict=True):
            pred = np.asarray(pred, dtype=float)
            if pred.shape != (len(X),) + s.y.shape:
                raise FitError(f"series {s.name}: predicted shape {pred.shape}")
            parts.append(root * (pred - s.y))
        return np.concatenate(parts, axis=1)

    lm = levenberg_marquardt(residuals, problem.x0, bounds=problem.bounds,
                             max_evals=problem.max_evals)
    rms = {}
    ends = np.cumsum([s.y.size for s in series])
    for s, part in zip(series, np.split(lm.r, ends[:-1])):
        wsum = float(np.sum(s.weights))
        rms[s.name] = float(np.sqrt(np.sum(part ** 2) / wsum)) if wsum > 0 else 0.0
    params = {k: float(v) for k, v in zip(problem.param_names, lm.x)}
    return FitResult(params=params, x=lm.x, objective=lm.f,
                     per_series_rms=rms, nm=lm)


def substitute(base: MaterialParams, names, values) -> MaterialParams:
    """Rebuild a parameter bundle with dotted fields replaced.

    Names take the form "collagen.k1", "textile.k_coup_ani", "matrix.mu" or
    "growth.a2"; replacement re-validates the affected block, so a value
    out of its range raises ParameterError naming the field.  A collagen
    block whose k1, k2 or rho_f alone change keeps its direction tables
    (`CollagenParams.replace`), and a textile block whose stiffness factors
    alone change its direction and exponent tables
    (`TextileParams.replace`).  Those constants (`materials.PER_POINT`)
    may take an array, one value per point, for a per-point bundle (see
    `MaterialParams`); any other takes one value, or raises FitError.
    """
    groups = {}
    for name, v in zip(names, values):
        block, _, fld = name.partition(".")
        if block not in ("matrix", "collagen", "textile", "growth") or not fld:
            raise FitError(f"unknown parameter name {name!r}")
        if np.ndim(v) and fld not in PER_POINT.get(block, ()):
            raise FitError(f"{name} takes one value, not one per point")
        groups.setdefault(block, {})[fld] = v
    kw = {}
    for block, fields in groups.items():
        old = getattr(base, block)
        if block in ("collagen", "textile"):
            kw[block] = old.replace(**fields)
        else:
            kw[block] = dataclasses.replace(old, **fields)
    return dataclasses.replace(base, **kw)


def uniaxial_eng_stress(params: MaterialParams, stretches, rho):
    """P11 over a quasi-static uniaxial protocol at frozen density rho.

    Stretches that are not a vector raise FitError, and a rho that is not
    one density ParameterError.
    """
    check_one_density(rho, "rho")
    return _Program("uniaxial", [_vector(stretches, "stretches")], [rho],
                    None).solve(params)[0][0]


def biaxial_eng_stress(params: MaterialParams, strains, ratio, rho):
    """P11 for a biaxial protocol e1 = ratio * e2, thickness free.

    Only axis 0 is reported, and P11 does not depend on the second yarn's
    stiffness `k1_2`: these series do not identify it, and a fit of them
    leaves it at its start.
    Strains that are not a vector raise FitError, and a rho that is not
    one density ParameterError.
    """
    _check_ratios([ratio])
    check_one_density(rho, "rho")
    return _Program("biaxial", [_vector(strains, "strains")], [rho],
                    [ratio]).solve(params)[0][0]


def _check_ratios(ratios):
    """FitError unless every biaxial ratio e1 / e2 is nonzero and not NaN;
    an infinite ratio holds axis 1 at e2 = 0."""
    r = np.array(list(ratios), dtype=float)
    if np.any((r == 0.0) | np.isnan(r)):
        raise FitError(f"biaxial ratios must be nonzero and not NaN, got {r}")


class _Program:
    """Frozen-density protocols prepared once as one program.

    `xs` holds one abscissa array per protocol with its density in `rhos`:
    uniaxial stretches of axis 0 with the other axes free, or biaxial
    engineering strains e1 of axis 0 with e2 = e1 / ratio and the thickness
    free.  The knots of a frozen program are independent, so all of them
    form one lockstep batch with one density per knot.  Holds one row per
    series point: the stretches with the controlled axes set (`lams`), the
    free axes and the knot densities (`rho`), each protocol's slice of the
    knots (`parts`), and, once a solve of it succeeded, the free stretches
    that solve converged to (`start`), the free-axis Cauchy stresses it
    converged at (`settled`) and whether it converged at its own start
    (`at_start`).  A controlled stretch that is not positive and
    finite raises ParameterError.
    """

    def __init__(self, kind, xs, rhos, ratios):
        sizes = [np.size(x) for x in xs]
        # the abscissae as one float array, empty for no protocols
        x = np.concatenate([np.zeros(0), *xs])
        self.rho = np.repeat(np.asarray(rhos, dtype=float), sizes)
        self.lams = np.ones((x.size, 3))
        if kind == "uniaxial":
            self.lams[:, 0] = x
            self.free = [1, 2]
        else:
            self.lams[:, 0] = x + 1.0
            self.lams[:, 1] = x / np.repeat(np.asarray(ratios, dtype=float), sizes) + 1.0
            self.free = [2]
        check_range({"stretches": self.lams}, 0.0, "positive and finite")
        ends = np.cumsum(sizes).tolist()
        self.parts = [slice(end - n, end) for n, end in zip(sizes, ends)]
        self.start = self.settled = None
        self.at_start = False

    def solve(self, params, rows=1):
        """P11 of each protocol at `params` for `rows` copies of the
        program, one (rows, n) array per protocol.

        Copy i is the program's knots at the constants of row i: a bundle
        of `rows` > 1 holds its per-point constants one per knot of the
        copies, in copy order.  Every copy starts from `start` (see
        `_solve_program`).  A one-copy solve whose P11 are all finite keeps
        its free stretches as the next `start`; one that raises or is not
        finite, and any solve of several copies, leave the program as it
        was.
        """
        lams, S, sig = _solve_program(self, params, rows)
        P = (lams[:, 0] * S[:, 0]).reshape(rows, self.rho.size)
        if rows == 1 and np.isfinite(P).all():
            stretches = lams[:, self.free]
            self.at_start = (self.start is not None
                             and bool((stretches == self.start).all()))
            self.start, self.settled = stretches, sig
        return [P[:, part] for part in self.parts]


def _solve_program(prog, params, rows):
    """Free-axis solve of `rows` copies of a prepared program, tiled into
    one batch: (stretches, S, free-axis Cauchy stresses), one row per knot,
    by one `solve_frozen_path` call from the program's `start` and
    `settled` stresses in every copy, checked by its stress alone where
    the program's last solve converged at it."""
    lams, rho, start, settled = (
        a if a is None or rows == 1 else np.concatenate([a] * rows)
        for a in (prog.lams, prog.rho, prog.start, prog.settled))
    lams, S, sig, *_ = solve_frozen_path(lams, prog.free, params, rho, start,
                                         prog.at_start, settled)
    return lams, S, sig[:, prog.free]


class PointModel:
    """Forward model of a material fit on frozen-density point protocols.

    `model(X, series_list, program=None)` predicts every series at each
    row of the stack X (m, n), one (m, len) P11 array per series (an
    empty row for a series with no points), with one `substitute` bundle
    and one lockstep solve: the program, one knot per series point, tiled
    once per row.  A one-row stack builds the bundle of that row's
    scalars; a stack of more rows one whose fitted constants hold one
    value per knot of the tiled program, which `substitute` allows for the
    collagen k1, k2, rho_f and the textile stiffness factors only.  A fit
    of any other constant thus has its stacks refused and evaluates their
    rows one at a time (see `levenberg_marquardt`).  Without `program` the
    call prepares a fresh one, so it is cold and history-free.
    `fit_material` prepares one with `model.program(series_list)` per fit
    and passes it to every evaluation: every row of a warm evaluation
    starts the lockstep free-axis Newton on its arrays from where the last
    successful one-row evaluation converged, which only a one-row
    evaluation moves, and builds no records.  See `make_point_model`.
    """

    def __init__(self, base, param_names, kind, rho_by_series, ratio_by_series):
        self.base = base
        self.param_names = param_names
        self.kind = kind
        self.rho_by_series = rho_by_series or {}
        self.ratio_by_series = ratio_by_series or {}
        for name, rho in self.rho_by_series.items():
            check_one_density(rho, f"rho_by_series[{name!r}]")
        GrowthState(rho=np.array(list(self.rho_by_series.values()), dtype=float))
        _check_ratios(self.ratio_by_series.values())

    def program(self, series_list):
        """The series' protocols prepared as one `_Program`."""
        return _Program(self.kind, [s.x for s in series_list],
                        [self.rho_by_series.get(s.name, 0.0) for s in series_list],
                        [self.ratio_by_series.get(s.name, 1.0) for s in series_list])

    def __call__(self, X, series_list, program=None):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.param_names):
            raise FitError(f"a stack of points with {len(self.param_names)} "
                           f"parameters each required, got shape {X.shape}")
        if program is None:
            program = self.program(series_list)
        # each constant one per knot of the copies, for several rows
        values = X[0] if len(X) == 1 else np.repeat(X, program.rho.size, axis=0).T
        return program.solve(substitute(self.base, self.param_names, values), len(X))


def make_point_model(base: MaterialParams, param_names, kind="uniaxial",
                     rho_by_series=None, ratio_by_series=None):
    """Forward model factory for material fits.

    kind "uniaxial": series.x are stretches, predictions are P11 at the
    frozen density `rho_by_series[name]`.  kind "biaxial": series.x are
    engineering strains e1 of axis 0, and axis 1 takes e2 = e1 / r with
    r = `ratio_by_series[name]` (e1 = r * e2, as in `biaxial_eng_stress`);
    predictions are P along axis 0 only, so biaxial series do not identify
    the second yarn's `textile.k1_2`, which a fit leaves at its start.  The
    model is a `PointModel`: `model(X, series_list)` predicts every series
    at each row of the stack X from one bundle and one lockstep program,
    cold unless given the `program` of a fit.  A density that is negative
    or not finite raises StateError, one that is not one number
    ParameterError, and a ratio of 0 or NaN FitError, here and not within
    a fit.
    """
    if kind not in ("uniaxial", "biaxial"):
        raise FitError(f"unknown model kind {kind!r}")
    return PointModel(base, param_names, kind, rho_by_series, ratio_by_series)
