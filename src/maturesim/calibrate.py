"""Least-squares calibration of the growth and material constants.

A direct-search Nelder-Mead simplex (reflection 1, expansion 2, contraction
0.5, shrink 0.5) minimizes weighted squared residuals between model curves
and measured series.  Box bounds are enforced by clipping trial points.
Everything is deterministic: repeated fits of the same problem reproduce the
same iterates bit for bit.  A fit of a `PointModel` prepares its one
frozen-density program once (one knot per series point: its stretches,
free axes and density) and warm-starts the free-axis solve of each
evaluation from the stretches that the fit's last successful evaluation
converged to; a start its program's last solve converged at is checked
by its stress alone, with no tangent.
Each solve is one `matpoint.solve_frozen_path` call, which also drops a
start that fails for the cold solve's guess.
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
from .materials import MaterialParams
from .matpoint import check_one_density, solve_frozen_path


@dataclass(eq=False)
class NelderMeadResult:
    """The outcome of `nelder_mead`.

    `x` is the best vertex and `f` its objective; `n_evals` counts every
    objective evaluation; `converged` is true when the simplex met `xtol`
    or `ftol` before `max_evals` ran out; `trace` holds one (evaluation
    count, best objective) pair per simplex iteration, so its length is the
    iteration count.  The command line reports `n_evals` and
    `converged`, and the benchmark reads `n_evals`.
    """

    x: np.ndarray
    f: float
    n_evals: int
    converged: bool
    trace: list


def nelder_mead(fn, x0, bounds=None, max_evals=2000, xtol=1e-8, ftol=1e-12):
    """Minimize fn over a box.  Non-finite objective values count as +inf.

    Terminates when the simplex diameter falls below `xtol`, the objective
    spread falls below `ftol`, or `max_evals` evaluations are spent.  The
    trace records (evaluation count, best objective) once per iteration.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if bounds is not None:
        bounds = [(float(lo), float(hi)) for lo, hi in bounds]
        if len(bounds) != n or any(lo >= hi for lo, hi in bounds):
            raise FitError("bounds must be (lo, hi) pairs, one per parameter")

    def clip(x):
        if bounds is None:
            return x
        return np.array([min(max(v, lo), hi) for v, (lo, hi) in zip(x, bounds)])

    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        v = fn(x)
        return float(v) if np.isfinite(v) else np.inf

    x0 = clip(x0)
    f0 = f(x0)
    if not np.isfinite(f0):
        raise FitError("objective is non-finite at the starting point")

    # fminsearch-style initial simplex: 5 percent steps, absolute fallback
    simplex = [x0]
    fs = [f0]
    for i in range(n):
        xi = x0.copy()
        xi[i] = xi[i] * 1.05 if xi[i] != 0.0 else 0.00025
        xi = clip(xi)
        if np.array_equal(xi, x0):
            xi = x0.copy()
            xi[i] -= 0.05 * max(abs(xi[i]), 1.0)
            xi = clip(xi)
        simplex.append(xi)
        fs.append(f(xi))

    trace = []
    converged = False
    while evals < max_evals:
        order = np.argsort(fs, kind="stable")
        simplex = [simplex[k] for k in order]
        fs = [fs[k] for k in order]
        trace.append((evals, fs[0]))

        diam = max(np.max(np.abs(p - simplex[0])) for p in simplex[1:])
        spread = fs[-1] - fs[0]
        if diam < xtol or spread < ftol:
            converged = True
            break

        centroid = np.mean(simplex[:-1], axis=0)
        xr = clip(centroid + (centroid - simplex[-1]))
        fr = f(xr)
        if fr < fs[0]:
            xe = clip(centroid + 2.0 * (centroid - simplex[-1]))
            fe = f(xe)
            if fe < fr:
                simplex[-1], fs[-1] = xe, fe
            else:
                simplex[-1], fs[-1] = xr, fr
        elif fr < fs[-2]:
            simplex[-1], fs[-1] = xr, fr
        else:
            if fr < fs[-1]:
                xc = clip(centroid + 0.5 * (centroid - simplex[-1]))
                fc = f(xc)
                accept = fc <= fr
            else:
                xc = clip(centroid - 0.5 * (centroid - simplex[-1]))
                fc = f(xc)
                accept = fc < fs[-1]
            if accept:
                simplex[-1], fs[-1] = xc, fc
            else:
                for k in range(1, n + 1):
                    simplex[k] = clip(simplex[0] + 0.5 * (simplex[k] - simplex[0]))
                    fs[k] = f(simplex[k])

    order = np.argsort(fs, kind="stable")
    best = order[0]
    return NelderMeadResult(x=simplex[best].copy(), f=fs[best], n_evals=evals,
                            converged=converged, trace=trace)


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

    `model(x, series_list)` returns the predicted ordinates of every
    series, one array per series, for trial parameters x; an exception
    inside, or a prediction of the wrong shape or not finite, counts as an
    infinite residual.  `fit_material` gives a `PointModel` the one program
    it prepares for the fit (see `PointModel`).
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
    name.  `nm` is the `NelderMeadResult`: the command line reports its
    `nm.n_evals` and `nm.converged`, the benchmark its `nm.n_evals`, and
    `nm.trace` holds the search's progress.
    """

    params: dict
    x: np.ndarray
    objective: float
    per_series_rms: dict
    nm: NelderMeadResult


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
                         model=lambda x, ss: [weibull_alpha(ss[0].x, *x)],
                         max_evals=4000)
    return _fit(problem, xtol=1e-10, ftol=1e-16)


def fit_material(problem: FitProblem) -> FitResult:
    """Weighted least squares over all series of a FitProblem.

    A `PointModel` is evaluated on one program that this call prepares
    from the problem's series and owns: each evaluation's free-axis solve
    starts where the last successful one converged (see `_Program.solve`).
    """
    model = problem.model
    if isinstance(model, PointModel):
        model = functools.partial(model, program=model.program(problem.series))
    return _fit(dataclasses.replace(problem, model=model), xtol=1e-8, ftol=1e-12)


def _fit(problem, xtol, ftol):
    """Nelder-Mead on the weighted squared residuals of the problem's
    series; the `FitResult` with each series' weighted RMS residual at the
    optimum."""
    series = problem.series

    def objective(x):
        try:
            preds = problem.model(x, series)
        except Exception:
            return np.inf
        total = 0.0
        for s, pred in zip(series, preds):
            pred = np.asarray(pred, dtype=float)
            if pred.shape != s.y.shape or not np.isfinite(pred).all():
                return np.inf
            total += float((s.weights * (pred - s.y) ** 2).sum())
        return total

    nm = nelder_mead(objective, problem.x0, bounds=problem.bounds,
                     max_evals=problem.max_evals, xtol=xtol, ftol=ftol)
    rms = {}
    for s, pred in zip(series, problem.model(nm.x, series)):
        pred = np.asarray(pred, dtype=float)
        wsum = float(np.sum(s.weights))
        rms[s.name] = float(np.sqrt(np.sum(s.weights * (pred - s.y) ** 2) / wsum)) \
            if wsum > 0 else 0.0
    params = {k: float(v) for k, v in zip(problem.param_names, nm.x)}
    return FitResult(params=params, x=nm.x, objective=nm.f,
                     per_series_rms=rms, nm=nm)


def substitute(base: MaterialParams, names, values) -> MaterialParams:
    """Rebuild a parameter bundle with dotted fields replaced.

    Names take the form "collagen.k1", "textile.k_coup_ani", "matrix.mu" or
    "growth.a2"; replacement re-validates the affected block.  A collagen
    block whose k1, k2 or rho_f alone change keeps its direction tables
    (`CollagenParams.replace`), and a textile block whose stiffness factors
    alone change its direction and exponent tables
    (`TextileParams.replace`).
    """
    groups = {}
    for name, v in zip(names, values):
        block, _, fld = name.partition(".")
        if block not in ("matrix", "collagen", "textile", "growth") or not fld:
            raise FitError(f"unknown parameter name {name!r}")
        groups.setdefault(block, {})[fld] = float(v)
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
                    None).solve(params)[0]


def biaxial_eng_stress(params: MaterialParams, strains, ratio, rho):
    """P11 for a biaxial protocol e1 = ratio * e2, thickness free.

    Only axis 0 is reported, so constants acting mainly along axis 1 (the
    second yarn, e.g. `k1_2`) are weakly identified by these series.
    Strains that are not a vector raise FitError, and a rho that is not
    one density ParameterError.
    """
    _check_ratios([ratio])
    check_one_density(rho, "rho")
    return _Program("biaxial", [_vector(strains, "strains")], [rho],
                    [ratio]).solve(params)[0]


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
    that solve converged to (`start`) and whether it converged at its own
    start (`at_start`).  A controlled stretch that is not positive and
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
        self.start = None
        self.at_start = False

    def solve(self, params):
        """P11 of each protocol at `params`, one array per protocol.

        The solve starts from `start` (see `_solve_program`); one whose P11
        are all finite keeps its free stretches as the next `start`, and
        one that raises or is not finite leaves the program as it was.
        """
        lams, S = _solve_program(self, params)
        P = lams[:, 0] * S[:, 0]
        if np.isfinite(P).all():
            stretches = lams[:, self.free]
            self.at_start = (self.start is not None
                             and bool((stretches == self.start).all()))
            self.start = stretches
        return [P[part] for part in self.parts]


def _solve_program(prog, params):
    """Free-axis solve of a prepared program: (stretches, S), one row per
    knot, by `solve_frozen_path` from the program's `start`, checked by its
    stress alone where its last solve converged at it."""
    lams, S, *_ = solve_frozen_path(prog.lams, prog.free, params, prog.rho,
                                    prog.start, probe=prog.at_start)
    return lams, S


class PointModel:
    """Forward model of a material fit on frozen-density point protocols.

    `model(x, series_list, program=None)` builds the parameter bundle for x
    once and solves every series as one lockstep program, one knot per
    series point, one P11 array per series (an empty one for a series
    with no points).  Without `program` it prepares a fresh one, so the
    call is cold and history-free.  `fit_material` prepares one with
    `model.program(series_list)` per fit and passes it to every
    evaluation: a warm evaluation runs the lockstep free-axis Newton on its
    arrays from where the last successful one converged, and builds no
    records.  See `make_point_model`.
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

    def __call__(self, x, series_list, program=None):
        p = substitute(self.base, self.param_names, x)
        if program is None:
            program = self.program(series_list)
        return program.solve(p)


def make_point_model(base: MaterialParams, param_names, kind="uniaxial",
                     rho_by_series=None, ratio_by_series=None):
    """Forward model factory for material fits.

    kind "uniaxial": series.x are stretches, predictions are P11 at the
    frozen density `rho_by_series[name]`.  kind "biaxial": series.x are
    engineering strains e1 of axis 0, and axis 1 takes e2 = e1 / r with
    r = `ratio_by_series[name]` (e1 = r * e2, as in `biaxial_eng_stress`);
    predictions are P along axis 0 only, so second-yarn constants such as
    `textile.k1_2` are weakly identified by biaxial series.  The model is
    a `PointModel`: `model(x, series_list)` predicts every series from one
    bundle and one lockstep program, cold unless given the `program` of a
    fit.  A density that is negative or not finite raises
    StateError, one that is not one number ParameterError, and a ratio of
    0 or NaN FitError, here and not within a fit.
    """
    if kind not in ("uniaxial", "biaxial"):
        raise FitError(f"unknown model kind {kind!r}")
    return PointModel(base, param_names, kind, rho_by_series, ratio_by_series)
