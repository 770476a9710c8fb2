"""Least-squares calibration of the growth and material constants.

A direct-search Nelder-Mead simplex (reflection 1, expansion 2, contraction
0.5, shrink 0.5) minimizes weighted squared residuals between model curves
and measured series.  Box bounds are enforced by clipping trial points.
Everything is deterministic: repeated fits of the same problem reproduce the
same iterates bit for bit.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .growth import GrowthState, weibull_alpha
from .materials import MaterialParams
from .matpoint import FREE, LoadProgram, solve_mixed_point


@dataclass(eq=False)
class NelderMeadResult:
    x: np.ndarray
    f: float
    n_evals: int
    n_iters: int
    converged: bool
    reason: str
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
    n_iters = 0
    reason = "max_evals"
    converged = False
    while evals < max_evals:
        order = np.argsort(fs, kind="stable")
        simplex = [simplex[k] for k in order]
        fs = [fs[k] for k in order]
        trace.append((evals, fs[0]))
        n_iters += 1

        diam = max(np.max(np.abs(p - simplex[0])) for p in simplex[1:])
        spread = fs[-1] - fs[0]
        if diam < xtol:
            converged, reason = True, "simplex diameter below xtol"
            break
        if spread < ftol:
            converged, reason = True, "objective spread below ftol"
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
                            n_iters=n_iters, converged=converged, reason=reason,
                            trace=trace)


@dataclass(eq=False)
class DataSeries:
    """One measured curve: abscissa, ordinate and optional weights."""

    name: str
    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise FitError(f"series {self.name}: x and y must be equal-length vectors")
        if self.weights is None:
            self.weights = np.ones_like(self.x)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.x.shape or np.any(self.weights < 0.0):
                raise FitError(f"series {self.name}: bad weights")


@dataclass(eq=False)
class FitProblem:
    """Named parameters, start, bounds, data series and a forward model.

    `model(x, series)` returns the predicted ordinates of one series for
    trial parameters x; exceptions inside are treated as infinite residuals.
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
    params: dict
    x: np.ndarray
    objective: float
    per_series_rms: dict
    nm: NelderMeadResult


def fit_weibull(times, values, weights=None, x0=None) -> FitResult:
    """Least-squares Weibull CDF fit of (t, alpha) data; returns tau and h."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1 or times.size < 3:
        raise FitError("need at least three (t, value) points")
    if np.any(times < 0.0):
        raise FitError("times must be non-negative")
    w = np.ones_like(times) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != times.shape or np.any(w < 0.0):
        raise FitError("bad weights")

    if x0 is None:
        level = 1.0 - np.exp(-1.0)
        above = values >= level
        tau0 = float(times[above][0]) if np.any(above) else float(np.max(times))
        x0 = np.array([max(tau0, 1e-2), 1.5])

    def objective(x):
        tau, h = x
        resid = weibull_alpha(times, tau, h) - values
        return float(np.sum(w * resid**2))

    nm = nelder_mead(objective, x0, bounds=[(1e-3, 1e4), (0.05, 50.0)],
                     max_evals=4000, xtol=1e-10, ftol=1e-16)
    tau, h = nm.x
    resid = weibull_alpha(times, tau, h) - values
    rms = float(np.sqrt(np.sum(w * resid**2) / np.sum(w))) if np.sum(w) > 0 else 0.0
    return FitResult(params={"tau": float(tau), "h": float(h)}, x=nm.x,
                     objective=nm.f, per_series_rms={"alpha": rms}, nm=nm)


def fit_material(problem: FitProblem) -> FitResult:
    """Weighted least squares over all series of a FitProblem."""

    def objective(x):
        total = 0.0
        for s in problem.series:
            try:
                pred = np.asarray(problem.model(x, s), dtype=float)
            except Exception:
                return np.inf
            if pred.shape != s.y.shape or not np.all(np.isfinite(pred)):
                return np.inf
            total += float(np.sum(s.weights * (pred - s.y) ** 2))
        return total

    nm = nelder_mead(objective, problem.x0, bounds=problem.bounds,
                     max_evals=problem.max_evals, xtol=1e-8, ftol=1e-12)
    rms = {}
    for s in problem.series:
        pred = np.asarray(problem.model(nm.x, s), dtype=float)
        wsum = float(np.sum(s.weights))
        rms[s.name] = float(np.sqrt(np.sum(s.weights * (pred - s.y) ** 2) / wsum)) \
            if wsum > 0 else 0.0
    params = {k: float(v) for k, v in zip(problem.param_names, nm.x)}
    return FitResult(params=params, x=nm.x, objective=nm.f,
                     per_series_rms=rms, nm=nm)


def substitute(base: MaterialParams, names, values) -> MaterialParams:
    """Rebuild a parameter bundle with dotted fields replaced.

    Names take the form "collagen.k1", "textile.k_coup_ani", "matrix.mu" or
    "growth.a2"; replacement re-validates the affected block.
    """
    groups = {}
    for name, v in zip(names, values):
        block, _, fld = name.partition(".")
        if block not in ("matrix", "collagen", "textile", "growth") or not fld:
            raise FitError(f"unknown parameter name {name!r}")
        groups.setdefault(block, {})[fld] = float(v)
    kw = {}
    for block, fields in groups.items():
        kw[block] = dataclasses.replace(getattr(base, block), **fields)
    return dataclasses.replace(base, **kw)


def uniaxial_eng_stress(params: MaterialParams, stretches, rho):
    """P11 over a quasi-static uniaxial protocol at frozen density rho."""
    stretches = np.asarray(stretches, dtype=float)
    knots = np.concatenate([[1.0], stretches])
    times = np.arange(knots.size, dtype=float)
    prog = LoadProgram(times=times, controls=(knots, FREE, FREE), grow=False)
    recs = solve_mixed_point(prog, params, init=GrowthState(rho=float(rho)))
    return np.array([r.F[0, 0] * r.S[0] for r in recs[1:]])


def biaxial_eng_stress(params: MaterialParams, strains, ratio, rho):
    """P11 for a biaxial protocol e1 = ratio * e2, thickness free.

    Only axis 0 is reported, so constants acting mainly along axis 1 (the
    second yarn, e.g. `k1_2`) are weakly identified by these series.
    """
    strains = np.asarray(strains, dtype=float)
    e1 = np.concatenate([[0.0], strains])
    prog = LoadProgram(times=np.arange(e1.size, dtype=float),
                       controls=(e1, e1 / ratio, FREE),
                       strain_measure="engineering", grow=False)
    recs = solve_mixed_point(prog, params, init=GrowthState(rho=float(rho)))
    return np.array([r.F[0, 0] * r.S[0] for r in recs[1:]])


def make_point_model(base: MaterialParams, param_names, kind="uniaxial",
                     rho_by_series=None, ratio_by_series=None):
    """Forward model factory for material fits.

    kind "uniaxial": series.x are stretches, predictions are P11 at the
    frozen density `rho_by_series[name]`.  kind "biaxial": series.x are
    engineering strains of axis 1 with strain ratio `ratio_by_series[name]`;
    predictions are P along axis 0 only, so second-yarn constants such as
    `textile.k1_2` are weakly identified by biaxial series.
    """
    if kind not in ("uniaxial", "biaxial"):
        raise FitError(f"unknown model kind {kind!r}")

    def model(x, series):
        p = substitute(base, param_names, x)
        if kind == "uniaxial":
            rho = (rho_by_series or {}).get(series.name, 0.0)
            return uniaxial_eng_stress(p, series.x, rho)
        ratio = (ratio_by_series or {}).get(series.name, 1.0)
        rho = (rho_by_series or {}).get(series.name, 0.0)
        return biaxial_eng_stress(p, series.x, ratio, rho)

    return model
