"""The two benchmark workloads: inputs from a seed, timed solves, checks.

A workload is a set of callables:

- `setup(seed)` builds everything the solves need: parameter bundles,
  meshes and models, synthetic data.  The seed draws only inputs that are
  free to vary, inside bands where every run converges.
- `prepare(state)` makes the fresh mutable inputs of one round (untimed).
- `solve(state, fresh)` runs one round, the timed part, and returns one
  outcome per operation: its result, or the exception it raised.
- `checks[op](state, fresh, result)` returns the [Check, ...] of one
  operation that did not raise.
- `answer(state, outcomes)` gives the physical answer, printed next to the
  times so that a change which moves the result shows at once.

Program functions are reached through their modules at call time
(`solver.march_maturation`), so that the traced run sees every call.
"""

import copy
import traceback
from types import SimpleNamespace

import numpy as np

import checks
from maturesim import calibrate, config, matpoint
from maturesim.fem import elements, solver
from maturesim.growth import GrowthState

# acceptance strip material: dispersed fibers along x, psi_crit = 2e-5 mJ/ug
STRIP_MATERIAL = {"material": {"collagen": {"kappa": 0.15}}}
STRIP_DAYS = 28.0
STRIP_DT_MAX = 0.25
# nominal follower pressure (MPa); the seed moves it inside +-0.5 %
PRESSURE = 0.002
PRESSURE_BAND = 0.005

# published maturation points (day, relative density)
MATURATION_POINTS = np.array([[0.0, 0.0], [7.0, 0.28486], [14.0, 0.6060],
                              [21.0, 0.8357], [28.0, 1.0]])


def _run_ops(ops):
    """Run named operations in order; an exception fails only its own op."""
    out = {}
    for name, fn in ops:
        try:
            out[name] = fn()
        except Exception as exc:  # the round goes on; the op counts as failed
            traceback.print_exc()
            out[name] = exc
    return out


# -- strip240_maturation --------------------------------------------------

def strip240_setup(seed):
    rng = np.random.default_rng(seed)
    pressure = PRESSURE * (1.0 + PRESSURE_BAND * rng.uniform(-1.0, 1.0))
    params = config.parse_config(STRIP_MATERIAL).material
    model = solver.clamped_strip_model(params, nx=20, ny=6, nz=2,
                                       pressure=pressure)
    return SimpleNamespace(model=model, params=params, pressure=pressure)


def strip240_prepare(state):
    return SimpleNamespace(model=copy.deepcopy(state.model), last=None,
                           before_last=None)


def strip240_solve(state, fresh):
    def keep(time, u, aux, model):
        # committed densities before the last step, to re-assemble it later
        fresh.before_last = fresh.last
        fresh.last = (time, model.rho.copy())

    return _run_ops([("march", lambda: solver.march_maturation(
        fresh.model, STRIP_DAYS, dt_max=STRIP_DT_MAX, on_step=keep))])


def strip240_check(state, fresh, result):
    history, u, aux = result
    model = fresh.model
    t_prev, rho_prev = fresh.before_last
    t_end = history[-1].time
    redo = copy.deepcopy(model)
    redo.rho = rho_prev
    R, _, _ = redo.assemble(u, t_end, t_end - t_prev)

    nodes = model.mesh.nodes
    uz = np.asarray(u).reshape(-1, 3)[:, 2]
    gp = checks.gauss_coordinates(nodes, model.conn, elements.GAUSS_POINTS)
    out = []
    for axis, label in ((0, "x = L/2"), (1, "y = W/2")):
        center = 0.5 * (nodes[:, axis].min() + nodes[:, axis].max())
        out.append(checks.mirror_symmetry(f"u_z mirror about {label}",
                                          nodes, uz, axis, center))
        out.append(checks.mirror_symmetry(f"rho mirror about {label}",
                                          gp, model.rho, axis, center))
    out.append(checks.free_residual(R[model.free_idx], solver.RESIDUAL_TOL))
    faces = nodes + np.asarray(u).reshape(-1, 3)
    face_xyz = faces[model.mesh.face_nodes("bottom")]
    out.append(checks.reaction_balance(R, model.fixed, face_xyz, state.pressure,
                                       len(model.free_idx), solver.RESIDUAL_TOL))
    times = [r.time for r in history]
    out.append(checks.deflection_monotone(times, [r.deflection for r in history]))
    floor = checks.bio_only_density(times, state.params.growth)[-1]
    out.append(checks.density_floor("Gauss densities >= bio-only sum",
                                    model.rho, floor))
    return out


def strip240_answer(state, outcomes):
    history = outcomes["march"][0]
    last = history[-1]
    return {"pressure_MPa": state.pressure, "day": last.time,
            "deflection_mm": last.deflection, "rho_mean": last.rho_mean,
            "rho_max": last.rho_max, "steps": len(history) - 1,
            "newton_iters": sum(r.newton_iters for r in history[1:]),
            "ramp_iters": history[0].newton_iters}


# -- point_calibration ---------------------------------------------------------

COLLAGEN_TRUTH = {"collagen.k1": 0.825, "collagen.k2": 4.0}
COLLAGEN_BOUNDS = [(0.05, 5.0), (0.5, 20.0)]
COLLAGEN_X0 = np.array([0.5, 6.0])
TEXTILE_NAMES = ["textile.k1_1", "textile.k1_2"]
TEXTILE_BOUNDS = [(1e-4, 1.0), (1e-4, 2.0)]
TEXTILE_X0 = np.array([0.03, 0.25])
WEIBULL_X0 = np.array([21.0, 1.5])
# start points move inside +-0.5 % of the nominal ones
START_BAND = 0.005


def calibration_setup(seed):
    rng = np.random.default_rng(seed)
    base = config.parse_config({}).material
    rho_f = base.collagen.rho_f
    rhos = {"rel100": rho_f, "rel84": 0.8357 * rho_f, "rel61": 0.6060 * rho_f}
    stretches = np.linspace(1.02, 1.12, 6)
    uni = [calibrate.DataSeries(k, stretches,
                                calibrate.uniaxial_eng_stress(base, stretches, r))
           for k, r in rhos.items()]
    ratios = {"equi": 1.0, "onethird": 3.0}
    strains = np.linspace(0.02, 0.2, 6)
    bi = [calibrate.DataSeries(k, strains,
                               calibrate.biaxial_eng_stress(base, strains, r, 0.0))
          for k, r in ratios.items()]
    names = list(COLLAGEN_TRUTH)

    def band():
        return 1.0 + START_BAND * rng.uniform(-1.0, 1.0, 2)

    collagen = calibrate.FitProblem(
        param_names=names, x0=COLLAGEN_X0 * band(), bounds=COLLAGEN_BOUNDS,
        series=uni, max_evals=600,
        model=calibrate.make_point_model(base, names, kind="uniaxial",
                                         rho_by_series=rhos))
    textile = calibrate.FitProblem(
        param_names=TEXTILE_NAMES, x0=TEXTILE_X0 * band(), bounds=TEXTILE_BOUNDS,
        series=bi, max_evals=400,
        model=calibrate.make_point_model(base, TEXTILE_NAMES, kind="biaxial",
                                         ratio_by_series=ratios))
    return SimpleNamespace(base=base, rhos=rhos, ratios=ratios,
                           collagen=collagen, textile=textile,
                           weibull_x0=WEIBULL_X0 * band())


def calibration_solve(state, fresh):
    t, y = MATURATION_POINTS.T
    return _run_ops([
        ("fit_collagen", lambda: calibrate.fit_material(state.collagen)),
        ("fit_textile", lambda: calibrate.fit_material(state.textile)),
        ("fit_weibull", lambda: calibrate.fit_weibull(t, y, x0=state.weibull_x0)),
    ])


def _lateral_stress(state, params, kind, series):
    """Cauchy stresses of the fitted model on each series' protocol."""
    sig = []
    for s in series:
        if kind == "uniaxial":
            knots = np.concatenate([[1.0], s.x])
            prog = matpoint.LoadProgram(times=np.arange(knots.size, dtype=float),
                                        controls=(knots, matpoint.FREE, matpoint.FREE),
                                        grow=False)
            rho = state.rhos[s.name]
        else:
            e1 = np.concatenate([[0.0], s.x])
            prog = matpoint.LoadProgram(times=np.arange(e1.size, dtype=float),
                                        controls=(e1, e1 / state.ratios[s.name],
                                                  matpoint.FREE),
                                        strain_measure="engineering", grow=False)
            rho = 0.0
        recs = matpoint.solve_mixed_point(
            prog, params, init=GrowthState(rho=rho))
        sig.extend(r.sigma for r in recs)
    return np.array(sig)


def check_fit_collagen(state, fresh, res):
    fitted = calibrate.substitute(state.base, list(COLLAGEN_TRUTH), res.x)
    return [checks.round_trip(res.params, COLLAGEN_TRUTH),
            checks.series_rms(res.per_series_rms),
            checks.free_axis_stress("lateral Cauchy stresses vanish",
                                    _lateral_stress(state, fitted, "uniaxial",
                                                    state.collagen.series),
                                    (1, 2), matpoint.STRESS_TOL)]


def check_fit_textile(state, fresh, res):
    # P11 data pin k1_1; k1_2 (second yarn) is only weakly identifiable
    fitted = calibrate.substitute(state.base, TEXTILE_NAMES, res.x)
    truth = {"textile.k1_1": state.base.textile.k1_1}
    return [checks.round_trip(res.params, truth),
            checks.within_bounds(res.params, dict(zip(TEXTILE_NAMES, TEXTILE_BOUNDS))),
            checks.series_rms(res.per_series_rms),
            checks.free_axis_stress("thickness Cauchy stress vanishes",
                                    _lateral_stress(state, fitted, "biaxial",
                                                    state.textile.series),
                                    (2,), matpoint.STRESS_TOL)]


def check_fit_weibull(state, fresh, res):
    return [checks.weibull_windows(res.params["tau"], res.params["h"])]


def calibration_answer(state, outcomes):
    ans = {}
    for op, res in outcomes.items():
        ans.update(res.params)
        ans[f"{op}_evals"] = res.nm.n_evals
    return ans


def _no_fresh_inputs(state):
    return None


WORKLOADS = {
    "strip240_maturation": SimpleNamespace(
        ops=("march",), setup=strip240_setup, prepare=strip240_prepare,
        solve=strip240_solve, checks={"march": strip240_check},
        answer=strip240_answer),
    "point_calibration": SimpleNamespace(
        ops=("fit_collagen", "fit_textile", "fit_weibull"),
        setup=calibration_setup, prepare=_no_fresh_inputs,
        solve=calibration_solve,
        checks={"fit_collagen": check_fit_collagen,
                "fit_textile": check_fit_textile,
                "fit_weibull": check_fit_weibull},
        answer=calibration_answer),
}
