"""Nelder-Mead and calibration workflow tests."""

import dataclasses

import numpy as np
import pytest

from maturesim import calibrate, config, matpoint
from maturesim.calibrate import (DataSeries, FitProblem, biaxial_eng_stress,
                                 fit_material, fit_weibull, make_point_model,
                                 nelder_mead, substitute, uniaxial_eng_stress)
from maturesim.errors import FitError, SolverError
from maturesim.matpoint import FREE, LoadProgram, program_path, solve_frozen_path

from conftest import deadline, make_material

# relative collagen content measured over four weeks of static culture
MATURATION_POINTS = [(0.0, 0.0), (7.0, 0.28486), (14.0, 0.6060),
                     (21.0, 0.8357), (28.0, 1.0)]


def collagen_problem(max_evals=600, kappa=0.0):
    base = make_material(kappa=kappa)
    stretches = np.linspace(1.01, 1.12, 8)
    names = ["collagen.k1", "collagen.k2"]
    rhos = {"rel100": base.collagen.rho_f,
            "rel84": 0.8357 * base.collagen.rho_f,
            "rel61": 0.6060 * base.collagen.rho_f}
    series = [DataSeries(name=k, x=stretches,
                         y=uniaxial_eng_stress(base, stretches, rho))
              for k, rho in rhos.items()]
    model = make_point_model(base, names, kind="uniaxial", rho_by_series=rhos)
    return base, rhos, FitProblem(param_names=names, x0=np.array([0.5, 6.0]),
                                  bounds=[(0.05, 5.0), (0.5, 20.0)],
                                  series=series, model=model,
                                  max_evals=max_evals)


class TestNelderMead:
    def test_quadratic_minimum(self):
        r = nelder_mead(lambda x: (x[0] - 2.0) ** 2 + 3 * (x[1] + 1.0) ** 2,
                        np.array([0.0, 0.0]))
        assert r.converged
        assert np.allclose(r.x, [2.0, -1.0], atol=1e-6)

    def test_rosenbrock(self):
        r = nelder_mead(lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2,
                        np.array([-1.2, 1.0]), max_evals=5000)
        assert np.allclose(r.x, [1.0, 1.0], atol=1e-5)

    def test_trace_monotone(self):
        r = nelder_mead(lambda x: np.sum(x**2), np.array([3.0, -4.0, 1.0]))
        best = [f for _, f in r.trace]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))

    def test_bound_clipping(self):
        r = nelder_mead(lambda x: (x[0] - 2.0) ** 2, np.array([0.5]),
                        bounds=[(0.0, 1.0)])
        assert r.x[0] == pytest.approx(1.0, abs=1e-8)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(FitError):
            nelder_mead(lambda x: np.inf, np.array([1.0]))

    def test_nonfinite_treated_as_infinite(self):
        def f(x):
            return np.nan if x[0] < 0 else (x[0] - 1.0) ** 2
        r = nelder_mead(f, np.array([2.0]))
        assert r.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_deterministic(self):
        def f(x):
            return (x[0] - 0.3) ** 2 + (x[1] * x[0] - 0.7) ** 2
        r1 = nelder_mead(f, np.array([1.0, 1.0]))
        r2 = nelder_mead(f, np.array([1.0, 1.0]))
        assert np.array_equal(r1.x, r2.x)
        assert r1.trace == r2.trace


class TestFitWeibull:
    def test_maturation_data(self):
        t, y = zip(*MATURATION_POINTS)
        res = fit_weibull(t, y)
        assert 13.7 <= res.params["tau"] <= 14.7
        assert 1.55 <= res.params["h"] <= 1.75

    def test_optimum_beats_published_rounding(self):
        # the fitted pair must be at least as good as the rounded constants
        t, y = map(np.asarray, zip(*MATURATION_POINTS))
        res = fit_weibull(t, y)
        from maturesim.growth import weibull_alpha
        published = float(np.sum((weibull_alpha(t, 14.21, 1.65) - y) ** 2))
        assert res.objective <= published + 1e-12

    def test_zero_weight_ignores_outlier(self):
        t, y = map(np.asarray, zip(*MATURATION_POINTS))
        t2 = np.append(t, 10.0)
        y2 = np.append(y, 5.0)  # impossible outlier
        w2 = np.append(np.ones_like(t), 0.0)
        res_clean = fit_weibull(t, y)
        res_wtd = fit_weibull(t2, y2, weights=w2)
        assert res_wtd.params["tau"] == pytest.approx(res_clean.params["tau"], rel=1e-8)
        assert res_wtd.params["h"] == pytest.approx(res_clean.params["h"], rel=1e-8)

    def test_weight_rescaling_invariance(self):
        t, y = zip(*MATURATION_POINTS)
        a = fit_weibull(t, y, weights=np.ones(5))
        b = fit_weibull(t, y, weights=10.0 * np.ones(5))
        assert a.params["tau"] == pytest.approx(b.params["tau"], rel=1e-6)
        assert a.params["h"] == pytest.approx(b.params["h"], rel=1e-6)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_weibull([0.0, 1.0], [0.0, 0.5])

    def test_fit_is_nelder_mead_on_the_weighted_objective(self):
        # the shared fit loop adds nothing to the Weibull objective: the fit
        # is bit for bit the simplex run on the weighted squared residuals,
        # from tau0 = the first time whose value reaches 1 - 1/e
        from maturesim.growth import weibull_alpha
        t, y = map(np.asarray, zip(*MATURATION_POINTS))
        w = np.array([1.0, 2.0, 0.5, 1.0, 3.0])

        def objective(x):
            return float(np.sum(w * (weibull_alpha(t, *x) - y) ** 2))

        res = fit_weibull(t, y, w)
        ref = nelder_mead(objective, np.array([21.0, 1.5]),
                          bounds=[(1e-3, 1e4), (0.05, 50.0)], max_evals=4000,
                          xtol=1e-10, ftol=1e-16)
        assert np.array_equal(res.nm.x, ref.x)
        assert res.nm.f == ref.f
        assert res.nm.n_evals == ref.n_evals
        assert res.nm.trace == ref.trace


class TestSubstitute:
    def test_nested_replacement(self, material_params):
        p = substitute(material_params, ["collagen.k1", "textile.k1_1"], [0.9, 0.02])
        assert p.collagen.k1 == 0.9
        assert p.textile.k1_1 == 0.02
        assert p.matrix.mu == material_params.matrix.mu

    def test_collagen_scalars_keep_the_direction_tables(self, material_params):
        p = substitute(material_params, ["collagen.k1", "collagen.rho_f"], [0.9, 30.0])
        assert (p.collagen.k1, p.collagen.rho_f) == (0.9, 30.0)
        assert p.collagen.hh is material_params.collagen.hh
        q = substitute(material_params, ["collagen.kappa"], [0.2])
        assert q.collagen.hh is not material_params.collagen.hh
        assert q.collagen.kappa == 0.2

    def test_unknown_name(self, material_params):
        with pytest.raises(FitError):
            substitute(material_params, ["fabric.k1"], [1.0])


class TestFitMaterial:
    def test_collagen_round_trip(self):
        _, _, prob = collagen_problem()
        res = fit_material(prob)
        assert res.params["collagen.k1"] == pytest.approx(0.825, rel=0.02)
        assert res.params["collagen.k2"] == pytest.approx(4.0, rel=0.02)
        assert all(r < 1e-4 for r in res.per_series_rms.values())

    def test_second_series_changes_optimum(self):
        # with an inconsistent second ratio block the joint optimum must
        # move, proving both residual blocks enter the objective
        base = make_material()
        strains = np.linspace(0.02, 0.2, 6)
        names = ["textile.k1_1", "textile.k1_2"]
        ratios = {"equi": 1.0, "onethird": 3.0}
        y_equi = biaxial_eng_stress(base, strains, 1.0, 0.0)
        y_onethird = 1.05 * biaxial_eng_stress(base, strains, 3.0, 0.0)
        model = make_point_model(base, names, kind="biaxial",
                                 ratio_by_series=ratios)
        x0 = np.array([0.03, 0.25])
        bounds = [(1e-4, 1.0), (1e-4, 2.0)]
        both = fit_material(FitProblem(
            param_names=names, x0=x0, bounds=bounds, model=model, max_evals=400,
            series=[DataSeries("equi", strains, y_equi),
                    DataSeries("onethird", strains, y_onethird)]))
        single = fit_material(FitProblem(
            param_names=names, x0=x0, bounds=bounds, model=model, max_evals=400,
            series=[DataSeries("equi", strains, y_equi)]))
        diff = np.max(np.abs(both.x - single.x) / np.abs(single.x))
        assert diff > 1e-3

    def test_model_failure_is_infinite_not_fatal(self):
        base = make_material()
        stretches = np.array([1.05, 1.1])
        y = uniaxial_eng_stress(base, stretches, base.collagen.rho_f)
        names = ["collagen.k1"]

        def flaky(x, series_list):
            if x[0] > 1.0:
                raise RuntimeError("boom")
            return [uniaxial_eng_stress(substitute(base, names, x), s.x,
                                        base.collagen.rho_f) for s in series_list]

        prob = FitProblem(param_names=names, x0=np.array([0.9]),
                          bounds=[(0.05, 5.0)], model=flaky, max_evals=200,
                          series=[DataSeries("s", stretches, y)])
        res = fit_material(prob)
        assert res.params["collagen.k1"] == pytest.approx(0.825, rel=0.05)


class TestPointModelBatch:
    def test_uniaxial_batch_matches_each_series(self):
        # three densities and unequal lengths in one lockstep program, each
        # series bit for bit what its own protocol gives
        base, rhos, prob = collagen_problem()
        series = [DataSeries(k, np.linspace(1.01, 1.02 + 0.03 * i, 3 + 2 * i),
                             np.zeros(3 + 2 * i))
                  for i, k in enumerate(rhos)]
        x = np.array([0.9, 3.5])
        p = substitute(base, prob.param_names, x)
        preds = prob.model(x, series)
        assert len(preds) == len(series)
        for s, pred in zip(series, preds):
            alone = uniaxial_eng_stress(p, s.x, rhos[s.name])
            assert np.array_equal(pred, alone)
            assert np.array_equal(prob.model(x, [s])[0], alone)

    def test_biaxial_batch_matches_each_series(self):
        base = make_material()
        names = ["textile.k1_1", "textile.k1_2"]
        ratios = {"equi": 1.0, "onethird": 3.0}
        model = make_point_model(base, names, kind="biaxial",
                                 ratio_by_series=ratios)
        strains = np.linspace(0.02, 0.2, 6)
        series = [DataSeries(k, strains, np.zeros(6)) for k in ratios]
        x = np.array([0.04, 0.2])
        p = substitute(base, names, x)
        for s, pred in zip(series, model(x, series)):
            assert np.array_equal(pred, biaxial_eng_stress(p, s.x, ratios[s.name], 0.0))

    def test_one_knot_per_series_point(self):
        # a program lays out its series' points and nothing else, in series
        # order: the controlled axes set, the free ones at 1
        base = make_material()
        series = [DataSeries("a", [1.01, 1.1], [0.0, 0.0]),
                  DataSeries("b", [1.05], [0.0])]
        uni = make_point_model(base, ["collagen.k1"], rho_by_series={"b": 5.0})
        prog = uni.program(series)
        assert np.array_equal(prog.lams, [[1.01, 1.0, 1.0], [1.1, 1.0, 1.0],
                                          [1.05, 1.0, 1.0]])
        assert prog.free == [1, 2] and np.array_equal(prog.rho, [0.0, 0.0, 5.0])
        assert prog.parts == [slice(0, 2), slice(2, 3)]
        bi = make_point_model(base, ["textile.k1_1"], kind="biaxial",
                              ratio_by_series={"a": 4.0})
        prog = bi.program(series)
        # the series' x are strains e1 here, and "b" takes the ratio 1
        assert np.array_equal(prog.lams, [[1.01 + 1.0, 1.01 / 4.0 + 1.0, 1.0],
                                          [1.1 + 1.0, 1.1 / 4.0 + 1.0, 1.0],
                                          [1.05 + 1.0, 1.05 + 1.0, 1.0]])
        assert prog.free == [2] and np.array_equal(prog.rho, np.zeros(3))

    @pytest.mark.parametrize("kind, x", [("uniaxial", [1.05, 1.1]),
                                         ("biaxial", [0.05, 0.1])])
    def test_empty_series_predict_empty_arrays(self, kind, x):
        # a series with no points is a program with no knots: alone or next
        # to one with points it predicts an empty array, cold or warm, and
        # no series predict nothing.  A load program of fewer than two knot
        # times used to refuse an empty series alone
        base = make_material()
        model = make_point_model(base, ["textile.k1_1"], kind=kind)
        full, empty = DataSeries("a", x, [0.0, 0.0]), DataSeries("e", [], [])
        xs = [base.textile.k1_1]
        want = model(xs, [full])[0]
        for series in ([empty], [full, empty], [empty, full], []):
            program = model.program(series)
            for preds in (model(xs, series), model(xs, series, program),
                          model(xs, series, program)):
                assert len(preds) == len(series)
                for s, pred in zip(series, preds):
                    assert np.array_equal(pred, want if s is full else np.zeros(0))

    def test_one_bundle_and_one_program_per_evaluation(self, monkeypatch):
        # every objective evaluation of a three-series fit, and the final
        # per-series report, builds one bundle and solves one program
        _, _, prob = collagen_problem(max_evals=20)
        calls = {"substitute": 0, "_solve_program": 0}
        for name in calls:
            fn = getattr(calibrate, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(calibrate, name, counted)
        res = fit_material(prob)
        assert res.nm.n_evals >= 20
        assert calls == {"substitute": res.nm.n_evals + 1,
                         "_solve_program": res.nm.n_evals + 1}


def textile_model():
    base = make_material()
    names = ["textile.k1_1", "textile.k1_2"]
    ratios = {"equi": 1.0, "onethird": 3.0}
    strains = np.linspace(0.02, 0.2, 6)
    series = [DataSeries(k, strains, biaxial_eng_stress(base, strains, r, 0.0))
              for k, r in ratios.items()]
    return make_point_model(base, names, kind="biaxial",
                            ratio_by_series=ratios), series


class TestWarmStart:
    # kappa = 0.15 disperses the fibers onto the lateral axes, so the fitted
    # collagen constants move the free-axis equilibrium and a warm start
    # from the last evaluation is off the new root
    def test_repeated_fits_are_identical(self):
        _, _, prob = collagen_problem(max_evals=120, kappa=0.15)
        first, second = fit_material(prob), fit_material(prob)
        assert np.array_equal(first.x, second.x)
        assert first.nm.n_evals == second.nm.n_evals
        assert first.nm.trace == second.nm.trace
        assert first.objective == second.objective

    def test_warm_predictions_meet_the_cold_ones(self):
        # warm and cold solves both end once the lateral stresses are within
        # STRESS_TOL = 1e-10 MPa, so they agree to that tolerance, against
        # P11 of 0.005 to 0.2 MPa
        _, _, prob = collagen_problem(kappa=0.15)
        program = prob.model.program(prob.series)
        prob.model(np.array([0.5, 6.0]), prob.series, program)
        for x in ([0.55, 6.6], [0.9, 3.5], [0.3, 9.0]):
            hot = prob.model(np.array(x), prob.series, program)
            cold = prob.model(np.array(x), prob.series)
            for h, c in zip(hot, cold):
                assert np.all(np.abs(h - c) <= 1e-8 * np.abs(c))

    @pytest.mark.parametrize("fit", ["collagen", "textile"])
    def test_warm_predictions_are_exact_where_the_lateral_root_stays(self, fit):
        # with fibers along x (collagen) and yarns in the plane (textile),
        # the fitted constants leave the free stretches where they were: the
        # warm solve converges at its start and answers the cold one bit for bit
        if fit == "collagen":
            _, _, prob = collagen_problem()
            model, series, xs = prob.model, prob.series, ([0.5, 6.0], [0.9, 3.5])
        else:
            (model, series), xs = textile_model(), ([0.03, 0.25], [0.05, 0.1])
        program = model.program(series)
        for x in xs:
            hot = model(np.array(x), series, program)
            cold = model(np.array(x), series)
            assert all(np.array_equal(h, c) for h, c in zip(hot, cold))

    def test_equal_shape_programs_never_share_a_start(self):
        # "equi" and "onethird" have the same abscissae and differ in the
        # controlled axis 1: each program of one model keeps its own start,
        # so the second one, solved after the first, answers its cold solve
        # bit for bit
        model, (equi, onethird) = textile_model()
        x = np.array([0.04, 0.2])
        first, second = model.program([equi]), model.program([onethird])
        model(x, [equi], first)
        assert second.start is None
        hot = model(x, [onethird], second)[0]
        assert np.array_equal(hot, model(x, [onethird])[0])

    def test_failed_trial_leaves_the_store(self, monkeypatch):
        _, _, prob = collagen_problem(kappa=0.15)
        program = prob.model.program(prob.series)
        prob.model(np.array([0.5, 6.0]), prob.series, program)
        kept = program.start.copy()
        solve = calibrate._solve_program

        def stalled(*args, **kwargs):
            raise SolverError("free-axis Newton did not converge")

        def non_finite(*args, **kwargs):
            lams, S = solve(*args, **kwargs)
            S[-1] = np.inf
            return lams, S

        for fake in (stalled, non_finite):
            monkeypatch.setattr(calibrate, "_solve_program", fake)
            try:
                preds = prob.model(np.array([0.9, 3.5]), prob.series, program)
            except SolverError:
                pass
            else:
                assert not np.all(np.isfinite(preds[-1]))
            assert np.array_equal(program.start, kept)

    def test_fit_owns_its_store(self, monkeypatch):
        # one program per fit: its first evaluation is cold, each later one
        # starts from the last, and a call outside a fit stays cold
        _, _, prob = collagen_problem(max_evals=20, kappa=0.15)
        starts = []
        solve = calibrate._solve_program

        def recorded(prog, params):
            starts.append(prog.start)
            return solve(prog, params)

        monkeypatch.setattr(calibrate, "_solve_program", recorded)
        for _ in range(2):
            fit_material(prob)
            assert starts[0] is None
            assert all(s is not None for s in starts[1:])
            starts.clear()
        prob.model(prob.x0, prob.series)
        prob.model(prob.x0, prob.series[:1])
        assert starts == [None, None]


def benchmark_fits():
    # the collagen and textile fits of the point_calibration benchmark, from
    # their nominal starts
    base = config.parse_config({}).material
    rho_f = base.collagen.rho_f
    rhos = {"rel100": rho_f, "rel84": 0.8357 * rho_f, "rel61": 0.6060 * rho_f}
    stretches = np.linspace(1.02, 1.12, 6)
    collagen = ["collagen.k1", "collagen.k2"]
    ratios = {"equi": 1.0, "onethird": 3.0}
    strains = np.linspace(0.02, 0.2, 6)
    textile = ["textile.k1_1", "textile.k1_2"]
    return {
        "collagen": FitProblem(
            param_names=collagen, x0=np.array([0.5, 6.0]),
            bounds=[(0.05, 5.0), (0.5, 20.0)], max_evals=600,
            series=[DataSeries(k, stretches, uniaxial_eng_stress(base, stretches, r))
                    for k, r in rhos.items()],
            model=make_point_model(base, collagen, kind="uniaxial",
                                   rho_by_series=rhos)),
        "textile": FitProblem(
            param_names=textile, x0=np.array([0.03, 0.25]),
            bounds=[(1e-4, 1.0), (1e-4, 2.0)], max_evals=400,
            series=[DataSeries(k, strains, biaxial_eng_stress(base, strains, r, 0.0))
                    for k, r in ratios.items()],
            model=make_point_model(base, textile, kind="biaxial",
                                   ratio_by_series=ratios)),
    }


class ReferenceWarmModel:
    """A uniaxial `PointModel`'s warm evaluation written with the public
    point solver: per evaluation one `LoadProgram`, whose path
    `solve_frozen_path` solves from the free stretches of the last
    evaluation whose predictions were finite."""

    def __init__(self, model):
        self.model = model
        self.starts = {}

    def __call__(self, x, series_list):
        m = self.model
        p = substitute(m.base, m.param_names, x)
        rho = np.concatenate([[0.0]] + [np.full(s.x.size, m.rho_by_series[s.name])
                                        for s in series_list])
        knots = np.concatenate([[1.0]] + [s.x for s in series_list])
        prog = LoadProgram(times=np.arange(rho.size, dtype=float),
                           controls=(knots, FREE, FREE), grow=False)
        key = tuple(s.name for s in series_list)
        _, path_lams, free = program_path(prog)
        lams, S, *_ = solve_frozen_path(path_lams, free, p, rho,
                                        self.starts.get(key))
        P = lams[1:, 0] * S[1:, 0]
        if np.all(np.isfinite(P)):
            self.starts[key] = lams[:, free]
        return np.split(P, np.cumsum([s.x.size for s in series_list])[:-1])


def record_tangent_flags(monkeypatch):
    """The `tangent` flag of every point response the free-axis Newton asks for."""
    flags = []
    response = matpoint.total_response

    def recorded(*args, tangent=True, **kwargs):
        flags.append(tangent)
        return response(*args, tangent=tangent, **kwargs)

    monkeypatch.setattr(matpoint, "total_response", recorded)
    return flags


class TestPreparedProgram:
    @pytest.mark.parametrize("fit", ["collagen", "textile"])
    def test_fit_equals_the_cold_callable(self, fit):
        # where the fitted constants leave the free stretches in place, the
        # prepared, warm-started program answers each evaluation as a cold
        # solve per series does, so the whole fit repeats bit for bit
        prob = benchmark_fits()[fit]
        model = prob.model
        warm = fit_material(prob)
        cold = fit_material(dataclasses.replace(
            prob, model=lambda x, ss: [model(x, [s])[0] for s in ss]))
        assert np.array_equal(warm.x, cold.x)
        assert warm.nm.n_evals == cold.nm.n_evals
        assert warm.nm.trace == cold.nm.trace
        assert warm.per_series_rms == cold.per_series_rms

    def test_off_root_fit_follows_the_point_solver(self, monkeypatch):
        # kappa = 0.15: each evaluation's start is off its root.  The fit
        # repeats, bit for bit, the one whose evaluations go through
        # solve_frozen_path from the same starts, with no more tangents
        _, _, prob = collagen_problem(kappa=0.15)
        flags = record_tangent_flags(monkeypatch)
        fast = fit_material(prob)
        fast_flags = list(flags)
        flags.clear()
        ref = fit_material(dataclasses.replace(
            prob, model=ReferenceWarmModel(prob.model)))
        assert np.array_equal(fast.x, ref.x)
        assert fast.nm.n_evals == ref.nm.n_evals
        assert fast.nm.trace == ref.nm.trace
        assert fast.objective == ref.objective
        assert fast_flags.count(True) <= flags.count(True)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [10.0, 1e10])
    def test_a_failing_start_falls_back_to_the_cold_solve(self, value):
        # a stored start that stalls (10) or overflows the textile law
        # (1e10) is dropped, and the evaluation answers the cold solve
        _, _, prob = collagen_problem()
        x = np.array([0.9, 3.5])
        program = prob.model.program(prob.series)
        prob.model(x, prob.series, program)
        program.start = np.full_like(program.start, value)
        with deadline(30):
            hot = prob.model(x, prob.series, program)
        cold = prob.model(x, prob.series)
        assert all(np.array_equal(h, c) for h, c in zip(hot, cold))

    def test_a_start_at_its_root_is_checked_by_its_stress_alone(self, monkeypatch):
        # the second solve at one x converges at its start, so the third is
        # one stress-only evaluation; the fourth, at a new x and off its
        # root, adds the tangents the point solver takes from that start
        _, _, prob = collagen_problem(kappa=0.15)
        ref = ReferenceWarmModel(prob.model)
        flags = record_tangent_flags(monkeypatch)
        program, seen, ref_seen = prob.model.program(prob.series), [], []
        for x in ([0.5, 6.0], [0.5, 6.0], [0.5, 6.0], [0.9, 3.5]):
            hot = prob.model(np.array(x), prob.series, program)
            seen.append(list(flags))
            flags.clear()
            want = ref(np.array(x), prob.series)
            ref_seen.append(list(flags))
            flags.clear()
            assert all(np.array_equal(h, w) for h, w in zip(hot, want))
        assert seen[:2] == ref_seen[:2]
        assert seen[2] == [False]
        assert seen[3] == [False] + ref_seen[3]
