"""Nelder-Mead and calibration workflow tests."""

import numpy as np
import pytest

from maturesim import calibrate
from maturesim.calibrate import (DataSeries, FitProblem, biaxial_eng_stress,
                                 fit_material, fit_weibull, make_point_model,
                                 nelder_mead, substitute, uniaxial_eng_stress)
from maturesim.errors import FitError

from conftest import make_material

# relative collagen content measured over four weeks of static culture
MATURATION_POINTS = [(0.0, 0.0), (7.0, 0.28486), (14.0, 0.6060),
                     (21.0, 0.8357), (28.0, 1.0)]


def collagen_problem(max_evals=600):
    base = make_material()
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


class TestSubstitute:
    def test_nested_replacement(self, material_params):
        p = substitute(material_params, ["collagen.k1", "textile.k1_1"], [0.9, 0.02])
        assert p.collagen.k1 == 0.9
        assert p.textile.k1_1 == 0.02
        assert p.matrix.mu == material_params.matrix.mu

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

        def flaky(x, series):
            if x[0] > 1.0:
                raise RuntimeError("boom")
            return uniaxial_eng_stress(substitute(base, names, x), series.x,
                                       base.collagen.rho_f)

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
        preds = prob.model.predict(x, series)
        assert len(preds) == len(series)
        for s, pred in zip(series, preds):
            alone = uniaxial_eng_stress(p, s.x, rhos[s.name])
            assert np.array_equal(pred, alone)
            assert np.array_equal(prob.model(x, s), alone)

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
        for s, pred in zip(series, model.predict(x, series)):
            assert np.array_equal(pred, biaxial_eng_stress(p, s.x, ratios[s.name], 0.0))

    def test_one_bundle_and_one_program_per_evaluation(self, monkeypatch):
        # every objective evaluation of a three-series fit, and the final
        # per-series report, builds one bundle and solves one program
        _, _, prob = collagen_problem(max_evals=20)
        calls = {"substitute": 0, "solve_mixed_point": 0}
        for name in calls:
            fn = getattr(calibrate, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(calibrate, name, counted)
        res = fit_material(prob)
        assert res.nm.n_evals >= 20
        assert calls == {"substitute": res.nm.n_evals + 1,
                         "solve_mixed_point": res.nm.n_evals + 1}
