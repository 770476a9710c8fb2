"""Mixed-control material point driver tests."""

import numpy as np
import pytest

from maturesim import matpoint
from maturesim.errors import ParameterError
from maturesim.growth import GrowthState, bio_rate
from maturesim.materials import (MaterialParams, MatrixParams, collagen_stress,
                                 collagen_psi_mass)
from maturesim.matpoint import (CSV_HEADER, FREE, LoadProgram, records_to_csv,
                                solve_mixed_point, unloaded_maturation)

from conftest import make_collagen, make_growth, make_material, make_textile


def uniaxial(lmax, knots=2, steps=5, grow=False, t_end=1.0):
    times = np.linspace(0.0, t_end, knots)
    vals = np.linspace(1.0, lmax, knots)
    return LoadProgram(times=times, controls=(vals, FREE, FREE),
                       steps_per_interval=steps, grow=grow)


def textile_dominated():
    return MaterialParams(matrix=MatrixParams(lam=0.0, mu=1e-12),
                          collagen=make_collagen(),
                          textile=make_textile(),
                          growth=make_growth())


class TestProgramValidation:
    def test_needs_controlled_axis(self):
        with pytest.raises(ParameterError):
            LoadProgram(times=[0.0, 1.0], controls=(FREE, FREE, FREE))

    def test_rejects_nonpositive_stretch(self):
        with pytest.raises(ParameterError):
            LoadProgram(times=[0.0, 1.0], controls=([1.0, -0.2], FREE, FREE))

    def test_rejects_decreasing_times(self):
        with pytest.raises(ParameterError):
            LoadProgram(times=[0.0, 1.0, 0.5],
                        controls=([1.0, 1.1, 1.2], FREE, FREE))

    def test_engineering_measure_converts(self):
        p = LoadProgram(times=[0.0, 1.0], controls=([0.0, 0.2], FREE, FREE),
                        strain_measure="engineering")
        assert np.allclose(p.controls[0], [1.0, 1.2])


class TestMixedControl:
    def test_free_axes_are_stress_free(self, material_params):
        recs = solve_mixed_point(uniaxial(1.2), material_params)
        for r in recs:
            assert abs(r.sigma[1]) <= 1e-10
            assert abs(r.sigma[2]) <= 1e-10
        assert recs[-1].sigma[0] > 0.0
        assert recs[-1].F[0, 0] == pytest.approx(1.2, rel=1e-14)

    def test_identity_program_is_quiescent(self, material_params):
        ones = np.ones(3)
        prog = LoadProgram(times=[0.0, 5.0],
                           controls=(np.ones(2), np.ones(2), np.ones(2)),
                           steps_per_interval=10, grow=True)
        recs = solve_mixed_point(prog, material_params)
        for r in recs:
            assert np.allclose(r.F, np.eye(3), atol=1e-15)
            assert np.allclose(r.S, 0.0, atol=1e-15)
        # density follows the pure biological course
        t, rho = unloaded_maturation(material_params.growth, 5.0, 0.5)
        assert recs[-1].rho == pytest.approx(rho[-1], rel=1e-12)

    def test_strain_measures_agree(self, material_params):
        a = LoadProgram(times=[0.0, 1.0], controls=([1.0, 1.15], FREE, FREE),
                        steps_per_interval=4)
        b = LoadProgram(times=[0.0, 1.0], controls=([0.0, 0.15], FREE, FREE),
                        steps_per_interval=4, strain_measure="engineering")
        ra = solve_mixed_point(a, material_params)
        rb = solve_mixed_point(b, material_params)
        for x, y in zip(ra, rb):
            assert np.allclose(x.F, y.F, atol=1e-14)
            assert np.allclose(x.S, y.S, atol=1e-14)

    def test_biaxial_ratio_program(self, material_params):
        # transverse knit direction strained at a third of the wale strain
        e1 = np.array([0.0, 0.3])
        prog = LoadProgram(times=[0.0, 1.0], controls=(e1, e1 / 3.0, FREE),
                           steps_per_interval=3, strain_measure="engineering")
        recs = solve_mixed_point(prog, material_params)
        for r in recs:
            assert r.F[0, 0] - 1.0 == pytest.approx(3.0 * (r.F[1, 1] - 1.0), abs=1e-14)
            assert abs(r.sigma[2]) <= 1e-10


class TestEvaluationCount:
    @pytest.mark.parametrize("steps", [1, 5])
    def test_one_response_per_converged_step(self, material_params, monkeypatch,
                                             steps):
        # the reference state converges at the first evaluation, and that
        # evaluation is the one recorded: no second call per step
        calls = []
        response = matpoint.total_response

        def counted(*args):
            calls.append(args)
            return response(*args)

        monkeypatch.setattr(matpoint, "total_response", counted)
        prog = LoadProgram(times=[0, 1], controls=(np.ones(2), FREE, FREE),
                           steps_per_interval=steps, grow=False)
        solve_mixed_point(prog, material_params)
        assert len(calls) == steps + 1


class TestCollagenScaling:
    def test_stress_proportional_to_density(self, material_params):
        # same controlled fiber stretch, different frozen densities: the
        # collagen stress share scales exactly with the density ratio
        co = material_params.collagen
        full = None
        for rel in (1.0, 0.8357, 0.6060):
            recs = solve_mixed_point(uniaxial(1.1),
                                     material_params,
                                     init=GrowthState(rho=rel * co.rho_f))
            r = recs[-1]
            C = r.F.T @ r.F
            s_co = collagen_stress(C, co, r.rho, np.zeros(6)).S[0]
            if rel == 1.0:
                full = s_co
            else:
                assert s_co / full == pytest.approx(rel, rel=1e-14)


class TestTextileShape:
    def test_equibiaxial_curve_monotone_stiffening(self):
        # the thickness axis is pinned: a dry fabric has no out-of-plane
        # stiffness, which makes a zero-stress condition there ill-posed
        params = textile_dominated()
        e = np.array([0.0, 0.25])
        prog = LoadProgram(times=[0.0, 1.0], controls=(e, e, np.zeros(2)),
                           steps_per_interval=25, strain_measure="engineering")
        recs = solve_mixed_point(prog, params)
        P11 = np.array([r.F[0, 0] * r.S[0] for r in recs])
        assert abs(P11[0]) < 1e-12
        assert np.all(np.diff(P11) > 0.0)
        assert np.all(np.diff(P11, 2) > -1e-12)


class TestPathIndependence:
    def test_load_unload_returns_to_zero_stress(self, material_params):
        prog = LoadProgram(times=[0.0, 1.0, 2.0],
                           controls=([1.0, 1.2, 1.0], FREE, FREE),
                           steps_per_interval=6, grow=False)
        recs = solve_mixed_point(prog, material_params)
        assert np.allclose(recs[-1].S, 0.0, atol=1e-12)
        assert np.allclose(recs[-1].F, np.eye(3), atol=1e-9)
        # revisited stretch level reproduces the stress of the loading branch
        up = recs[3]     # lambda = 1.1 on the way up
        down = recs[9]   # lambda = 1.1 on the way down
        assert up.F[0, 0] == pytest.approx(down.F[0, 0], rel=1e-14)
        assert np.allclose(up.S, down.S, atol=1e-12)


class TestGrowthCoupling:
    def test_density_monotone_under_load(self):
        params = make_material(psi_crit=2e-5)
        prog = LoadProgram(times=[0.0, 2.0, 6.0],
                           controls=([1.0, 1.15, 1.05], FREE, FREE),
                           steps_per_interval=8, grow=True)
        recs = solve_mixed_point(prog, params)
        rho = np.array([r.rho for r in recs])
        assert np.all(np.diff(rho) >= 0.0)
        assert rho[-1] > rho[0]


class TestUnloadedMaturation:
    def test_matches_bio_quadrature(self, growth_params):
        times, rho = unloaded_maturation(growth_params, 2.0, 0.25)
        expected = np.cumsum([0.25 * bio_rate(t, growth_params) for t in times])
        assert np.allclose(rho, expected, rtol=1e-12)

    def test_domain(self, growth_params):
        with pytest.raises(ParameterError):
            unloaded_maturation(growth_params, -1.0, 0.1)


class TestCsv:
    def test_layout(self, material_params):
        recs = solve_mixed_point(uniaxial(1.1, steps=2), material_params)
        text = records_to_csv(recs)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(recs) + 1
        row = [float(x) for x in lines[-1].split(",")]
        assert row[1] == pytest.approx(1.1, rel=1e-14)
        assert len(row) == 12
