"""Density evolution tests with closed-form, FD and RK4 oracles."""

import math

import numpy as np
import pytest

from maturesim.errors import ParameterError, SolverError, StateError
from maturesim.growth import (GrowthParams, GrowthState, bio_rate, mech_rate,
                              update_density, update_density_batch,
                              weibull_alpha, weibull_alpha_rate)

from conftest import deadline, make_growth


class TestWeibull:
    def test_reference_values(self):
        # direct evaluation of 1 - exp(-(t/tau)^h) at the published constants
        assert weibull_alpha(0.0, 14.21, 1.65) == 0.0
        assert weibull_alpha(7.0, 14.21, 1.65) == pytest.approx(
            0.2672185227036261, rel=1e-12)
        assert weibull_alpha(28.0, 14.21, 1.65) == pytest.approx(
            0.9532143451112655, rel=1e-12)
        assert weibull_alpha(14.21, 14.21, 1.65) == pytest.approx(
            1.0 - 1.0 / math.e, rel=1e-14)

    def test_monotone_and_saturating(self):
        t = np.linspace(0.0, 60.0, 400)
        a = weibull_alpha(t, 14.21, 1.65)
        assert np.all(np.diff(a) > 0.0)
        assert weibull_alpha(200.0, 14.21, 1.65) == pytest.approx(1.0, abs=1e-10)

    def test_rate_reference_value(self):
        assert weibull_alpha_rate(0.002, 14.21, 1.65) == pytest.approx(
            3.6422774167541597e-04, rel=1e-12)

    def test_rate_zero_at_origin(self):
        assert weibull_alpha_rate(0.0, 14.21, 1.65) == 0.0

    def test_rate_matches_fd_of_alpha(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            tau = rng.uniform(5.0, 30.0)
            t = rng.uniform(0.5, 2.0 * tau)
            h = rng.uniform(1.1, 3.0)
            dt = 1e-5
            fd = (weibull_alpha(t + dt, tau, h) - weibull_alpha(t - dt, tau, h)) / (2 * dt)
            assert weibull_alpha_rate(t, tau, h) == pytest.approx(fd, rel=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            weibull_alpha(-1.0, 14.21, 1.65)
        with pytest.raises(ParameterError):
            weibull_alpha(1.0, -14.21, 1.65)
        with pytest.raises(ParameterError):
            weibull_alpha_rate(1.0, 14.21, 0.0)
        with pytest.raises(ParameterError):
            weibull_alpha_rate(0.0, 14.21, 0.9)


class TestRates:
    def test_bio_rate_scale(self, growth_params):
        # a1 * c_cell = 7.5 ug/mm^3 at the published constants
        t = 5.0
        assert bio_rate(t, growth_params) == pytest.approx(
            7.5 * weibull_alpha_rate(t, 14.21, 1.65), rel=1e-14)

    def test_mech_rate_below_threshold(self, growth_params):
        assert mech_rate(5.0, 0.5 * growth_params.psi_crit, growth_params) == 0.0

    def test_mech_rate_zero_density(self, growth_params):
        assert mech_rate(0.0, 10 * growth_params.psi_crit, growth_params) == 0.0

    def test_mech_rate_value(self):
        p = make_growth()
        rho, psi = 5.0, 0.05
        expected = (p.a2 * p.c_cell * math.exp(-rho / p.rho_th) * rho
                    * (psi - p.psi_crit) / p.psi_crit)
        assert mech_rate(rho, psi, p) == pytest.approx(expected, rel=1e-14)

    def test_negative_density_rejected(self, growth_params):
        with pytest.raises(StateError):
            mech_rate(-1.0, 0.05, growth_params)


class TestParamsValidation:
    def test_shape_must_exceed_one(self):
        with pytest.raises(ParameterError):
            make_growth().__class__(a1=5e-4, a2=5e-7, psi_crit=0.02,
                                    rho_th=10.0, c_cell=15e3, tau=14.21, h=1.0)

    def test_positive_constants(self):
        with pytest.raises(ParameterError):
            GrowthParams(a1=0.0, a2=5e-7, psi_crit=0.02, rho_th=10.0,
                         c_cell=15e3, tau=14.21, h=1.65)

    def test_state_rejects_negative_density(self):
        # a stack state is checked at every point
        for rho in (-0.1, np.nan, np.array([1.0, -0.1]), np.array([np.inf, 1.0])):
            with pytest.raises(StateError):
                GrowthState(rho=rho)


class TestUpdateDensity:
    def test_first_increment(self, growth_params):
        # matches the published first-increment density 5.4634e-06 ug/mm^3
        s = update_density(GrowthState(), 0.002, 0.002, 0.0, growth_params)
        assert s.rho == pytest.approx(5.4634e-06, rel=1e-3)
        assert s.rho == pytest.approx(
            0.002 * bio_rate(0.002, growth_params), rel=1e-14)
        assert s.drho_dpsim == 0.0

    def test_inactive_branch_closed_form(self, growth_params):
        s0 = GrowthState(rho=2.0)
        s = update_density(s0, 3.0, 0.5, 0.019, growth_params)
        assert s.rho == pytest.approx(2.0 + 0.5 * bio_rate(3.0, growth_params),
                                      rel=1e-14)
        assert s.drho_dpsim == 0.0

    def test_zero_dt_freezes(self, growth_params):
        s = update_density(GrowthState(rho=1.5), 4.0, 0.0, 5.0, growth_params)
        assert s.rho == 1.5 and s.drho_dpsim == 0.0

    def test_residual_at_root(self, growth_params):
        p = growth_params
        s0 = GrowthState(rho=3.0)
        t, dt, psi = 10.0, 0.25, 0.06
        s = update_density(s0, t, dt, psi, p)
        r = s.rho - s0.rho - dt * (bio_rate(t, p) + mech_rate(s.rho, psi, p))
        assert abs(r) <= 1e-12

    def test_active_branch_vs_rk4(self):
        # reference: dense RK4 integration of the rate ODE at constant psi_m
        p = make_growth(psi_crit=2e-5)
        psi = 6e-4
        t_end = 10.0

        def rhs(t, rho):
            return bio_rate(t, p) + mech_rate(rho, psi, p)

        n = 20000
        hstep = t_end / n
        rho_rk = 0.0
        for i in range(n):
            t0 = i * hstep
            k1 = rhs(t0, rho_rk)
            k2 = rhs(t0 + hstep / 2, rho_rk + hstep * k1 / 2)
            k3 = rhs(t0 + hstep / 2, rho_rk + hstep * k2 / 2)
            k4 = rhs(t0 + hstep, rho_rk + hstep * k3)
            rho_rk += hstep * (k1 + 2 * k2 + 2 * k3 + k4) / 6

        for dt, tol in ((0.01, 0.02), (0.005, 0.01)):
            s = GrowthState()
            steps = int(round(t_end / dt))
            for i in range(steps):
                s = update_density(s, (i + 1) * dt, dt, psi, p)
            assert s.rho == pytest.approx(rho_rk, rel=tol)

    def test_first_order_in_dt(self):
        # backward Euler: halving dt halves the error against a fine reference
        p = make_growth(psi_crit=2e-5)
        psi, t_end = 6e-4, 8.0

        def run(dt):
            s = GrowthState()
            for i in range(int(round(t_end / dt))):
                s = update_density(s, (i + 1) * dt, dt, psi, p)
            return s.rho

        ref = run(0.0025)
        e1 = abs(run(0.08) - ref)
        e2 = abs(run(0.04) - ref)
        assert 1.8 <= e1 / e2 <= 2.2

    def test_sensitivity_matches_fd(self):
        p = make_growth(psi_crit=2e-5)
        rng = np.random.default_rng(11)
        for _ in range(30):
            rho0 = rng.uniform(0.0, 25.0)
            psi = rng.uniform(3e-5, 2e-3)
            dt = rng.uniform(0.01, 0.3)
            t = rng.uniform(0.5, 25.0)
            s = update_density(GrowthState(rho=rho0), t, dt, psi, p)
            h = 1e-6 * psi
            rp = update_density(GrowthState(rho=rho0), t, dt, psi + h, p).rho
            rm = update_density(GrowthState(rho=rho0), t, dt, psi - h, p).rho
            fd = (rp - rm) / (2 * h)
            assert s.drho_dpsim == pytest.approx(fd, rel=1e-6, abs=1e-18)

    def test_monotone_under_random_histories(self):
        p = make_growth(psi_crit=2e-5)
        rng = np.random.default_rng(12)
        for _ in range(20):
            s = GrowthState()
            t = 0.0
            prev = 0.0
            for _ in range(40):
                dt = rng.uniform(1e-3, 0.5)
                t += dt
                psi = rng.uniform(0.0, 3e-3) * (rng.random() < 0.7)
                s = update_density(s, t, dt, float(psi), p)
                assert s.rho >= prev
                prev = s.rho

    def test_large_step_converges(self):
        p = make_growth(psi_crit=2e-5)
        s = update_density(GrowthState(rho=1.0), 60.0, 50.0, 2e-3, p)
        r = s.rho - 1.0 - 50.0 * (bio_rate(60.0, p) + mech_rate(s.rho, 2e-3, p))
        assert abs(r) <= 1e-12

    @pytest.mark.parametrize("psi, converges", [
        (2.4e4, True), (1e8, True), (1e11, True), (1.1e13, True),
        (1e14, True), (1e16, False)])
    def test_large_energy_converges_or_names_it(self, psi, converges):
        # fiber strains 2 to past 3 under the default growth law; the upper
        # bracket must not grow linearly in psi_m, or bisection cannot close
        # it.  Up to 1e14 the update converges to the root; beyond, where
        # round-off in the residual reaches UPDATE_TOL, it may end in a
        # typed error that names psi_m, never in NaN or a hang.
        p = make_growth(psi_crit=2e-5)
        t, dt, rho_n = 10.0, 0.28, np.array([1.0])
        with deadline(30):
            try:
                rho, D, D2 = update_density_batch(rho_n, np.array([psi]), t,
                                                  dt, p)
            except SolverError as err:
                if converges:
                    raise
                assert err.diagnostics["psi_m"] == psi
                return
        r = rho[0] - rho_n[0] - dt * (bio_rate(t, p) + mech_rate(rho[0], psi, p))
        assert abs(r) <= 1e-12
        assert rho[0] > rho_n[0]
        assert np.all(np.isfinite([D[0], D2[0]]))

    def test_large_density_converges_to_round_off(self):
        # a step of the growing equibiaxial point program x = y = 3 (day
        # 26.04): the residual's round-off, a few ulps of a density near
        # 2000, stayed above the absolute UPDATE_TOL
        p = make_growth(psi_crit=2e-5)
        rho_n, psi = 2018.7549895014113, 9.359531572790699e+86
        t, dt = 26.040000000000003, 0.28000000000000114
        with deadline(30):
            rho, D, D2 = update_density_batch(np.array([rho_n]),
                                              np.array([psi]), t, dt, p)
        r = rho[0] - rho_n - dt * (bio_rate(t, p) + mech_rate(rho[0], psi, p))
        assert abs(r) <= 8.0 * np.finfo(float).eps * rho[0]
        assert rho[0] > rho_n
        assert np.all(np.isfinite([D[0], D2[0]]))

    @pytest.mark.parametrize("psi", [np.nan, np.inf, -np.inf])
    def test_non_finite_energy_is_a_state_error(self, psi):
        # NaN used to pass both the sign check and the activation mask and
        # return the bio-only density; inf warned in the bracket arithmetic
        p = make_growth(psi_crit=2e-5)
        with pytest.raises(StateError):
            update_density_batch(np.array([1.0]), np.array([psi]), 10.0, 0.28, p)

    @pytest.mark.parametrize("psi", [1e305, 1.7e308])
    def test_overflowing_excess_names_psi_m(self, psi):
        # the excess (psi_m - psi_crit) / psi_crit overflows: the typed
        # failure of psi_m = 1e16, with no RuntimeWarning on the way
        p = make_growth(psi_crit=2e-5)
        with pytest.raises(SolverError, match="did not converge") as info:
            update_density_batch(np.array([1.0, 1.0]), np.array([0.0, psi]),
                                 10.0, 0.28, p)
        assert info.value.diagnostics["psi_m"] == psi

    def test_doubling_a2_never_decreases_density(self):
        base = make_growth(psi_crit=2e-5)
        double = make_growth(psi_crit=2e-5, a2=1e-6)
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho0 = rng.uniform(0.0, 15.0)
            psi = rng.uniform(0.0, 2e-3)
            dt = rng.uniform(0.01, 0.5)
            t = rng.uniform(0.1, 20.0)
            r1 = update_density(GrowthState(rho=rho0), t, dt, psi, base).rho
            r2 = update_density(GrowthState(rho=rho0), t, dt, psi, double).rho
            assert r2 >= r1 - 1e-15

    def test_input_validation(self, growth_params):
        with pytest.raises(ParameterError):
            update_density(GrowthState(), 1.0, -0.1, 0.0, growth_params)
        with pytest.raises(StateError):
            update_density(GrowthState(rho=1.0), 1.0, 0.1, -1e-3, growth_params)
        with pytest.raises(StateError):
            update_density_batch(np.array([-1.0]), np.array([0.0]), 1.0, 0.1,
                                 growth_params)
