"""Density evolution tests with closed-form, FD and RK4 oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maturesim import growth
from maturesim.errors import ParameterError, SolverError, StateError
from maturesim.growth import (GrowthParams, GrowthState, bio_rate,
                              update_density_batch, weibull_alpha,
                              weibull_alpha_rate)

from _oracles import ref_mech_rate
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

    def test_past_the_float_range(self):
        # (t/tau)^h past the float range is alpha = 1 and a rate of 0; it
        # used to warn of an overflow, and the rate to be NaN where t/tau
        # or (t/tau)^(h - 1) overflowed too
        assert weibull_alpha(1e300, 14.21, 1.65) == 1.0
        assert weibull_alpha_rate(1e300, 14.21, 1.65) == 0.0
        assert weibull_alpha_rate(5.0, 1e-308, 1.65) == 0.0
        assert weibull_alpha_rate(20.0, 14.21, 1e300) == 0.0

    @pytest.mark.parametrize("t, tau, h", [(5e-11, 1e-10, 1e300),
                                           (5.0, 5e-324, 1.65),
                                           (1e-310, 10.0, 5e-324)])
    def test_rate_scale_out_of_range(self, t, tau, h):
        # a scale h / tau past the float range, or rounded to 0, is refused;
        # the first and last cases gave NaN rates, where the scale met
        # (t/tau)^(h-1) = 0 or inf, and the second, its t/tau past the float
        # range too, gave 0
        with pytest.raises(ParameterError, match="h / tau"):
            weibull_alpha_rate(t, tau, h)

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
        # below psi_crit the update is the bio rate's alone
        p = growth_params
        rho, D, _ = update_density_batch(5.0, 0.5 * p.psi_crit, 3.0, 0.5, p)
        assert rho[0] == 5.0 + 0.5 * bio_rate(3.0, p) and D[0] == 0.0

    def test_mech_rate_zero_density(self, growth_params):
        q = 9.0   # psi_m = 10 psi_crit
        assert growth._mech_partials(0.0, q, growth_params)[0] == 0.0

    def test_mech_rate_value(self):
        p = make_growth()
        rho, psi = 5.0, 0.05
        expected = (p.a2 * p.c_cell * math.exp(-rho / p.rho_th) * rho
                    * (psi - p.psi_crit) / p.psi_crit)
        q = (psi - p.psi_crit) / p.psi_crit
        assert growth._mech_partials(rho, q, p)[0] == pytest.approx(expected,
                                                                  rel=1e-14)

    def test_negative_density_rejected(self, growth_params):
        with pytest.raises(StateError):
            update_density_batch(-1.0, 0.05, 10.0, 0.28, growth_params)


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
        rho, D, _ = update_density_batch(0.0, 0.0, 0.002, 0.002, growth_params)
        assert rho[0] == pytest.approx(5.4634e-06, rel=1e-3)
        assert rho[0] == pytest.approx(
            0.002 * bio_rate(0.002, growth_params), rel=1e-14)
        assert D[0] == 0.0

    def test_inactive_branch_closed_form(self, growth_params):
        rho, D, _ = update_density_batch(2.0, 0.019, 3.0, 0.5, growth_params)
        assert rho[0] == pytest.approx(2.0 + 0.5 * bio_rate(3.0, growth_params),
                                       rel=1e-14)
        assert D[0] == 0.0

    def test_zero_dt_freezes(self, growth_params):
        rho, D, _ = update_density_batch(1.5, 5.0, 4.0, 0.0, growth_params)
        assert rho[0] == 1.5 and D[0] == 0.0

    def test_residual_at_root(self, growth_params):
        p = growth_params
        rho_n, t, dt, psi = 3.0, 10.0, 0.25, 0.06
        rho = update_density_batch(rho_n, psi, t, dt, p)[0][0]
        r = rho - rho_n - dt * (bio_rate(t, p) + ref_mech_rate(rho, psi, p))
        assert abs(r) <= 1e-12

    def test_active_branch_vs_rk4(self):
        # reference: dense RK4 integration of the rate ODE at constant psi_m
        p = make_growth(psi_crit=2e-5)
        psi = 6e-4
        t_end = 10.0

        def rhs(t, rho):
            return bio_rate(t, p) + ref_mech_rate(rho, psi, p)

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
            rho = 0.0
            steps = int(round(t_end / dt))
            for i in range(steps):
                rho = update_density_batch(rho, psi, (i + 1) * dt, dt, p)[0]
            assert rho[0] == pytest.approx(rho_rk, rel=tol)

    def test_first_order_in_dt(self):
        # backward Euler: halving dt halves the error against a fine reference
        p = make_growth(psi_crit=2e-5)
        psi, t_end = 6e-4, 8.0

        def run(dt):
            rho = 0.0
            for i in range(int(round(t_end / dt))):
                rho = update_density_batch(rho, psi, (i + 1) * dt, dt, p)[0]
            return rho[0]

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
            _, D, _ = update_density_batch(rho0, psi, t, dt, p)
            h = 1e-6 * psi
            rp = update_density_batch(rho0, psi + h, t, dt, p)[0][0]
            rm = update_density_batch(rho0, psi - h, t, dt, p)[0][0]
            fd = (rp - rm) / (2 * h)
            assert D[0] == pytest.approx(fd, rel=1e-6, abs=1e-18)

    def test_monotone_under_random_histories(self):
        p = make_growth(psi_crit=2e-5)
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = np.zeros(1)
            t = 0.0
            prev = 0.0
            for _ in range(40):
                dt = rng.uniform(1e-3, 0.5)
                t += dt
                psi = rng.uniform(0.0, 3e-3) * (rng.random() < 0.7)
                rho = update_density_batch(rho, psi, t, dt, p)[0]
                assert rho[0] >= prev
                prev = rho[0]

    def test_large_step_converges(self):
        p = make_growth(psi_crit=2e-5)
        rho = update_density_batch(1.0, 2e-3, 60.0, 50.0, p)[0][0]
        r = rho - 1.0 - 50.0 * (bio_rate(60.0, p) + ref_mech_rate(rho, 2e-3, p))
        assert abs(r) <= 1e-12

    @pytest.mark.parametrize("psi, converges", [
        (2.4e4, True), (1e8, True), (1e11, True), (1.1e13, True),
        (1e14, True), (1e16, False)])
    def test_large_energy_converges_or_names_it(self, psi, converges):
        # fiber strains 2 to past 3 under the default growth law.  Up to
        # 1e14 the update converges to the root; beyond, where
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
        r = rho[0] - rho_n[0] - dt * (bio_rate(t, p) + ref_mech_rate(rho[0], psi, p))
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
        r = rho[0] - rho_n - dt * (bio_rate(t, p) + ref_mech_rate(rho[0], psi, p))
        assert abs(r) <= 8.0 * np.finfo(float).eps * rho[0]
        assert rho[0] > rho_n
        assert np.all(np.isfinite([D[0], D2[0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("psi, rho_root", [(1e30, 658.0183), (1e41, 911.2812)])
    def test_density_far_above_rho_th_converges_to_round_off(self, psi, rho_root):
        # rho lands ~66-91 rho_th above rho_n in one step, so the residual's
        # slope 1 - dt*m_rho scales the round-off of rho past 8 eps rho
        p = make_growth()
        rho_n, t, dt = 5.0, 10.0, 0.1
        with deadline(30):
            rho, D, D2 = update_density_batch(np.array([rho_n]),
                                              np.array([psi]), t, dt, p)
        assert rho[0] == pytest.approx(rho_root, rel=1e-6)
        r = rho[0] - rho_n - dt * (bio_rate(t, p) + ref_mech_rate(rho[0], psi, p))
        assert abs(r) <= 4e-12
        assert np.all(np.isfinite([D[0], D2[0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("psi_crit, rho_n, dt, psi", [
        *((0.02, 5.0, 0.1, psi) for psi in (1e30, 1e41, 1e43, 1e45, 1e100, 1e200)),
        *((2e-5, 1.0, 0.28, psi)
          for psi in (2.4e4, 1e8, 1e11, 1e13, 1.1e13, 1e14, 1e16, 1e20))])
    def test_far_above_rho_th_ends_within_ten_evaluations(self, monkeypatch,
                                                          psi_crit, rho_n,
                                                          dt, psi):
        # rho lands 15 to 450 rho_th above rho_n in one step; the update
        # converges, or names a point that cannot, within ten evaluations
        # of the rates, never after running out of updates
        p = make_growth(psi_crit=psi_crit)
        t = 10.0
        partials = growth._mech_partials
        calls = []

        def counted(*args):
            calls.append(args)
            return partials(*args)

        monkeypatch.setattr(growth, "_mech_partials", counted)
        with deadline(30):
            try:
                rho, D, D2 = update_density_batch(np.array([rho_n]),
                                                  np.array([psi]), t, dt, p)
            except SolverError as err:
                diag = err.diagnostics
                assert diag["psi_m"] == psi
                assert diag["residual"] > diag["tolerance"] >= growth.UPDATE_TOL
            else:
                q = (psi - psi_crit) / psi_crit
                m, m_r = partials(rho, q, p)[:2]
                r = rho - rho_n - dt * (bio_rate(t, p) + m)
                assert abs(r[0]) <= growth._update_tolerance(rho, 1.0 - dt * m_r)[0]
                assert np.all(np.isfinite([D[0], D2[0]]))
        assert len(calls) <= 10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rho_n, t, dt, psi", [
        (1.0, 10.0, 0.28, 2e-5),                     # q = 0, so ln q = -inf
        (1.0, 10.0, 0.28, np.nextafter(2e-5, 1.0)),  # q one rounding above 0
        (0.0, 0.0, 0.28, 6e-4),                      # bio-only predictor 0
        (0.0, 0.0, 0.28, 1e30),
        (0.0, 1e-9, 1e-9, 6e-4),                     # predictor ~2e-16
        (0.0, 1e-9, 1e-9, 1e3)])
    def test_edges_of_the_active_branch(self, rho_n, t, dt, psi):
        p = make_growth(psi_crit=2e-5)
        base = rho_n + dt * bio_rate(t, p)
        rho, D, D2 = update_density_batch(np.array([rho_n]), np.array([psi]),
                                          t, dt, p)
        r = rho[0] - rho_n - dt * (bio_rate(t, p) + ref_mech_rate(rho[0], psi, p))
        assert abs(r) <= growth.UPDATE_TOL
        assert rho[0] >= base
        assert np.all(np.isfinite([D[0], D2[0]]))
        if psi == p.psi_crit:
            assert rho[0] == base
        if base == 0.0:
            # no collagen, no mechanical growth: rho = 0 is the exact root
            assert (rho[0], D[0], D2[0]) == (0.0, 0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rho_n", [0.0, 1e-16])
    def test_zero_slope_is_a_typed_failure(self, rho_n):
        # dt*a2*c_cell*q = 1 with base = 0 is the bifurcation of the roots
        # rho = 0 and rho = rho_th*L: the slope 1 - dt*m_rho is 0 there, so
        # D = dt*m_psi/slope would be 0/0 (base 0) or x/0 (base 1e-16)
        p = make_growth()
        dt = 1e-3
        psi = 0.02 * (1.0 + 1.0 / (dt * 7.5e-3))
        with pytest.raises(SolverError, match="zero slope") as info:
            update_density_batch(np.array([rho_n]), np.array([psi]), 0.0, dt, p)
        assert info.value.diagnostics["psi_m"] == psi
        assert info.value.diagnostics["slope"] == 0.0

    @pytest.mark.parametrize("psi", [1e16, 1e305])
    def test_failure_reports_the_tolerance_applied(self, psi):
        # 1e16 stalls a few ulps above its tolerance; 1e305 overflows
        p = make_growth(psi_crit=2e-5)
        with pytest.raises(SolverError, match="did not converge") as info:
            update_density_batch(np.array([1.0]), np.array([psi]), 10.0, 0.28, p)
        diag = info.value.diagnostics
        assert diag["tolerance"] >= growth.UPDATE_TOL
        assert diag["residual"] > diag["tolerance"]

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
            r1 = update_density_batch(rho0, psi, t, dt, base)[0][0]
            r2 = update_density_batch(rho0, psi, t, dt, double)[0][0]
            assert r2 >= r1 - 1e-15

    def test_input_validation(self, growth_params):
        with pytest.raises(ParameterError):
            update_density_batch(0.0, 0.0, 1.0, -0.1, growth_params)
        with pytest.raises(StateError):
            update_density_batch(1.0, -1e-3, 1.0, 0.1, growth_params)
        with pytest.raises(StateError):
            update_density_batch(np.array([-1.0]), np.array([0.0]), 1.0, 0.1,
                                 growth_params)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def _update_cases(draw):
    psi_crit = draw(st.sampled_from([0.02, 2e-5]))
    dt = draw(st.one_of(st.sampled_from([1e-9, 5.0]), _log_uniform(1e-9, 5.0)))
    rho_n = draw(st.one_of(st.sampled_from([0.0, 2000.0]), st.floats(0.0, 2000.0),
                           _log_uniform(1e-300, 2000.0)))
    psi = draw(st.one_of(st.sampled_from([psi_crit, np.nextafter(psi_crit, 1.0), 1e300]),
                         _log_uniform(psi_crit, 1e300)))
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0)))
    return psi_crit, dt, rho_n, psi, t


class TestUpdateDensityProperties:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(case=_update_cases())
    # rho = 573.2: r = rho - rho_n - dt*(bio + m) rounds to 1.8190e-12
    # against a tolerance of 1.8185e-12, the update's r to 1.7053e-12
    @example(case=(2e-5, 5.0, 1.0, 4.1767339341107723e21, 21.620836810762405))
    def test_converges_or_raises_typed(self, case):
        # dt from 1e-9 to 5, psi_m from psi_crit to 1e300 and rho_n from 0
        # to 2000: the update meets its tolerance with finite sensitivities,
        # or raises a typed error; never a NaN, a warning or a hang.  The
        # residual is the update's own, r = rho - base - dt*m with the
        # bio-only predictor base = rho_n + dt*bio, associated as it is
        psi_crit, dt, rho_n, psi, t = case
        p = make_growth(psi_crit=psi_crit)
        with deadline(30):
            try:
                rho, D, D2 = update_density_batch(np.array([rho_n]),
                                                  np.array([psi]), t, dt, p)
            except (SolverError, StateError):
                return
        q = (psi - psi_crit) / psi_crit
        m, m_r = growth._mech_partials(rho, q, p)[:2]
        base = rho_n + dt * bio_rate(t, p)
        r = rho - base - dt * m
        assert abs(r[0]) <= growth._update_tolerance(rho, 1.0 - dt * m_r)[0]
        assert np.all(np.isfinite([rho[0], D[0], D2[0]]))
