"""Constitutive tests: closed-form values, FD oracles, model structure."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maturesim import tensors as tn
from maturesim.calibrate import substitute
from maturesim.config import parse_config
from maturesim.errors import DeformationError, ParameterError, StateError
from maturesim.growth import GrowthState
from maturesim.materials import (COLLAGEN_SCALARS, TEXTILE_EXPONENT_MAX,
                                 TEXTILE_EXPONENTS, TEXTILE_STIFFNESS,
                                 CollagenParams, MatrixParams, TextileParams,
                                 cauchy_stress, response_batch, total_response)

from _oracles import (collagen_on_C, fd_stress, fd_tangent, matrix_on_C,
                      random_C, random_F, random_rotation, ref_collagen_psim,
                      ref_density_update, ref_energy, ref_matrix_energy,
                      ref_textile_batch, ref_textile_energy, rel_err,
                      response_on_C, textile_on_C)
from conftest import (EX, EY, deadline, make_collagen, make_growth,
                      make_material, make_matrix, make_textile)


class TestMatrix:
    def test_stress_free_reference(self, matrix_params):
        S, _ = matrix_on_C(np.eye(3), matrix_params)
        assert ref_matrix_energy(np.eye(3), matrix_params) == 0.0
        assert np.allclose(S, 0.0, atol=1e-15)

    def test_uniaxial_closed_form(self, matrix_params):
        # S = mu (I - C^-1) + lam/2 (J^2 - 1) C^-1 at C = diag(1.44, 1, 1)
        C = np.diag([1.44, 1.0, 1.0])
        S, _ = matrix_on_C(C, matrix_params)
        assert S[0] == pytest.approx(1.5430555555555552, rel=1e-12)
        mu, lam, J2 = 0.05, 10.0, 1.44
        assert S[1] == pytest.approx(mu * 0.0 + lam / 2 * (J2 - 1), rel=1e-12)
        assert np.allclose(S[3:], 0.0, atol=1e-15)

    def test_small_strain_moduli(self, matrix_params):
        _, CC = matrix_on_C(np.eye(3), matrix_params)
        lam, mu = matrix_params.lam, matrix_params.mu
        assert CC[0, 0] == pytest.approx(lam + 2 * mu, rel=1e-12)
        assert CC[0, 1] == pytest.approx(lam, rel=1e-12)
        assert CC[3, 3] == pytest.approx(mu, rel=1e-12)

    def test_stress_matches_fd_energy(self, matrix_params):
        rng = np.random.default_rng(20)
        for _ in range(100):
            C = random_C(rng, spread=0.3)
            psi_fn = lambda c: ref_matrix_energy(c, matrix_params)
            S, _ = matrix_on_C(C, matrix_params)
            assert rel_err(fd_stress(psi_fn, C), S) < 1e-6

    def test_tangent_matches_fd_stress(self, matrix_params):
        rng = np.random.default_rng(21)
        for _ in range(100):
            C = random_C(rng, spread=0.3)
            s_fn = lambda c: matrix_on_C(c, matrix_params)[0]
            _, CC = matrix_on_C(C, matrix_params)
            assert rel_err(fd_tangent(s_fn, C), CC) < 1e-5
            assert np.allclose(CC, CC.T, rtol=1e-12)

    def test_rejects_bad_states_and_params(self):
        with pytest.raises(DeformationError):
            matrix_on_C(np.diag([1.0, 1.0, -1.0]), make_matrix())
        with pytest.raises(ParameterError):
            MatrixParams(lam=10.0, mu=0.0)

    def test_nonpositive_det_in_a_batch_rejected(self):
        # one bad point among good ones; a singular C raises without a
        # divide-by-zero warning from the closed-form inverse
        rng = np.random.default_rng(5)
        good = np.array([random_C(rng) for _ in range(4)])
        for bad in (np.diag([1.0, 1.0, -1.0]), np.diag([1.0, 1.0, 0.0])):
            C = np.concatenate([good, bad[None]])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DeformationError):
                    tn.deformation_inv_det(C)


class TestCollagen:
    def test_psi_mass_reference(self, collagen_params):
        C = np.diag([1.21, 1.0, 1.0])  # lambda = 1.1 along the fiber
        out = collagen_on_C(C, collagen_params, 0.0)
        psi_m, g = out["psi_m"], out["dpsim_dC"]
        assert psi_m == pytest.approx(5.139336788218925e-4, rel=1e-12)
        assert g[0] > 0.0 and np.allclose(g[1:], 0.0, atol=1e-18)

    def test_tension_only(self, collagen_params):
        C = np.diag([0.9025, 1.0, 1.0])  # lambda = 0.95
        out = collagen_on_C(C, collagen_params, 10.0)
        assert out["psi_m"] == 0.0
        assert np.array_equal(out["dpsim_dC"], np.zeros(6))
        assert np.array_equal(out["S"], np.zeros(6))

    def test_stress_reference(self, collagen_params):
        # 2 k1 E exp(k2 E^2) at full density, lambda = 1.1, kappa = 0
        C = np.diag([1.21, 1.0, 1.0])
        S = collagen_on_C(C, collagen_params, collagen_params.rho_f)["S"]
        assert S[0] == pytest.approx(0.4133450922961771, rel=1e-12)

    def test_linearity_in_density(self, collagen_params):
        C = np.diag([1.21, 1.0, 1.0])
        full = collagen_on_C(C, collagen_params, collagen_params.rho_f)["S"]
        for rel in (0.6060, 0.8357):
            part = collagen_on_C(C, collagen_params, rel * collagen_params.rho_f)["S"]
            assert part[0] == pytest.approx(rel * full[0], rel=1e-14)

    def test_dispersed_stress_matches_fd(self):
        p = make_collagen(kappa=0.12, a=np.array([1.0, 0.4, -0.2]))
        rho = 20.0
        rng = np.random.default_rng(22)
        count = 0
        while count < 100:
            C = random_C(rng, spread=0.2, stretch=0.3)
            out = collagen_on_C(C, p, rho)
            if out["fiber_strain"] < 1e-3:
                continue
            count += 1
            psi_fn = lambda c: rho * ref_collagen_psim(c, p)
            assert rel_err(fd_stress(psi_fn, C), out["S"]) < 1e-6
            s_fn = lambda c: collagen_on_C(c, p, rho)["S"]
            assert rel_err(fd_tangent(s_fn, C), out["CC"]) < 1e-5

    def test_fiber_strain_reference_value(self):
        # E = tr(C H) - 1: the squared mean fiber stretch is 1.308
        p = make_collagen(kappa=0.15)
        E = collagen_on_C(np.diag([1.44, 1.0, 1.0]), p, 0.0)["fiber_strain"]
        assert E + 1.0 == pytest.approx(1.308, abs=1e-12)
        assert E == pytest.approx(0.308, abs=1e-12)

    def test_fiber_strain_linear_in_C(self):
        rng = np.random.default_rng(6)
        p = make_collagen(kappa=0.1, a=rng.standard_normal(3))
        C = random_C(rng)
        l1 = collagen_on_C(C, p, 0.0)["fiber_strain"] + 1.0
        l2 = collagen_on_C(2.5 * C, p, 0.0)["fiber_strain"] + 1.0
        assert l2 == pytest.approx(2.5 * l1, rel=1e-14)

    def test_rejects_negative_density(self):
        # the density reaches the collagen stress through the growth update,
        # which checks it
        with pytest.raises(StateError):
            response_on_C(np.eye(3)[None], make_material(), np.array([-1.0]),
                          0.0, 0.0)

    def test_param_domain(self):
        with pytest.raises(ParameterError):
            CollagenParams(k1=0.825, k2=4.0, kappa=0.5, a=EX, rho_f=38.71)
        with pytest.raises(ParameterError):
            CollagenParams(k1=-1.0, k2=4.0, kappa=0.0, a=EX, rho_f=38.71)

    _RAW = {"k1": 0.825, "k2": 4.0, "kappa": 0.15,
            "a": np.array([1.0, 0.4, -0.2]), "rho_f": 38.71}
    _TABLES = ("H", "h6", "hw", "hh")

    def _replaced_and_fresh(self, changes):
        base = CollagenParams(**self._RAW)
        return base, base.replace(**changes), CollagenParams(**{**self._RAW, **changes})

    @pytest.mark.parametrize("changes", [{"k1": 0.5}, {"k2": 6.0, "rho_f": 20.0},
                                         {"k1": 1.1, "k2": 3.0, "rho_f": 40.0}])
    def test_replace_of_scalars_keeps_the_direction_tables(self, changes):
        base, p, fresh = self._replaced_and_fresh(changes)
        for name in self._TABLES:
            assert getattr(p, name) is getattr(base, name)
        for name in ("a",) + self._TABLES:
            assert np.array_equal(getattr(p, name), getattr(fresh, name))
        for name in ("k1", "k2", "kappa", "rho_f"):
            assert getattr(p, name) == getattr(fresh, name)
        assert base.k1 == self._RAW["k1"] and base.rho_f == self._RAW["rho_f"]
        rng = np.random.default_rng(7)
        C = np.array([random_C(rng, spread=0.2, stretch=0.2) for _ in range(5)])
        got = collagen_on_C(C, p, 20.0, 0.3, 0.1)
        want = collagen_on_C(C, fresh, 20.0, 0.3, 0.1)
        for key in want:
            assert np.array_equal(got[key], want[key])

    @pytest.mark.parametrize("changes", [{"kappa": 0.2}, {"a": EY},
                                         {"kappa": 0.1, "k1": 0.5}])
    def test_replace_of_a_direction_rebuilds_the_tables(self, changes):
        base, p, fresh = self._replaced_and_fresh(changes)
        for name in self._TABLES:
            assert getattr(p, name) is not getattr(base, name)
            assert np.array_equal(getattr(p, name), getattr(fresh, name))

    @pytest.mark.parametrize("name,bad", [
        ("k1", 0.0), ("k2", -1.0), ("rho_f", np.nan), ("k1", np.inf),
        ("k2", np.nan), ("rho_f", -np.inf), ("kappa", 0.5), ("kappa", np.nan),
        ("a", np.zeros(3)), ("a", np.array([np.nan, 0.0, 1.0]))])
    def test_replace_validates_as_construction(self, name, bad):
        with pytest.raises(ParameterError):
            CollagenParams(**{**self._RAW, name: bad})
        with pytest.raises(ParameterError):
            CollagenParams(**self._RAW).replace(**{name: bad})


class TestTextile:
    def test_stress_free_reference(self, textile_params):
        S, _ = textile_on_C(np.eye(3), textile_params)
        assert ref_textile_energy(np.eye(3), textile_params) == 0.0
        assert np.allclose(S, 0.0, atol=1e-18)

    def test_energy_reference_value(self, textile_params):
        # direct evaluation of the polynomial at C = diag(1.44, 1.21, 1)
        u1, u2, u3, u4, u5 = 0.65, 0.44, 1.0736, 0.21, 0.4641
        expected = (38.51e-3 * u2**3 + 1.48e-3 * u3**2 + 214.39e-3 * u4**4
                    + 0.0001e-3 * u5**2 + 183.72e-3 * u1**2 * u2**2
                    + 58.71e-3 * u1**3 * u4**3 + 571.83e-3 * u2**12 * u4**12)
        psi = ref_textile_energy(np.diag([1.44, 1.21, 1.0]), textile_params)
        assert psi == pytest.approx(expected, rel=1e-13)

    def test_transverse_group_vanishes_at_first_order(self, textile_params):
        # uniaxial stretch along n1 leaves I4t = I5t = 1; all terms keyed to
        # the second yarn direction then contribute no stress
        reduced = make_textile()
        reduced = TextileParams(
            k1_1=reduced.k1_1, k2_1=reduced.k2_1, k1_2=0.0, k2_2=0.0,
            k_coup1=reduced.k_coup1, k_coup2=0.0, k_coup_ani=0.0,
            beta1=3, beta2=2, gamma1=4, gamma2=2, delta1=2, delta2=3, xi=12,
            n1=EX, n2=EY)
        C = np.diag([1.3, 1.0, 0.95])
        full = textile_on_C(C, textile_params)[0]
        part = textile_on_C(C, reduced)[0]
        assert np.allclose(full, part, atol=1e-16)

    def test_stress_and_tangent_match_fd(self, textile_params):
        rng = np.random.default_rng(23)
        for _ in range(100):
            C = random_C(rng, spread=0.25)
            psi_fn = lambda c: ref_textile_energy(c, textile_params)
            S, CC = textile_on_C(C, textile_params)
            assert rel_err(fd_stress(psi_fn, C), S, floor=1e-8) < 1e-6
            s_fn = lambda c: textile_on_C(c, textile_params)[0]
            assert rel_err(fd_tangent(s_fn, C), CC, floor=1e-8) < 1e-5

    def test_exponent_validation(self):
        with pytest.raises(ParameterError):
            TextileParams(k1_1=1.0, k2_1=1.0, k1_2=1.0, k2_2=1.0, k_coup1=1.0,
                          k_coup2=1.0, k_coup_ani=1.0, beta1=1, beta2=2,
                          gamma1=4, gamma2=2, delta1=2, delta2=3, xi=12,
                          n1=EX, n2=EY)

    @pytest.mark.parametrize("name", TEXTILE_EXPONENTS)
    def test_exponent_upper_bound(self, name):
        # an exponent above the bound is refused before any table is built,
        # directly, from a config and as a calibration trial; at 10**20 an
        # evaluation's power table would not fit in any memory
        base = make_textile()
        for bad in (TEXTILE_EXPONENT_MAX + 1, 10**20):
            with pytest.raises(ParameterError, match=name):
                dataclasses.replace(base, **{name: bad})
            with pytest.raises(ParameterError, match=name):
                parse_config({"material": {"textile": {name: bad}}})
            with pytest.raises(ParameterError, match=name):
                substitute(make_material(), [f"textile.{name}"], [bad])
        assert getattr(dataclasses.replace(base, **{name: TEXTILE_EXPONENT_MAX}),
                       name) == TEXTILE_EXPONENT_MAX

    def test_name_lists_are_the_numeric_fields(self):
        # the bounds checks and `replace` go by these lists, so a numeric
        # field renamed or added in a parameter block must appear in them;
        # kappa builds the collagen direction tables and is checked there
        def numeric(cls):
            return [f.name for f in dataclasses.fields(cls)
                    if f.init and f.type in (float, int)]

        assert sorted(numeric(CollagenParams)) == sorted(COLLAGEN_SCALARS
                                                         + ("kappa",))
        assert numeric(TextileParams) == list(TEXTILE_STIFFNESS
                                              + TEXTILE_EXPONENTS)


class TestTextileKernel:
    """The table-driven textile kernel against the term-by-term pow form."""

    @staticmethod
    def _agree(got, want):
        for g, w in zip(got, want):
            assert np.all(np.isfinite(g))
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    @settings(max_examples=200, deadline=None)
    @given(stiff=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
                          min_size=7, max_size=7),
           exps=st.lists(st.integers(2, 12), min_size=7, max_size=7),
           axes=st.permutations([0, 1, 2]),
           state=st.sampled_from(["general", "identity", "compressive"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, stiff, exps, axes, state, seed):
        rng = np.random.default_rng(seed)
        n1, n2 = np.eye(3)[axes[0]], np.eye(3)[axes[1]]
        if state == "general":
            # skewed yarns, shear and stretch in every component
            n1 = n1 + 0.5 * rng.standard_normal(3)
            n2 = n2 + 0.5 * rng.standard_normal(3)
            C = np.array([random_C(rng, spread=0.3) for _ in range(6)])
        elif state == "identity":
            # u = 0 exactly: zero-power factors are 1, the rest exact zeros
            C = np.broadcast_to(np.eye(3), (2, 3, 3))
        else:
            # every stretch below 1: negative u, odd powers negative
            C = np.array([np.diag(rng.uniform(0.6, 0.99, 3) ** 2)
                          for _ in range(6)])
        p = TextileParams(**dict(zip(TEXTILE_STIFFNESS, stiff)),
                          **dict(zip(TEXTILE_EXPONENTS, exps)), n1=n1, n2=n2)
        got = textile_on_C(C, p)
        self._agree(got, ref_textile_batch(C, p))
        if state == "identity":
            assert np.all(got[0] == 0.0)

    def test_substituted_params_use_their_own_tables(self):
        # a fit rebuilds TextileParams for every trial point and drops the
        # old one, whose memory (and id) the next one often reuses; each
        # must evaluate with its own constants
        base = make_material()
        rng = np.random.default_rng(41)
        C = np.array([random_C(rng, spread=0.2, stretch=0.1) for _ in range(5)])
        seen = [textile_on_C(C, base.textile)[0]]   # the stresses
        for k1_1, k_ani in ((0.031, 0.2), (0.5, 0.9), (0.2, 0.05), (2.0, 0.0)):
            p = substitute(base, ["textile.k1_1", "textile.k_coup_ani"],
                           [k1_1, k_ani]).textile
            got = textile_on_C(C, p)
            self._agree(got, ref_textile_batch(C, p))
            assert not any(np.allclose(got[0], S) for S in seen)
            seen.append(got[0])
            del p, got

    @settings(max_examples=100, deadline=None)
    @given(stiff=st.dictionaries(st.sampled_from(TEXTILE_STIFFNESS),
                                 st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
                                 max_size=3),
           exps=st.dictionaries(st.sampled_from(TEXTILE_EXPONENTS),
                                st.integers(2, 12), max_size=2),
           seed=st.integers(0, 2**32 - 1))
    def test_substitute_matches_a_fresh_construction(self, stiff, exps, seed):
        # a substitute of stiffness factors alone keeps the direction and
        # exponent tables and recomputes the coefficients; one that changes
        # an exponent rebuilds every table.  Either answers, bit for bit, a
        # freshly constructed TextileParams with the same constants
        assume(stiff or exps)
        changes = {**stiff, **exps}
        base = make_material()
        fields = {k: getattr(base.textile, k)
                  for k in TEXTILE_STIFFNESS + TEXTILE_EXPONENTS}
        fresh = TextileParams(**{**fields, **changes}, n1=EX, n2=EY)
        p = substitute(base, [f"textile.{k}" for k in changes],
                       list(changes.values())).textile
        if set(changes) <= set(TEXTILE_STIFFNESS):
            assert p.mono_pow is base.textile.mono_pow
            assert p.curv is base.textile.curv
        rng = np.random.default_rng(seed)
        C = np.array([random_C(rng, spread=0.2, stretch=0.1) for _ in range(4)])
        for got, want in zip(textile_on_C(C, p), textile_on_C(C, fresh)):
            assert np.array_equal(got, want)

    def test_substitute_validates_stiffness_factors(self):
        with pytest.raises(ParameterError):
            substitute(make_material(), ["textile.k1_2"], [-1e-3])

    def test_batch_shape_follows_input(self, textile_params):
        rng = np.random.default_rng(43)
        C = np.array([random_C(rng) for _ in range(6)]).reshape(2, 3, 3, 3)
        S, CC = textile_on_C(C, textile_params)
        assert S.shape == (2, 3, 6) and CC.shape == (2, 3, 6, 6)
        self._agree((S, CC), ref_textile_batch(C, textile_params))


class TestTotalResponse:
    def test_frame_indifference(self):
        params = make_material(kappa=0.1)
        rng = np.random.default_rng(24)
        state = GrowthState(rho=12.0)
        for _ in range(50):
            F = random_F(rng, spread=0.2, stretch=0.2)
            Q = random_rotation(rng)
            st, _ = total_response(F, params, state, 0.0, 0.0)
            st_rot, _ = total_response(Q @ F, params, state, 0.0, 0.0)
            assert np.max(np.abs(st.S - st_rot.S)) < 1e-10

    def test_frozen_growth_passthrough(self):
        params = make_material()
        state = GrowthState(rho=3.0)
        _, new = total_response(np.diag([1.1, 1.0, 1.0]), params, state, 0.0, 1.0)
        assert new.rho == 3.0

    def test_growth_active_updates_density(self):
        params = make_material(psi_crit=2e-5)
        st, new = total_response(np.diag([1.1, 1.0, 1.0]), params,
                                 GrowthState(rho=5.0), 0.1, 2.0)
        assert new.rho > 5.0

    def test_fiber_strain_limit(self):
        # E = 15 along the fibers: the collagen law refuses it before its
        # exponential overflows, on the point path as in the FE assembly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeformationError, match="fiber strain"):
                total_response(np.diag([4.0, 0.5, 0.5]), make_material(),
                               GrowthState(), 0.0, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(E=st.floats(9.5, 9.99))
    def test_frozen_tangent_finite_near_the_fiber_limit(self, E):
        # (dpsi/dE)^2 leaves the float range above E ~ 9.45 for k2 = 4, short
        # of the law's limit; the tangent's growth term, zero at frozen
        # density, used to square it anyway
        with deadline(10), warnings.catch_warnings():
            warnings.simplefilter("error")
            resp, _ = total_response(np.diag([np.sqrt(1.0 + E), 1.0, 1.0]),
                                     make_material(), GrowthState(rho=5.0),
                                     0.0, 0.0)
        assert np.all(np.isfinite(resp.S)) and np.all(np.isfinite(resp.CC))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lateral", [1e10, 1e14])
    def test_overflowing_response_is_a_deformation_error(self, lateral):
        # lateral stretches of 1e10 take the textile invariants' powers past
        # the float range: a typed failure, no overflow warning.  At 1e10 the
        # overflow is in u(I5t)^12, a power no energy term uses; at 1e14 it
        # is also in u(I4t)^12, which the k_coup_ani term uses
        with deadline(10), pytest.raises(DeformationError, match="overflow"):
            total_response(np.diag([1.2, lateral, lateral]), make_material(),
                           GrowthState(), 0.0, 0.0)

    @pytest.mark.parametrize("dt", [0.0, 0.1])
    def test_stress_alone_is_the_full_stress(self, dt):
        # tangent=False drops the tangent work and nothing else: stress and
        # new state are the full evaluation's bit for bit
        params = make_material(kappa=0.1, psi_crit=2e-5)
        rng = np.random.default_rng(37)
        F = np.array([random_F(rng, spread=0.2, stretch=0.2) for _ in range(5)])
        state = GrowthState(rho=np.linspace(0.0, 30.0, 5))
        full, full_new = total_response(F, params, state, dt, 2.0)
        alone, alone_new = total_response(F, params, state, dt, 2.0, tangent=False)
        assert alone.CC is None
        assert np.array_equal(alone.S, full.S)
        for name in ("rho", "psi_m"):
            assert np.array_equal(getattr(alone_new, name), getattr(full_new, name))

    @pytest.mark.parametrize("tangent", [True, False])
    @pytest.mark.parametrize("dt", [0.0, 0.1])
    def test_empty_stack(self, tangent, dt):
        # a stack of no points answers no points; the textile power table
        # used to fail its reshape with an untyped ValueError
        st, new = total_response(np.zeros((0, 3, 3)), make_material(),
                                 GrowthState(rho=np.zeros(0)), dt, 2.0,
                                 tangent=tangent)
        assert st.S.shape == (0, 6)
        assert st.CC is None if not tangent else st.CC.shape == (0, 6, 6)
        assert new.rho.shape == new.psi_m.shape == (0,)

    @pytest.mark.parametrize("dt", [0.0, 0.1])
    def test_stack_matches_single_points(self, dt):
        # a (2, 3) stack of F sharing one previous density answers, point by
        # point, what one F at a time answers; with dt > 0 the densities
        # update per point
        params = make_material(kappa=0.1, psi_crit=2e-5)
        rng = np.random.default_rng(31)
        F = np.array([[random_F(rng, spread=0.2, stretch=0.2) for _ in range(3)]
                      for _ in range(2)])
        state = GrowthState(rho=5.0)
        st, new = total_response(F, params, state, dt, 2.0)
        assert st.S.shape == (2, 3, 6) and st.CC.shape == (2, 3, 6, 6)
        assert new.rho.shape == new.psi_m.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            one, one_new = total_response(F[idx], params, state, dt, 2.0)
            assert isinstance(one_new.rho, float) and one.S.shape == (6,)
            assert rel_err(st.S[idx], one.S) <= 1e-14
            assert rel_err(st.CC[idx], one.CC) <= 1e-14
            for name in ("rho", "psi_m"):
                assert getattr(new, name)[idx] == pytest.approx(
                    getattr(one_new, name), rel=1e-14, abs=0.0)
        assert np.all(new.rho > 5.0) if dt > 0.0 else np.all(new.rho == 5.0)

    @pytest.mark.parametrize("dt", [0.0, 0.1])
    def test_density_per_point_matches_scalar_calls(self, dt):
        # a stack with one previous density per point answers at each
        # point, bit for bit, what the stack answers with that point's
        # density as the one scalar density
        params = make_material(kappa=0.1, psi_crit=2e-5)
        rng = np.random.default_rng(32)
        F = np.array([[random_F(rng, spread=0.2, stretch=0.2) for _ in range(3)]
                      for _ in range(2)])
        rho = rng.uniform(0.0, 40.0, (2, 3))
        st, new = total_response(F, params, GrowthState(rho=rho), dt, 2.0)
        for idx in np.ndindex(2, 3):
            one, one_new = total_response(F, params,
                                          GrowthState(rho=float(rho[idx])), dt, 2.0)
            assert np.array_equal(st.S[idx], one.S[idx])
            assert np.array_equal(st.CC[idx], one.CC[idx])
            for name in ("rho", "psi_m"):
                assert getattr(new, name)[idx] == getattr(one_new, name)[idx]
        assert np.all(new.rho > rho) if dt > 0.0 else np.array_equal(new.rho, rho)

    def test_coupled_stress_matches_fd_of_discrete_potential(self):
        # the total PK2 stress must be 2 d/dC of the incremental potential
        # with the density update embedded, including the drho/dC chain
        params = make_material(kappa=0.1, psi_crit=2e-5)
        rho_n, dt, t = 4.0, 0.2, 3.0
        rng = np.random.default_rng(25)
        count = 0
        while count < 50:
            C = random_C(rng, spread=0.15, stretch=0.25)
            if collagen_on_C(C, params.collagen, 0.0)["fiber_strain"] < 5e-2:
                continue
            count += 1

            def potential(c):
                psi_m = ref_collagen_psim(c, params.collagen)
                rho = ref_density_update(rho_n, psi_m, t, dt, params.growth)
                return float(ref_energy(c, params, rho))

            out = response_on_C(C[None], params, np.array([rho_n]), t, dt)
            assert out["psi_m"][0] >= params.growth.psi_crit   # growth active
            assert rel_err(fd_stress(potential, C), out["S"][0]) < 1e-6

    def test_coupled_tangent_matches_fd_of_stress(self):
        params = make_material(kappa=0.1, psi_crit=2e-5)
        rho_n, dt, t = 4.0, 0.2, 3.0
        rng = np.random.default_rng(26)
        count = 0
        while count < 50:
            C = random_C(rng, spread=0.15, stretch=0.25)
            if collagen_on_C(C, params.collagen, 0.0)["fiber_strain"] < 5e-2:
                continue
            count += 1

            def stress(c):
                return response_on_C(c[None], params, np.array([rho_n]), t, dt)["S"][0]

            out = response_on_C(C[None], params, np.array([rho_n]), t, dt)
            assert rel_err(fd_tangent(stress, C), out["CC"][0]) < 1e-5

    def test_batch_is_sum_of_constituent_kernels(self):
        # one implementation per constituent: the Gauss-point batch and each
        # constituent's kernel at one point must agree to round-off
        params = make_material(kappa=0.1)
        rng = np.random.default_rng(27)
        C = np.array([random_C(rng, spread=0.2) for _ in range(40)])
        rho = 6.0
        out = response_on_C(C, params, np.full(len(C), rho), 2.0, 0.0)
        assert np.any(out["psi_m"] > 0.0) and np.any(out["psi_m"] == 0.0)
        for c, S, CC in zip(C, out["S"], out["CC"]):
            mat, tex = matrix_on_C(c, params.matrix), textile_on_C(c, params.textile)
            col = collagen_on_C(c, params.collagen, rho)
            assert rel_err(mat[0] + tex[0] + col["S"], S) <= 1e-14
            assert rel_err(mat[1] + tex[1] + col["CC"], CC) <= 1e-14

    def test_rejects_inverted_deformation(self):
        params = make_material()
        with pytest.raises(DeformationError):
            total_response(np.diag([-1.0, 1.0, 1.0]), params, GrowthState(), 0.0, 0.0)

    @pytest.mark.parametrize("dt", [0.0, 0.2])
    @pytest.mark.parametrize("with_pbar", [False, True])
    def test_residual_only_matches_full(self, dt, with_pbar):
        # tangent=False skips the CC work and nothing else: every other
        # array is the same bits, with growth active and frozen
        params = make_material(kappa=0.1, psi_crit=2e-5)
        rng = np.random.default_rng(28)
        C = np.array([random_C(rng, spread=0.2, stretch=0.2) for _ in range(40)])
        rho_n = rng.uniform(0.0, 8.0, len(C))
        pbar = rng.uniform(-0.01, 0.01, len(C)) if with_pbar else None
        full = response_on_C(C, params, rho_n, 3.0, dt, pbar=pbar)
        lean = response_on_C(C, params, rho_n, 3.0, dt, pbar=pbar, tangent=False)
        assert lean["CC"] is None
        assert full.keys() == {"S", "CC", "rho", "psi_m", "fiber_strain"}
        # the mechanical growth branch runs at some points when dt > 0
        assert np.any(full["psi_m"] >= params.growth.psi_crit)
        for key in ("S", "rho", "psi_m", "fiber_strain"):
            assert np.array_equal(lean[key], full[key]), key


    @pytest.mark.parametrize("tangent", [True, False])
    @pytest.mark.parametrize("dt", [0.0, 0.25])
    @pytest.mark.parametrize("with_pbar", [False, True])
    def test_answer_at_a_point_is_batch_invariant(self, tangent, dt, with_pbar):
        # a point alone, or a 17-point slice, answers the same bits as in the
        # (240, 8) Gauss-point batch of the strip: no path depends on the
        # batch size and no product sums a point's components in a loop that
        # depends on it
        params = make_material(kappa=0.15, psi_crit=2e-5)
        rng = np.random.default_rng(44)
        F = np.eye(3) + 0.2 * (rng.random((240, 8, 3, 3)) - 0.5)
        F[..., 0, 0] += 0.2
        Finv, J = tn.deformation_inv_det(F)
        rho_n = rng.uniform(0.0, 20.0, (240, 8))
        pbar = (np.broadcast_to(rng.uniform(-0.01, 0.01, (240, 1)), (240, 8))
                if with_pbar else None)
        full = response_batch(F, Finv, J, params, rho_n, 3.0, dt, pbar=pbar,
                              tangent=tangent)
        # the mechanical growth branch runs at some points when dt > 0
        assert np.any(full["psi_m"] >= params.growth.psi_crit)
        for sl in (np.s_[0, 0], np.s_[117, 5], np.s_[239:240, 7:8],
                   np.s_[40:57, 3]):
            part = response_batch(F[sl], Finv[sl], J[sl], params, rho_n[sl],
                                  3.0, dt, pbar=None if pbar is None else pbar[sl],
                                  tangent=tangent)
            assert part.keys() == full.keys()
            for key, value in part.items():
                want = full[key]
                if want is None:
                    assert value is None
                else:
                    assert np.array_equal(value, want[sl]), (sl, key)


class TestCauchyStress:
    def test_push_forward_diagonal(self):
        F = np.diag([1.2, 1.0, 1.0])
        S = np.array([1.5, 0.3, 0.2, 0.0, 0.0, 0.0])
        sig = cauchy_stress(F, S)
        J = 1.2
        assert sig[0] == pytest.approx(1.2**2 * 1.5 / J, rel=1e-14)
        assert sig[1] == pytest.approx(0.3 / J, rel=1e-14)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(27)
        params = make_material(kappa=0.1)
        F = random_F(rng, spread=0.2)
        Q = random_rotation(rng)
        st, _ = total_response(F, params, GrowthState(rho=5.0), 0.0, 0.0)
        sig = tn.from_voigt(cauchy_stress(F, st.S))
        st2, _ = total_response(Q @ F, params, GrowthState(rho=5.0), 0.0, 0.0)
        sig2 = tn.from_voigt(cauchy_stress(Q @ F, st2.S))
        assert np.max(np.abs(Q @ sig @ Q.T - sig2)) < 1e-10
