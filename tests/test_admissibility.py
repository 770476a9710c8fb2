"""Inadmissible inputs end in the typed error of the rule they break, with
no numpy warning on the way: a density or psi_m that is NaN, infinite or
negative (`GrowthState`, StateError), a deformation that is not finite or
has det F <= 0 (`tensors.deformation_inv_det`, DeformationError) or whose
material response overflows (`materials.response_batch`, DeformationError),
a Weibull time, scale, shape or step that is not finite and positive
(ParameterError), a calibration density (StateError) or biaxial ratio
(FitError) that no solve could use, raised before any solve, and a data
point that is not finite or a weight that is not finite and >= 0
(`calibrate.DataSeries`, FitError), raised before any fit."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maturesim import calibrate, growth, materials, tensors
from maturesim.errors import (DeformationError, FitError, ParameterError,
                              StateError)
from maturesim.fem import Dirichlet, FemModel, strip_mesh
from maturesim.growth import GrowthState

from _oracles import matrix_on_C, response_on_C
from conftest import deadline, make_growth, make_material, make_matrix

BAD = st.sampled_from([np.nan, np.inf, -np.inf]) | st.floats(
    max_value=-1e-300, allow_nan=False, allow_infinity=False)
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
SETTINGS = settings(max_examples=40, deadline=None)


def raises_typed(error, fn, *args, match=None, **kwargs):
    """fn(*args, **kwargs) raises `error` (whose message matches `match`
    when given), warns nothing and ends in time."""
    with deadline(10), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            fn(*args, **kwargs)


def with_bad(bad, size, index, good=1.0):
    """`size` admissible values with `bad` at `index`."""
    out = np.full(size, good)
    out[index % size] = bad
    return out


class TestGrowthInputs:
    @SETTINGS
    @given(bad=BAD, field=st.sampled_from(["rho", "psi_m"]),
           size=st.integers(0, 4), index=st.integers(0, 3))
    def test_state_fields(self, bad, field, size, index):
        value = bad if size == 0 else with_bad(bad, size, index)
        raises_typed(StateError, GrowthState, **{field: value})

    @SETTINGS
    @given(bad=BAD, which=st.integers(0, 1))
    def test_update_density_batch_scalar_state(self, bad, which):
        args = [1.0, 0.05]
        args[which] = bad
        raises_typed(StateError, growth.update_density_batch, *args, 10.0,
                     0.28, make_growth())

    @SETTINGS
    @given(bad=BAD, which=st.integers(0, 1), size=st.integers(1, 4),
           index=st.integers(0, 3))
    def test_update_density_batch_state(self, bad, which, size, index):
        args = [np.full(size, 1.0), np.full(size, 0.05)]
        args[which] = with_bad(bad, size, index, args[which][0])
        raises_typed(StateError, growth.update_density_batch, *args, 10.0,
                     0.28, make_growth())

    @SETTINGS
    @given(bad=BAD, which=st.sampled_from(["t", "dt"]))
    def test_update_density_batch_time(self, bad, which):
        step = {"t": 10.0, "dt": 0.28, which: bad}
        raises_typed(ParameterError, growth.update_density_batch,
                     np.array([1.0]), np.array([0.05]), step["t"], step["dt"],
                     make_growth())

    @SETTINGS
    @given(bad=BAD, which=st.sampled_from(["psi_m", "t_np1", "dt"]))
    def test_update_density_batch_scalars(self, bad, which):
        args = {"t_np1": 10.0, "dt": 0.28, "psi_m": 0.05, which: bad}
        error = StateError if which == "psi_m" else ParameterError
        raises_typed(error, growth.update_density_batch, 1.0, args["psi_m"],
                     args["t_np1"], args["dt"], make_growth())

    @SETTINGS
    @given(bad=BAD)
    def test_collagen_density(self, bad):
        # the density the collagen stress scales reaches it through the
        # growth update, which checks it
        raises_typed(StateError, response_on_C, np.diag([1.21, 1.0, 1.0])[None],
                     make_material(), bad, 0.0, 0.0)

    @SETTINGS
    @given(bad=BAD, which=st.integers(0, 2),
           fn=st.sampled_from([growth.weibull_alpha, growth.weibull_alpha_rate]))
    def test_weibull(self, bad, which, fn):
        args = [5.0, 14.21, 1.65]
        args[which] = bad
        raises_typed(ParameterError, fn, *args)


def deformations(rng_seed, size):
    """`size` random admissible F near the identity."""
    rng = np.random.default_rng(rng_seed)
    return np.eye(3) + 0.2 * rng.uniform(-1.0, 1.0, (size, 3, 3))


def inadmissible_F(seed, size, index, entry, bad, flip):
    """A stack of F with one inadmissible point: a non-finite entry, or,
    with `flip`, one row negated so that det F < 0."""
    F = deformations(seed, size)
    k = index % size
    if flip:
        F[k, entry % 3] *= -1.0
    else:
        F[k].flat[entry] = bad
    return F[0] if size == 1 else F


F_CASES = dict(seed=st.integers(0, 2**16), size=st.integers(1, 4),
               index=st.integers(0, 3), entry=st.integers(0, 8), bad=NON_FINITE,
               flip=st.booleans())


class TestDeformation:
    @SETTINGS
    @given(**F_CASES)
    def test_deformation_inv_det(self, seed, size, index, entry, bad, flip):
        F = inadmissible_F(seed, size, index, entry, bad, flip)
        raises_typed(DeformationError, tensors.deformation_inv_det, F)

    @SETTINGS
    @given(**F_CASES)
    def test_cauchy_stress(self, seed, size, index, entry, bad, flip):
        F = inadmissible_F(seed, size, index, entry, bad, flip)
        S = np.ones(F.shape[:-2] + (6,))
        raises_typed(DeformationError, materials.cauchy_stress, F, S)

    @SETTINGS
    @given(**F_CASES)
    def test_total_response(self, seed, size, index, entry, bad, flip):
        F = inadmissible_F(seed, size, index, entry, bad, flip)
        raises_typed(DeformationError, materials.total_response, F,
                     make_material(), GrowthState(rho=1.0), 0.0, 0.0)

    @SETTINGS
    @given(bad=BAD, which=st.sampled_from(["t", "dt"]))
    def test_total_response_step(self, bad, which):
        step = {"t": 10.0, "dt": 0.28, which: bad}
        raises_typed(ParameterError, materials.total_response,
                     np.diag([1.1, 1.0, 1.0]), make_material(),
                     GrowthState(rho=1.0), step["dt"], step["t"])

    @SETTINGS
    @given(seed=st.integers(0, 2**16), entry=st.integers(0, 8), bad=NON_FINITE,
           flip=st.booleans())
    def test_matrix_batch_on_C(self, seed, entry, bad, flip):
        # C = F^T F of an admissible F with a non-finite entry, or with one
        # row negated so that det C < 0
        F = deformations(seed, 1)[0]
        C = F.T @ F
        if flip:
            C[entry % 3] *= -1.0
        else:
            C.flat[entry] = bad
        raises_typed(DeformationError, matrix_on_C, C, make_matrix())

    @SETTINGS
    @given(bad=NON_FINITE | st.sampled_from([1e160, -1e160, 1e300, -1e300]),
           dof=st.integers(0, 2**16))
    def test_fe_assembly(self, bad, dof):
        # a non-finite displacement reaches no kernel, and a finite one whose
        # C = F^T F overflows is caught by the response's overflow guard:
        # assembling there raises, and the solver's feasibility seam reports
        # an infinite residual with that error
        model = FemModel(strip_mesh(2.0, 1.0, 1.0, 2, 1, 1), make_material(),
                         dirichlet=[Dirichlet("xmin")])
        u = np.zeros(model.n_dof)
        u[model.free_idx[dof % len(model.free_idx)]] = bad
        raises_typed(DeformationError, model.assemble, u, 0.0, 0.0)
        rnorm, err = model._try_assemble(u, 0.0, 0.0)
        assert rnorm == np.inf and isinstance(err, DeformationError)


class TestCalibrationInputs:
    # a fit's objective counts every failed evaluation as an infinite
    # residual, so a bad input has to fail when the model is built
    @SETTINGS
    @given(bad=BAD)
    def test_series_density(self, bad):
        raises_typed(StateError, calibrate.make_point_model, make_material(),
                     ["collagen.k1"], rho_by_series={"a": 5.0, "b": bad})

    @SETTINGS
    @given(bad=NON_FINITE, field=st.sampled_from(["x", "y"]),
           index=st.integers(0, 3))
    @example(bad=np.nan, field="y", index=1)
    def test_series_points(self, bad, field, index):
        # fails when the series is built, not as a non-finite objective at
        # the fit's starting point
        data = {"x": np.arange(4.0), "y": np.array([0.0, 0.2, 0.5, 0.7])}
        data[field][index] = bad
        raises_typed(FitError, calibrate.fit_weibull, data["x"], data["y"],
                     match=rf"series alpha: {field}\[{index}\]")

    @SETTINGS
    @given(bad=BAD, index=st.integers(0, 3))
    @example(bad=np.nan, index=2)
    def test_series_weights(self, bad, index):
        # a NaN weight compares false with 0, so a test for negative
        # weights alone lets it through
        raises_typed(FitError, calibrate.DataSeries, "s", np.arange(4.0),
                     np.arange(4.0), with_bad(bad, 4, index),
                     match=rf"series s: weights\[{index}\]")

    @pytest.mark.parametrize("ratio", [0.0, -0.0, np.nan])
    def test_biaxial_ratio(self, ratio):
        raises_typed(FitError, calibrate.make_point_model, make_material(),
                     ["textile.k1_1"], kind="biaxial",
                     ratio_by_series={"a": 1.0, "b": ratio})
        raises_typed(FitError, calibrate.biaxial_eng_stress, make_material(),
                     [0.05], ratio, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_infinite_biaxial_ratio_holds_axis_1(self):
        # e1 = inf * e2 is e2 = 0: axis 1 held at its unit stretch
        base = make_material()
        P = calibrate.biaxial_eng_stress(base, [0.05, 0.1], np.inf, 0.0)
        assert np.all(np.isfinite(P))
        model = calibrate.make_point_model(base, ["textile.k1_1"], kind="biaxial",
                                           ratio_by_series={"a": np.inf})
        series = calibrate.DataSeries("a", [0.05, 0.1], P)
        assert np.array_equal(model([base.textile.k1_1], [series])[0], P)
