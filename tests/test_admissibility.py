"""Inadmissible inputs end in the typed error of the rule they break, with
no numpy warning on the way: a density or psi_m that is NaN, infinite or
negative (`GrowthState`, StateError), a deformation that is not finite or
has det F <= 0 (`tensors.deformation_inv_det`, DeformationError) or whose
material response overflows (`materials.response_batch`, DeformationError),
a Weibull time, scale, shape or step that is not finite and positive, or a
rate scale h / tau that is not (ParameterError), a material or growth
constant or direction that is not finite or breaks its bound (the
parameter blocks, whether built or replaced, ParameterError), a
calibration density (StateError), biaxial ratio (FitError) or controlled
stretch (ParameterError) that no solve could use, raised before any
solve, and a data point that is not finite or a weight that is not finite
and >= 0 (`calibrate.DataSeries`, FitError), raised before any fit.  Every
scalar input that `errors.check_range` guards, drawn at its limits (0,
negative, NaN, infinite, non-integer and huge), ends in success or in its
module's typed error (`TestScalarLimits`), and a config's simulation and
strip sections are refused exactly where their consumers' rules refuse
them, at the refused key (ConfigError)."""

import dataclasses
import math
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maturesim import calibrate, growth, materials, matpoint, tensors
from maturesim.cli import main
from maturesim.config import DEFAULTS, parse_config
from maturesim.errors import (ConfigError, DeformationError, FitError, MeshError,
                              ParameterError, SolverError, StateError)
from maturesim.fem import (Dirichlet, FemModel, clamped_strip_model,
                           march_steps, ramp_pressure, strip_mesh)
from maturesim.fem import mesh as fem_mesh
from maturesim.growth import GrowthState

from _oracles import matrix_on_C, response_on_C
from conftest import (deadline, make_growth, make_material, make_matrix,
                      make_textile)

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


# every bounded scalar of the parameter blocks, as `substitute` names it
PARAM_NAMES = (["matrix.lam", "matrix.mu"]
               + [f"collagen.{k}" for k in ("k1", "k2", "kappa", "rho_f")]
               + [f"textile.{k}" for k in materials.TEXTILE_STIFFNESS
                  + materials.TEXTILE_EXPONENTS]
               + [f"growth.{k}" for k in ("a1", "a2", "psi_crit", "rho_th",
                                          "c_cell", "tau", "h")])


class TestParameterBlocks:
    # NaN compares false with every bound, so a bound written as a test for
    # the inadmissible side lets it through; an exponent must fail its bound
    # before int() sees it
    @SETTINGS
    @given(bad=NON_FINITE, name=st.sampled_from(PARAM_NAMES))
    @example(bad=np.nan, name="growth.psi_crit")
    @example(bad=np.nan, name="matrix.lam")
    @example(bad=np.inf, name="collagen.k2")
    @example(bad=np.inf, name="textile.k1_2")
    @example(bad=np.nan, name="textile.xi")
    def test_non_finite_constants(self, bad, name):
        base = make_material()
        block, _, field = name.partition(".")
        # by a trial's replacement, and by construction
        raises_typed(ParameterError, calibrate.substitute, base, [name], [bad])
        raises_typed(ParameterError, dataclasses.replace, getattr(base, block),
                     **{field: bad})

    @SETTINGS
    @given(bad=BAD, name=st.sampled_from(
               [f"collagen.{k}" for k in materials.COLLAGEN_SCALARS]
               + [f"textile.{k}" for k in materials.TEXTILE_STIFFNESS]),
           size=st.integers(1, 4), index=st.integers(0, 3))
    @example(bad=np.nan, name="collagen.k1", size=3, index=1)
    @example(bad=np.inf, name="collagen.rho_f", size=2, index=0)
    @example(bad=-1.0, name="textile.k_coup_ani", size=4, index=3)
    def test_per_point_constants(self, bad, name, size, index):
        # a stack's constants, one per point, are checked entry by entry:
        # one NaN, infinite or negative entry fails the field it is in
        base = make_material()
        block, _, field = name.partition(".")
        good = getattr(getattr(base, block), field)
        raises_typed(ParameterError, calibrate.substitute, base, [name],
                     [with_bad(bad, size, index, good)], match=rf"^{field} must be")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block,field", [("collagen", "a"), ("textile", "n1"),
                                             ("textile", "n2")])
    def test_non_finite_directions(self, bad, block, field):
        raises_typed(ParameterError, dataclasses.replace,
                     getattr(make_material(), block),
                     **{field: np.array([1.0, bad, 0.0])})


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

    def test_series_density_is_one_number(self):
        # an array density used to end in numpy's "inhomogeneous shape"
        # ValueError here, or alone in a broadcasting one within each call
        for rho_by_series in ({"a": np.array([1.0, 2.0])},
                              {"a": 5.0, "b": np.array([1.0, 2.0])}):
            raises_typed(ParameterError, calibrate.make_point_model, make_material(),
                         ["collagen.k1"], rho_by_series=rho_by_series,
                         match=r"rho_by_series\[.[ab].\] must be one density")

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

    @pytest.mark.parametrize("fn, x, ratio", [
        (calibrate.uniaxial_eng_stress, [1.1, 0.0], None),
        (calibrate.uniaxial_eng_stress, [1.1, np.inf], None),
        (calibrate.biaxial_eng_stress, [0.1, -1.0], 1.0),
        # e2 = 0.5 / -0.5 = -1 puts axis 1 at a zero stretch
        (calibrate.biaxial_eng_stress, [0.5], -0.5)])
    def test_protocol_stretches(self, fn, x, ratio):
        # a controlled stretch that is not positive and finite, on either
        # axis, is refused before any solve
        args = (x, 0.0) if ratio is None else (x, ratio, 0.0)
        raises_typed(ParameterError, fn, make_material(), *args,
                     match="stretches must be positive and finite")

    @pytest.mark.parametrize("fn, ratio", [(calibrate.uniaxial_eng_stress, ()),
                                           (calibrate.biaxial_eng_stress, (1.0,))])
    @pytest.mark.parametrize("x, rho, error, match", [
        (1.1, 0.0, FitError, r"must be a vector, got shape \(\)"),
        ([[1.05, 1.1]], 0.0, FitError, r"must be a vector, got shape \(1, 2\)"),
        ([1.05, 1.1], [0.0, 1.0], ParameterError, "rho must be one density")])
    def test_protocol_shapes(self, fn, ratio, x, rho, error, match):
        # a scalar or 2-D abscissa, or an array density, used to end in
        # numpy's "same number of dimensions" or broadcasting ValueError
        raises_typed(error, fn, make_material(), np.asarray(x), *ratio,
                     np.asarray(rho), match=match)

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
        assert np.array_equal(model([[base.textile.k1_1]], [series])[0][0], P)


# the limits of a scalar input: 0, negative, NaN, infinite, non-integer and
# huge, as a float and as an integer past the int64 range
LIMITS = [0.0, -0.0, -1.0, 0.5, 2.5, np.nan, np.inf, -np.inf, 1e300,
          sys.float_info.max, 10**30]
FMAX = sys.float_info.max


def limit_or(*nominal):
    """A limit of a scalar input, or one of its `nominal` values."""
    return st.sampled_from(LIMITS + list(nominal))


def ends_typed(error, fn, *args, **kwargs):
    """fn(*args, **kwargs), or None where it raises `error`; it must warn
    nothing and end in time."""
    with deadline(10), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args, **kwargs)
        except error:
            return None


def refusal(error, fn, *args, **kwargs):
    """The `error` that fn(*args, **kwargs) raises, or None where it
    returns; it must warn nothing and end in time."""
    with deadline(10), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(*args, **kwargs)
        except error as exc:
            return exc
    return None


def assert_config_agrees(section, values, consumer):
    """parse_config refuses `values` as its `section` exactly where a value
    is not a finite number, or not whole for an integer key, or where the
    section's consumer refused them with `consumer` (None if it did not),
    with a ConfigError at the first such key, else at the key the consumer
    refused, or at the section for a rule over several keys."""
    typed = [k for k, v in values.items()
             if not math.isfinite(v) or (type(DEFAULTS[section][k]) is int and v % 1)]
    if typed:
        where = f"{section}.{typed[0]}"
    elif consumer is not None:
        where = f"{section}.{consumer.key}" if consumer.key in values else section
    else:
        where = None
    err = refusal(ConfigError, parse_config, {section: values})
    assert (err and err.path) == where


class TestScalarLimits:
    """The scalar inputs that `errors.check_range` guards, one entry point
    each: a call ends in success or in its module's typed error, with no
    numpy warning, and succeeds exactly where its input is in range."""

    @SETTINGS
    @given(value=limit_or(), which=st.integers(0, 2),
           fn=st.sampled_from([growth.weibull_alpha, growth.weibull_alpha_rate]))
    def test_weibull(self, value, which, fn):
        # (t/tau)^h past the float range used to warn of an overflow
        args = [5.0, 14.21, 1.65]
        args[which] = value
        out = ends_typed(ParameterError, fn, *args)
        inside = (args[0] >= 0.0 and args[1] > 0.0 and args[2] > 0.0
                  and max(args) <= FMAX)
        assert (out is not None) == inside
        assert out is None or math.isfinite(out)

    @SETTINGS
    @given(tau=limit_or(14.21, 1e-10), h=limit_or(1.65, 1e300),
           t=st.sampled_from([5e-11, 5.0]))
    @example(tau=1e-10, h=1e300, t=5e-11)
    def test_weibull_scale_and_shape(self, tau, h, t):
        # tau and h drawn together: a rate scale h / tau past the float
        # range used to be accepted, with NaN rates and densities
        inside = 0.0 < tau <= FMAX and 0.0 < h <= FMAX
        rate = ends_typed(ParameterError, growth.weibull_alpha_rate, t, tau, h)
        assert (rate is not None) == (inside and h / tau <= FMAX)
        assert rate is None or math.isfinite(rate)
        p = ends_typed(ParameterError, dataclasses.replace, make_growth(),
                       tau=tau, h=h)
        assert (p is not None) == (inside and h > 1.0 and h / tau <= FMAX)
        if p is not None:
            rho = growth.update_density_batch(np.zeros(2), np.zeros(2), t, 1e-11, p)[0]
            assert np.isfinite(rho).all()

    @SETTINGS
    @given(value=limit_or(), which=st.sampled_from(["t", "dt"]),
           psi=st.sampled_from([0.0, 0.05]))
    @example(value=10**30, which="dt", psi=0.05)
    def test_density_update_step(self, value, which, psi):
        # an integer dt past the int64 range used to raise TypeError from
        # np.log in the active update
        step = {"t": 10.0, "dt": 0.28, which: value}
        out = ends_typed((ParameterError, SolverError), growth.update_density_batch,
                         np.array([1.0]), np.array([psi]), step["t"], step["dt"],
                         make_growth())
        if not 0.0 <= value <= FMAX:
            assert out is None
        assert out is None or np.isfinite(out).all()

    @SETTINGS
    @given(t_end=limit_or(28.0), dt=limit_or(0.25))
    @example(t_end=10**30, dt=10**30)
    def test_unloaded_maturation(self, t_end, dt):
        # an integer dt past the int64 range used to raise OverflowError
        # as the step times were formed
        out = ends_typed(ParameterError, matpoint.unloaded_maturation,
                         make_growth(), t_end, dt)
        if not (0.0 < t_end <= FMAX and 0.0 < dt <= FMAX):
            assert out is None
        assert out is None or all(np.isfinite(a).all() for a in out)

    @SETTINGS
    @given(steps=limit_or(3), end=limit_or(1.1),
           engineering=st.booleans())
    def test_load_program(self, steps, end, engineering):
        # steps_per_interval = 2.5 used to be accepted, with a path that ran
        # past its last knot, and NaN to fail later in `program_path`
        first, measure = (0.0, "engineering") if engineering else (1.0, "stretch")
        program = ends_typed(ParameterError, matpoint.LoadProgram,
                             times=[0.0, 1.0], controls=([first, end], matpoint.FREE, matpoint.FREE),
                             steps_per_interval=steps, strain_measure=measure)
        stretch = end + 1.0 if engineering else end
        assert (program is not None) == (steps == 3 and 0.0 < stretch <= FMAX)
        if program is not None:
            t, lams, _ = matpoint.program_path(program)
            assert len(t) == 4 and t[-1] == 1.0
            assert lams[-1, 0] == stretch

    @pytest.fixture(scope="class")
    def strip_ramp(self):
        model = clamped_strip_model(make_material(), nx=2, ny=1, nz=1)
        return model, ramp_pressure(model)

    @SETTINGS
    @given(t_end=limit_or(1.0), dt0=limit_or(0.02), dt_max=limit_or(0.25),
           dt_ratio=limit_or(1.25))
    def test_march_controls(self, strip_ramp, t_end, dt0, dt_max, dt_ratio):
        # the controls are checked before the start; infinite steps are
        # accepted, since the last step ends at t_end
        model, ramp = strip_ramp
        first = ends_typed(ParameterError, next,
                           march_steps(model, ramp, t_end, dt0, dt_max, dt_ratio))
        inside = 0.0 < t_end <= FMAX and dt0 > 0.0 and dt_max > 0.0 and dt_ratio >= 1.0
        assert (first is not None) == inside
        assert first is None or first[0].time == 0.0

    @SETTINGS
    @given(t_end=limit_or(1.0), dt0=limit_or(0.02), dt_max=limit_or(0.25),
           dt_ratio=limit_or(1.25))
    def test_config_simulation_section(self, strip_ramp, t_end, dt0, dt_max,
                                       dt_ratio):
        # the config takes march_steps' rule; it refuses the infinite steps
        # that the march accepts because a config value must be finite
        model, ramp = strip_ramp
        controls = {"t_end": t_end, "dt0": dt0, "dt_max": dt_max, "dt_ratio": dt_ratio}
        march = refusal(ParameterError, next, march_steps(model, ramp, **controls))
        assert_config_agrees("simulation", controls, march)

    @SETTINGS
    @given(sizes=st.tuples(*[limit_or(1.0)] * 3),
           counts=st.tuples(*[limit_or(1, 2, 5)] * 3))
    @example(sizes=(1.0, 1.0, 1.0), counts=(5, 5, 1))
    @example(sizes=(-1.0, 1.0, np.nan), counts=(10**30, 1, 1))
    def test_config_strip_section(self, sizes, counts):
        # the config takes strip_mesh's rule, and a section it accepts
        # builds a mesh; a bound of 24 elements puts the count's limit
        # within small meshes
        section = dict(zip(("length", "width", "thickness", "nx", "ny", "nz"),
                           sizes + counts))
        with mock.patch.object(fem_mesh, "_MAX_ELEMS", 24):
            mesh_refusal = refusal(MeshError, strip_mesh, *sizes, *counts)
            assert_config_agrees("strip", section, mesh_refusal)
            cfg = ends_typed(ConfigError, parse_config, {"strip": section})
            if cfg is not None:
                mesh = strip_mesh(*(getattr(cfg.strip, k) for k in section))
                assert mesh.n_elems == math.prod(counts) <= 24

    @SETTINGS
    @given(kappa=limit_or(1.0 / 3.0, 0.2))
    def test_structural_tensor(self, kappa):
        H = ends_typed(ParameterError, tensors.gen_structural_tensor,
                       [1.0, 0.0, 0.0], kappa)
        assert (H is not None) == (0.0 <= kappa <= 1.0 / 3.0)

    @SETTINGS
    @given(sizes=st.tuples(*[limit_or(1.0)] * 3),
           counts=st.tuples(*[limit_or(1, 2)] * 3))
    @example(sizes=(10**30, 1.0, 1.0), counts=(1, 1, 1))
    def test_strip_mesh(self, sizes, counts):
        # an infinite size used to warn before its MeshError, a NaN or huge
        # count and an integer size past the int64 range to end in an
        # untyped error
        mesh = ends_typed(MeshError, strip_mesh, *sizes, *counts)
        inside = (all(0.0 < v <= FMAX for v in sizes)
                  and all(n in (1, 2) for n in counts))
        assert (mesh is not None) == inside
        assert mesh is None or mesh.n_elems == math.prod(counts)

    @SETTINGS
    @given(name=st.sampled_from(materials.TEXTILE_EXPONENTS),
           value=limit_or(2, 3.0, materials.TEXTILE_EXPONENT_MAX))
    def test_textile_exponents(self, name, value):
        p = ends_typed(ParameterError, dataclasses.replace, make_textile(),
                       **{name: value})
        assert (p is not None) == (value in (2, 3, materials.TEXTILE_EXPONENT_MAX))
        assert p is None or type(getattr(p, name)) is int

    @SETTINGS
    @given(dof=limit_or(0, 1, 2, -1, 3))
    def test_dirichlet_dofs(self, dof):
        mesh = strip_mesh(1.0, 1.0, 1.0, 2, 1, 1)
        model = ends_typed(MeshError, FemModel, mesh, make_material(),
                           dirichlet=[Dirichlet("xmin", dofs=(dof,))])
        assert (model is not None) == (dof in (0, 1, 2))
        assert model is None or model.fixed.sum() == len(mesh.node_sets["xmin"])

    @settings(max_examples=20, deadline=None)
    @given(flag=st.sampled_from(["--stretch", "--ratio"]), value=limit_or(1.1))
    def test_cli_matpoint_flags(self, flag, value):
        # a usage error (1) where the flag is out of range, else a record
        # file (0) or a typed solver failure (2); `main` lets no other
        # exception out.  --ratio 1e300 puts the transverse stretch past the
        # float range, which LoadProgram refuses without a warning
        with tempfile.TemporaryDirectory() as out:
            code = ends_typed((), main, ["-q", "matpoint", "--no-grow", "--steps",
                                         "2", f"{flag}={value}", "--out", out])
        inside = 0.0 < value <= FMAX if flag == "--stretch" else abs(value) <= FMAX
        assert code in ((0, 2) if inside else (1,))

    @settings(max_examples=20, deadline=None)
    @given(every=limit_or(0, 3))
    def test_cli_vtk_every(self, every):
        with tempfile.TemporaryDirectory() as out:
            cfg = f"{out}/cfg.json"
            with open(cfg, "w") as fh:
                fh.write('{"strip": {"nx": 1, "ny": 1, "nz": 1}, '
                         '"simulation": {"t_end": 0.02, "dt0": 0.02}}')
            code = ends_typed((), main, ["-q", "fem", "--config", cfg, "--out", out,
                                         f"--vtk-every={every}"])
        # argparse takes integers only
        assert code == (0 if isinstance(every, int) and every >= 0 else 1)
