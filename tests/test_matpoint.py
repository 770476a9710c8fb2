"""Mixed-control material point driver tests."""

import numpy as np
import pytest

from maturesim import calibrate, config, materials, matpoint
from maturesim.errors import ParameterError, SolverError
from maturesim.growth import GrowthState, bio_rate
from maturesim.materials import MaterialParams, MatrixParams, cauchy_stress
from maturesim.matpoint import (CSV_HEADER, FREE, LoadProgram, records_to_csv,
                                solve_mixed_point, unloaded_maturation)

from _oracles import collagen_on_C, ref_solve_mixed_point
from conftest import (deadline, make_collagen, make_growth, make_material,
                      make_matrix, make_textile)


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
        # NaN fails every comparison, so positivity alone lets it through
        for vals in ([1.0, -0.2], [1.0, np.nan], [1.0, np.inf], [np.nan, 1.1]):
            with pytest.raises(ParameterError):
                LoadProgram(times=[0.0, 1.0], controls=(vals, FREE, FREE))

    def test_rejects_decreasing_times(self):
        # NaN fails every comparison, so monotonicity alone lets it through
        for times in ([0.0, 1.0, 0.5], [0.0, np.nan, 1.0], [0.0, 1.0, np.nan],
                      [0.0, 1.0, np.inf], [np.nan, 1.0, 2.0]):
            with pytest.raises(ParameterError):
                LoadProgram(times=times, controls=([1.0, 1.1, 1.2], FREE, FREE))

    def test_step_count_bounds(self):
        # the path is allocated whole, so a program of more than MAX_STEPS
        # steps is refused at construction (1e12 steps used to end in a
        # numpy allocation error); MAX_STEPS itself is accepted.  The count
        # is a whole number: 2.5 used to be accepted, with a path that ran
        # past its last knot (times 0, 0.4, 0.8, 1.2), and NaN to fail
        # later, untyped, in program_path; 3.0 is the program of 3
        bound = matpoint.MAX_STEPS
        for times, steps in [([0.0, 1.0], 0), ([0.0, 1.0], bound + 1),
                             ([0.0, 1.0, 2.0], bound // 2 + 1),
                             ([0.0, 1.0], 10**12), ([0.0, 1.0], 2.5),
                             ([0.0, 1.0], np.nan), ([0.0, 1.0], np.inf)]:
            with pytest.raises(ParameterError):
                LoadProgram(times=times, controls=(FREE, np.ones(len(times)), FREE),
                            steps_per_interval=steps)
        LoadProgram(times=[0.0, 1.0], controls=(FREE, np.ones(2), FREE),
                    steps_per_interval=bound)
        paths = [matpoint.program_path(LoadProgram(
            times=[0.0, 1.0], controls=([1.0, 1.1], FREE, FREE), steps_per_interval=n))
            for n in (3, 3.0)]
        assert all(np.array_equal(a, b) for a, b in zip(*paths))

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

    def test_path_follows_the_knot_interpolation(self, material_params):
        # step s of n in interval k sits at t0 + w (t1 - t0) with stretch
        # (1 - w) v0 + w v1, w = s/n, evaluated exactly so
        times, vals, n = [0.0, 0.3, 1.7], [1.0, 1.07, 1.02], 3
        prog = LoadProgram(times=times, controls=(FREE, vals, FREE),
                           steps_per_interval=n)
        recs = solve_mixed_point(prog, material_params)
        expect = [(times[0], vals[0])]
        for k in range(len(times) - 1):
            for s in range(1, n + 1):
                w = s / n
                expect.append((times[k] + w * (times[k + 1] - times[k]),
                               (1.0 - w) * vals[k] + w * vals[k + 1]))
        assert [(r.time, r.F[1, 1]) for r in recs] == expect

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


class TestPushForward:
    @pytest.mark.parametrize("program", [
        LoadProgram(times=[0.0, 4.0], controls=([1.0, 1.3], FREE, FREE),
                    steps_per_interval=8, grow=True),
        LoadProgram(times=[0.0, 1.0], controls=([0.0, 0.3], [0.0, 0.3], FREE),
                    steps_per_interval=8, strain_measure="engineering",
                    grow=False)], ids=["growing-uniaxial", "frozen-biaxial"])
    def test_sigma_is_the_push_forward_of_s(self, program):
        # off-axis collagen and skewed yarns give S shear entries, so every
        # component of sigma_ij = l_i S_ij l_j / J is compared with the
        # general push-forward J^-1 F S F^T
        params = MaterialParams(
            matrix=make_matrix(),
            collagen=make_collagen(kappa=0.05, a=np.array([1.0, 0.6, 0.2])),
            textile=make_textile(n1=np.array([1.0, 0.3, 0.0]),
                                 n2=np.array([-0.3, 1.0, 0.1])),
            growth=make_growth())
        recs = solve_mixed_point(program, params)
        assert max(np.max(np.abs(r.S[3:])) for r in recs) > 0.04
        for r in recs:
            expect = cauchy_stress(r.F, r.S)
            assert np.max(np.abs(r.sigma - expect)) <= 1e-14 * np.max(np.abs(expect))


def count_responses(monkeypatch):
    """Record the stack shape of every `total_response` call the solver makes."""
    calls = []
    response = matpoint.total_response

    def counted(F, *args, **kwargs):
        calls.append(np.shape(F)[:-2])
        return response(F, *args, **kwargs)

    monkeypatch.setattr(matpoint, "total_response", counted)
    return calls


class TestEvaluationCount:
    @pytest.mark.parametrize("steps", [1, 5])
    def test_one_response_per_converged_step(self, material_params, monkeypatch,
                                             steps):
        # the knots of a frozen program are independent: the reference state
        # converges at the first evaluation of the batch, which covers every
        # knot once and is the evaluation recorded
        calls = count_responses(monkeypatch)
        prog = LoadProgram(times=[0, 1], controls=(np.ones(2), FREE, FREE),
                           steps_per_interval=steps, grow=False)
        solve_mixed_point(prog, material_params)
        assert calls == [(steps + 1,)]

    @pytest.mark.parametrize("steps", [1, 5])
    def test_growing_program_is_sequential(self, material_params, monkeypatch,
                                           steps):
        # a growing point marches in time: one single-point evaluation per
        # converged step, none repeated
        calls = count_responses(monkeypatch)
        prog = LoadProgram(times=[0, 1], controls=(np.ones(2), FREE, FREE),
                           steps_per_interval=steps, grow=True)
        solve_mixed_point(prog, material_params)
        assert calls == [(1,)] * (steps + 1)


def skewed_yarns():
    # off-axis collagen and skewed yarns: S carries shear entries
    return MaterialParams(
        matrix=make_matrix(),
        collagen=make_collagen(kappa=0.05, a=np.array([1.0, 0.6, 0.2])),
        textile=make_textile(n1=np.array([1.0, 0.3, 0.0]),
                             n2=np.array([-0.3, 1.0, 0.1])),
        growth=make_growth(psi_crit=2e-5))


def oracle_programs(grow):
    # dispersed or off-axis collagen loads the free axes too, so the free
    # stretches depend on the density; a low psi_crit lets the load grow it
    e = np.array([0.0, 0.12, 0.2])
    times = [0.0, 2.0, 5.0]
    dispersed = make_material(kappa=0.1, psi_crit=2e-5)
    return {
        "uniaxial": (dispersed, LoadProgram(
            times=times, controls=([1.0, 1.12, 1.2], FREE, FREE),
            steps_per_interval=4, grow=grow)),
        "biaxial-1": (dispersed, LoadProgram(
            times=times, controls=(e, e, FREE), steps_per_interval=4,
            strain_measure="engineering", grow=grow)),
        "biaxial-3": (dispersed, LoadProgram(
            times=times, controls=(e, e / 3.0, FREE), steps_per_interval=4,
            strain_measure="engineering", grow=grow)),
        "skewed-yarn": (skewed_yarns(), LoadProgram(
            times=times, controls=([1.0, 1.1, 1.18], FREE, FREE),
            steps_per_interval=4, grow=grow)),
    }


PROGRAM_NAMES = ["uniaxial", "biaxial-1", "biaxial-3", "skewed-yarn"]


class TestBatchAgainstSequential:
    """The lockstep batch against the sequential per-knot Newton."""

    @pytest.mark.parametrize("rho", [0.0, 5.0, 30.0])
    @pytest.mark.parametrize("name", PROGRAM_NAMES)
    def test_frozen_batch_matches(self, name, rho):
        params, prog = oracle_programs(grow=False)[name]
        free = [ax for ax, c in enumerate(prog.controls) if isinstance(c, str)]
        init = GrowthState(rho=rho)
        recs = solve_mixed_point(prog, params, init=init)
        ref = ref_solve_mixed_point(prog, params, init=init)
        assert len(recs) == len(ref)
        for r, q in zip(recs, ref):
            assert r.time == q.time and r.rho == q.rho == rho
            assert np.max(np.abs(r.sigma[free])) <= matpoint.STRESS_TOL
            assert np.max(np.abs(np.diag(r.F) - np.diag(q.F))) <= 1e-9

    @pytest.mark.parametrize("rho", [0.0, 5.0, 30.0])
    @pytest.mark.parametrize("name", PROGRAM_NAMES)
    def test_growing_records_are_identical(self, name, rho):
        params, prog = oracle_programs(grow=True)[name]
        init = GrowthState(rho=rho)
        recs = solve_mixed_point(prog, params, init=init)
        assert recs[-1].rho > rho
        assert records_to_csv(recs) == records_to_csv(
            ref_solve_mixed_point(prog, params, init=init))

    @pytest.mark.parametrize("grow", [False, True])
    def test_unconverged_knot_raises(self, material_params, monkeypatch, grow):
        # the initial knot converges at its first evaluation, the loaded one
        # cannot within one: a typed failure, no record; the frozen batch
        # names the knot, a growing step is a stack of one
        monkeypatch.setattr(matpoint, "NEWTON_MAXIT", 1)
        with pytest.raises(SolverError) as info:
            solve_mixed_point(uniaxial(1.2, steps=1, grow=grow), material_params)
        diag = info.value.diagnostics
        assert diag["iterations"] == 1
        assert matpoint.STRESS_TOL < diag["residual"] < np.inf
        assert diag["point"] == (0 if grow else 1)


class TestFreeStretchFloor:
    def test_free_stretch_below_the_starting_guess(self, material_params):
        # z stretched 25-fold with x held starts the free y axis at the
        # incompressible guess 0.04 and the root lies below it; the step
        # halving keeps each iterate above a twentieth of the last one
        # instead of above 0.05, which halving toward 0.04 never reached
        prog = LoadProgram(times=[0, 1], controls=([1.0, 1.0], FREE, [1.0, 25.0]),
                           grow=False)
        with deadline(30):
            recs = solve_mixed_point(prog, material_params)
        assert 0.0 < recs[-1].F[1, 1] < 0.04
        assert abs(recs[-1].sigma[1]) <= matpoint.STRESS_TOL


def equibiaxial_yz(stretch, steps=100):
    # y and z stretched alike, x free: the default config's collagen lies
    # along x and its yarns along x and y
    return LoadProgram(times=[0.0, 28.0],
                       controls=(FREE, [1.0, stretch], [1.0, stretch]),
                       steps_per_interval=steps, grow=False)


class TestFiberStrainGuard:
    @pytest.mark.parametrize("stretch", [3.0, 5.0])
    def test_iterates_stay_within_the_fiber_limit(self, monkeypatch, stretch):
        # a full Newton step from the incompressible guess took x past the
        # fiber limit (E = 13.6 at y = z = 5) and sank the whole batch; the
        # step is halved before the batch is evaluated, and the knots the
        # guess leads to no root are solved along the path instead
        params = config.parse_config({}).material
        strains = []
        response = matpoint.total_response

        def recorded(F, *args, **kwargs):
            C = np.einsum("...ki,...kj->...ij", F, F)
            E = np.einsum("...ij,ij->...", C, params.collagen.H) - 1.0
            strains.append(np.max(E))
            return response(F, *args, **kwargs)

        monkeypatch.setattr(matpoint, "total_response", recorded)
        with deadline(60):
            recs = solve_mixed_point(equibiaxial_yz(stretch), params)
        assert max(strains) <= materials.FIBER_STRAIN_MAX
        assert recs[-1].F[1, 1] == recs[-1].F[2, 2] == stretch
        for r in recs:
            # zero to the round-off of Cauchy stresses up to 4e7 MPa
            assert abs(r.sigma[0]) <= max(matpoint.STRESS_TOL,
                                          1e-14 * np.max(np.abs(r.sigma)))


class TestPerPointDensity:
    def test_path_matches_scalar_density_solves(self, material_params):
        # one frozen path with a density per knot answers, knot by knot,
        # what one scalar-density program per density answers, bit for bit
        prog = uniaxial(1.15, steps=6)
        rhos = np.linspace(0.0, 38.71, 7)
        path_t, lams, free = matpoint.program_path(prog)
        path = matpoint.solve_frozen_path(lams, free, material_params, rhos)
        assert np.array_equal(path[3], rhos)
        for k, rho in enumerate(rhos):
            alone = solve_mixed_point(prog, material_params,
                                      init=GrowthState(rho=rho))[k]
            assert alone.time == path_t[k]
            for knot, field in zip((np.diag(alone.F), alone.S, alone.sigma,
                                    alone.rho, alone.psi_m), path):
                assert np.array_equal(knot, field[k])

    @pytest.mark.parametrize("grow", [False, True])
    def test_point_solver_takes_one_density(self, material_params, grow):
        with pytest.raises(ParameterError):
            solve_mixed_point(uniaxial(1.1, steps=6, grow=grow), material_params,
                              init=GrowthState(rho=np.full(7, 5.0)))


def solved_path(prog, params, start=None, rho=0.0):
    """`solve_frozen_path` over a frozen program's path: every array it
    returns, as bytes."""
    _, lams, free = matpoint.program_path(prog)
    solved = matpoint.solve_frozen_path(lams, free, params, rho, start)
    return b"".join(field.tobytes() for field in solved)


def solved_prepared(prog, params, start=None):
    """The path after its initial knot solved as a prepared calibration
    program: its axis-0 stretches at density 0, one knot per path point,
    from the start's rows after the first; the solved stretches and PK2
    stresses, as bytes."""
    _, lams, _ = matpoint.program_path(prog)
    prepared = calibrate._Program("uniaxial", [lams[1:, 0]], [0.0], None)
    assert np.array_equal(prepared.lams, lams[1:])
    prepared.start = None if start is None else start[1:]
    stretches, S = calibrate._solve_program(prepared, params)
    return stretches.tobytes() + S.tobytes()


# the two entry points of a frozen path's solve from a start
START_ENTRIES = pytest.mark.parametrize(
    "solve", [solved_path, solved_prepared],
    ids=["solve_frozen_path", "calibrate_solve_program"])


class TestStart:
    # dispersed fibers load the lateral axes, so the free stretches depend on
    # the collagen constants and a start from other constants is off the root
    @staticmethod
    def free_stretches(records):
        return np.array([np.diag(r.F)[1:] for r in records])

    def test_start_at_the_root_converges_at_once(self, monkeypatch):
        params = make_material(kappa=0.15)
        prog = uniaxial(1.15, steps=6)
        cold = solve_mixed_point(prog, params, init=GrowthState(rho=38.71))
        calls = count_responses(monkeypatch)
        warm = solved_path(prog, params, start=self.free_stretches(cold),
                           rho=38.71)
        assert calls == [(7,)]
        assert warm == solved_path(prog, params, rho=38.71)

    def test_start_off_the_root_meets_the_tolerance(self):
        params = make_material(kappa=0.15)
        other = make_material(kappa=0.05)
        prog = uniaxial(1.15, steps=6)
        start = self.free_stretches(solve_mixed_point(prog, other))
        _, lams, free = matpoint.program_path(prog)
        sigma = matpoint.solve_frozen_path(lams, free, params, 0.0, start)[2]
        assert np.max(np.abs(sigma[:, 1:3])) <= matpoint.STRESS_TOL

    @START_ENTRIES
    @pytest.mark.parametrize("value", [1e-3, 10.0])
    def test_unconverged_start_falls_back_to_the_cold_solve(
            self, material_params, monkeypatch, value, solve):
        # the start's batch stalls; the incompressible guess then gives the
        # cold solve's records, bit for bit
        prog = uniaxial(1.15, steps=6)
        cold = solve(prog, material_params)
        calls = count_responses(monkeypatch)
        warm = solve(prog, material_params, start=np.full((7, 2), value))
        assert len(calls) > matpoint.NEWTON_MAXIT
        assert warm == cold

    @START_ENTRIES
    def test_unconverged_start_keeps_the_cold_failure(self, material_params,
                                                       monkeypatch, solve):
        # where the cold solve fails, a start changes nothing about the error
        monkeypatch.setattr(matpoint, "NEWTON_MAXIT", 1)
        prog = uniaxial(1.15, steps=6)
        with pytest.raises(SolverError) as cold:
            solve(prog, material_params)
        with pytest.raises(SolverError) as warm:
            solve(prog, material_params, start=np.full((7, 2), 10.0))
        assert str(warm.value) == str(cold.value)
        assert warm.value.diagnostics == cold.value.diagnostics

    @START_ENTRIES
    @pytest.mark.filterwarnings("error")
    def test_overflowing_start_falls_back_to_the_cold_solve(self, material_params,
                                                            solve):
        # free stretches of 1e10 overflow the textile law: the start's batch
        # fails with a typed error, not a warning, and the cold solve answers
        prog = uniaxial(1.2, steps=3)
        with deadline(30):
            cold = solve(prog, material_params)
            warm = solve(prog, material_params, start=np.full((4, 2), 1e10))
        assert warm == cold

    def test_probe_changes_no_iterate(self, monkeypatch):
        # a start off its root, checked by its stress alone first: the points
        # it leaves off the root take their tangent at the same stretches and
        # the Newton goes on as without the check, with as many tangents
        params = make_material(kappa=0.15)
        other = solve_mixed_point(uniaxial(1.15, steps=6), make_material(kappa=0.05))
        lams = np.array([np.diag(r.F) for r in other])
        response = matpoint.total_response
        runs = {}
        for probe in (False, True):
            calls = runs[probe] = []

            def counted(F, *args, tangent=True, **kwargs):
                calls.append(tangent)
                return response(F, *args, tangent=tangent, **kwargs)

            monkeypatch.setattr(matpoint, "total_response", counted)
            runs[probe, "out"] = matpoint._newton_free_axes(
                lams, [1, 2], params, 38.71, 0.0, 0.0, probe=probe)
        for plain, probed in zip(runs[False, "out"], runs[True, "out"]):
            assert np.array_equal(plain, probed)
        assert runs[True] == [False] + runs[False]


class TestRecordedEnergy:
    def test_records_reuse_the_converged_psi_m(self, material_params, monkeypatch):
        # psi_m comes with the converged evaluation: one collagen energy
        # evaluation per response, none extra per record
        psim_calls = []
        psim = materials.collagen_psim_batch

        def counted_psim(*args):
            psim_calls.append(args)
            return psim(*args)

        monkeypatch.setattr(materials, "collagen_psim_batch", counted_psim)
        calls = count_responses(monkeypatch)
        prog = LoadProgram(times=[0, 1], controls=(np.array([1.0, 1.15]), FREE, FREE),
                           steps_per_interval=10, grow=False)
        recs = solve_mixed_point(prog, material_params)
        assert len(psim_calls) == len(calls)
        assert sum(n for n, in calls) > len(recs)
        monkeypatch.undo()
        for r in recs:
            expect = collagen_on_C(r.F.T @ r.F, material_params.collagen,
                                   r.rho)["psi_m"]
            assert r.psi_m == pytest.approx(expect, rel=1e-14, abs=0.0)
        assert recs[-1].psi_m > 0.0


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
            s_co = collagen_on_C(C, co, r.rho)["S"][0]
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
        # dt = inf, or a dt over twice t_end, gives no step at all; a tiny
        # dt more steps than the bound (the arrays are allocated whole)
        over = matpoint.MAX_STEPS + 1.0
        for t_end, dt in [(-1.0, 0.1), (1.0, 0.0), (np.nan, 0.1), (np.inf, 0.1),
                          (1.0, np.nan), (1.0, np.inf), (1.0, 2.5),
                          (28.0, 1e-300), (28.0, 5e-324), (over, 1.0)]:
            with pytest.raises(ParameterError):
                unloaded_maturation(growth_params, t_end, dt)


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

    def test_rows_read_back_exactly(self, material_params):
        recs = solve_mixed_point(uniaxial(1.1, steps=2, grow=True), material_params)
        rows = records_to_csv(recs).splitlines()[1:]
        assert len(rows) == len(recs)
        for r, row in zip(recs, rows):
            assert [float(v) for v in row.split(",")] == [
                r.time, *np.diag(r.F), *r.S[:3], *r.sigma[:3], r.rho, r.psi_m]
