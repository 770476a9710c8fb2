"""Newton solver, patch test and maturation marching tests."""

import copy
import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maturesim import config
from maturesim.errors import (DeformationError, MaturesimError, MeshError,
                              ParameterError, SolverError)
from maturesim.fem import (Dirichlet, FemModel, PressureLoad,
                           clamped_strip_model, march_maturation,
                           march_steps, ramp_pressure, strip_mesh)
from maturesim.fem import elements as el
from maturesim.fem import solver
from maturesim.fem.mesh import Mesh
from maturesim.fem.solver import RESIDUAL_TOL
from maturesim.materials import (response_batch, volumetric_modulus,
                                 volumetric_pressure)
from maturesim.matpoint import STRESS_TOL, LoadProgram, solve_mixed_point

from conftest import deadline, make_material

import _oracles as ref
from _oracles import rel_err


def _all_boundary(mesh):
    ids = np.concatenate([mesh.node_sets[k] for k in
                          ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")])
    return np.unique(ids)


class TestStaticSolves:
    def test_rigid_translation_is_stress_free(self):
        params = make_material()
        mesh = strip_mesh(2.0, 1.0, 0.5, 2, 2, 1)
        shift = np.array([0.017, -0.008, 0.031])
        model = FemModel(mesh, params,
                         dirichlet=[Dirichlet("xmin", value=shift),
                                    Dirichlet("xmax", value=shift)])
        u, aux, _ = model.solve_step(np.zeros(model.n_dof), t=0.0, dt=0.0)
        assert np.allclose(u.reshape(-1, 3), shift, atol=1e-10)
        assert np.abs(aux["S"]).max() < 1e-10
        assert np.abs(aux["residual"]).max() < 1e-8

    def test_patch_test_affine_field(self):
        # distorted interior mesh must reproduce a homogeneous state exactly
        params = make_material()
        mesh = strip_mesh(2.0, 2.0, 2.0, 2, 2, 2)
        nodes = mesh.nodes.copy()
        interior = np.flatnonzero(
            np.all((nodes > 1e-9) & (nodes < 2.0 - 1e-9), axis=1))
        assert len(interior) == 1
        rng = np.random.default_rng(31)
        nodes[interior] += rng.uniform(-0.25, 0.25, size=(len(interior), 3))
        mesh = Mesh(nodes=nodes, hex8=mesh.hex8, node_sets=mesh.node_sets,
                    face_sets=mesh.face_sets)
        bnd = _all_boundary(mesh)
        mesh.node_sets["boundary"] = bnd

        A = np.array([[0.04, 0.015, 0.0],
                      [0.01, -0.02, 0.005],
                      [0.0, 0.008, 0.03]])
        model = FemModel(mesh, params,
                         dirichlet=[Dirichlet("boundary",
                                              value=lambda X: X @ A.T)])
        u, aux, _ = model.solve_step(np.zeros(model.n_dof), t=0.0, dt=0.0,
                                     tol=1e-10)
        u_exact = mesh.nodes @ A.T
        assert np.abs(u.reshape(-1, 3) - u_exact).max() < 1e-8
        # every Gauss point carries the same stress
        S = aux["S"].reshape(-1, 6)
        assert np.abs(S - S[0]).max() < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(shift=st.lists(st.floats(-0.6, 0.6), min_size=12, max_size=12),
           grad=st.lists(st.floats(-0.01, 0.01), min_size=9, max_size=9))
    def test_patch_test_on_random_meshes(self, shift, grad):
        # the four interior nodes of a 3x3x2 strip of unit cubes moved at
        # random, an affine field prescribed on every boundary node: a
        # folded element is refused as a MeshError when the model is built,
        # and on a non-degenerate mesh, every Gauss-point Jacobian at least
        # 5 % of the undistorted cube's 1/8, the solve from zero reproduces
        # the field with one stress at every Gauss point.  (Newton from
        # zero can invert an element whose Jacobian is below about 1 %.)
        mesh = strip_mesh(3.0, 3.0, 2.0, 3, 3, 2)
        nodes = mesh.nodes.copy()
        bnd = _all_boundary(mesh)
        interior = np.setdiff1d(np.arange(mesh.n_nodes), bnd)
        assert len(interior) == 4
        nodes[interior] += np.reshape(shift, (4, 3))
        mesh = Mesh(nodes=nodes, hex8=mesh.hex8,
                    node_sets={**mesh.node_sets, "boundary": bnd},
                    face_sets=mesh.face_sets)
        A = np.reshape(grad, (3, 3))
        with deadline(10):
            try:
                model = FemModel(mesh, make_material(), dirichlet=[
                    Dirichlet("boundary", value=lambda X: X @ A.T)])
            except MeshError:
                return
            assume(model.wdet.min() >= 0.05 / 8.0)
            u, aux, _ = model.solve_step(np.zeros(model.n_dof), t=0.0, dt=0.0,
                                         tol=1e-10)
        assert np.abs(u.reshape(-1, 3) - nodes @ A.T).max() < 1e-8
        S = aux["S"].reshape(-1, 6)
        assert np.abs(S - S[0]).max() < 1e-8

    def test_element_density_is_the_volume_mean(self):
        # on a distorted mesh of the 2 mm cube: a uniform field keeps its
        # value, and any field's element means lie within their Gauss values
        # and integrate to the field's integral
        mesh = strip_mesh(2.0, 2.0, 2.0, 2, 2, 2)
        rng = np.random.default_rng(32)
        nodes = mesh.nodes.copy()
        interior = np.all((nodes > 1e-9) & (nodes < 2.0 - 1e-9), axis=1)
        nodes[interior] += rng.uniform(-0.25, 0.25, size=(interior.sum(), 3))
        model = FemModel(Mesh(nodes=nodes, hex8=mesh.hex8,
                              node_sets=mesh.node_sets,
                              face_sets=mesh.face_sets), make_material())
        assert model.V0.sum() == pytest.approx(8.0, rel=1e-12)
        uniform = model.element_density(np.full(model.rho.shape, 3.7))
        assert np.allclose(uniform, 3.7, rtol=1e-14, atol=0.0)
        rho = rng.uniform(0.0, 20.0, model.rho.shape)
        dens = model.element_density(rho)
        assert np.all((rho.min(axis=1) <= dens) & (dens <= rho.max(axis=1)))
        assert (model.V0 * dens).sum() == pytest.approx(
            (model.wdet * rho).sum(), rel=1e-14)

    @staticmethod
    def _brick_and_point(stretch, t_end, kappa=0.0):
        """One brick with free lateral faces and the material-point solver,
        each stretched uniaxially to `stretch` in one growth step of t_end
        days: two solves, returning the brick's converged aux and the
        point's last record."""
        params = make_material(kappa=kappa)
        mesh = strip_mesh(1.0, 1.0, 1.0, 1, 1, 1)
        model = FemModel(mesh, params, dirichlet=[
            Dirichlet("xmin", dofs=(0,)),
            Dirichlet("xmax", dofs=(0,), value=np.array([stretch - 1.0, 0, 0])),
            Dirichlet("ymin", dofs=(1,)),
            Dirichlet("zmin", dofs=(2,)),
        ])
        program = LoadProgram(times=[0.0, t_end],
                              controls=([1.0, stretch], "free", "free"),
                              steps_per_interval=1)
        return (lambda: model.solve_step(np.zeros(model.n_dof), t=t_end,
                                         dt=t_end, tol=1e-12)[1],
                lambda: solve_mixed_point(program, params)[-1])

    def test_single_element_matches_material_point(self):
        # uniaxial stretch with free lateral faces against the 0-d solver
        stretch = 1.12
        brick, point = self._brick_and_point(stretch, 0.2)
        aux, rec = brick(), point()
        F = aux["F"].reshape(-1, 3, 3)
        assert np.abs(F - F[0]).max() < 1e-10          # homogeneous state
        assert F[0, 0, 0] == pytest.approx(stretch, abs=1e-12)
        assert F[0, 1, 1] == pytest.approx(rec.F[1, 1], abs=1e-10)
        assert F[0, 2, 2] == pytest.approx(rec.F[2, 2], abs=1e-10)
        S = aux["S"].reshape(-1, 6)
        assert np.abs(S - rec.S).max() < 1e-10
        assert np.abs(aux["rho"] - rec.rho).max() < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(stretch=st.floats(0.85, 1.35), t_end=st.floats(0.05, 2.0),
           kappa=st.floats(0.0, 1.0 / 3.0))
    def test_single_element_and_material_point_agree(self, stretch, t_end,
                                                     kappa):
        # drawn programs: both paths converge, to the same density, or both
        # fail typed.  Each meets its own stopping rule on the free axes:
        # the brick its 1e-12 N residual, the point STRESS_TOL on sigma.
        # That rule leaves the point's F and S up to about 1e-10 off the
        # brick's, so their 1e-10 agreement is checked at 1.12 above
        outcomes = []
        for solve in self._brick_and_point(stretch, t_end, kappa):
            try:
                with deadline(10):
                    outcomes.append(solve())
            except MaturesimError as exc:
                outcomes.append(exc)
        failed = [isinstance(out, MaturesimError) for out in outcomes]
        assert failed[0] == failed[1], outcomes
        if failed[0]:
            return
        aux, rec = outcomes
        F = aux["F"].reshape(-1, 3, 3)
        S = aux["S"].reshape(-1, 6)
        assert np.abs(F - F[0]).max() < 1e-10          # homogeneous state
        assert F[0, 0, 0] == pytest.approx(stretch, abs=1e-12)
        assert np.abs(S[:, 1:3]).max() < 1e-10
        assert np.abs(rec.sigma[1:3]).max() <= STRESS_TOL
        assert np.abs(aux["rho"] - rec.rho).max() < 1e-12

    def test_unknown_sets_rejected(self):
        params = make_material()
        mesh = strip_mesh(1, 1, 1, 1, 1, 1)
        with pytest.raises(MeshError):
            FemModel(mesh, params, dirichlet=[Dirichlet("nope")])
        with pytest.raises(MeshError):
            FemModel(mesh, params, loads=[PressureLoad("nope", 1.0)])


class TestGlobalTangent:
    def _model(self, follower=True):
        params = make_material(kappa=0.1, psi_crit=2e-5)
        mesh = strip_mesh(2.0, 1.5, 1.0, 2, 2, 2)
        model = FemModel(mesh, params,
                         dirichlet=[Dirichlet("xmin"), Dirichlet("xmax")],
                         loads=[PressureLoad("bottom", 0.003,
                                             follower=follower)])
        rng = np.random.default_rng(41)
        model.rho = rng.uniform(0.5, 4.0, size=model.rho.shape)
        u = np.zeros(model.n_dof)
        u[model.free_idx] = 0.02 * rng.standard_normal(len(model.free_idx))
        u[model.fixed] = model.fixed_values[model.fixed]
        return model, u

    def test_tangent_matches_fd_with_growth_and_follower_load(self):
        model, u = self._model(follower=True)
        t, dt = 0.5, 0.1
        _, K, _ = model.assemble(u, t, dt)
        K = K.toarray()
        h = 1e-6
        fd = np.empty_like(K)
        for col, dof in enumerate(model.free_idx):
            up, um = u.copy(), u.copy()
            up[dof] += h
            um[dof] -= h
            Rp, _, _ = model.assemble(up, t, dt)
            Rm, _, _ = model.assemble(um, t, dt)
            fd[:, col] = (Rp - Rm)[model.free_idx] / (2 * h)
        assert rel_err(fd, K) < 1e-5

    def test_tangent_symmetric_without_follower_load(self):
        model, u = self._model(follower=False)
        _, K, _ = model.assemble(u, 0.5, 0.1)
        K = K.toarray()
        assert np.abs(K - K.T).max() < 1e-8 * np.abs(K).max()

    def test_reassembly_is_deterministic(self):
        model, u = self._model()
        R1, K1, _ = model.assemble(u, 0.5, 0.1)
        R2, K2, _ = model.assemble(u, 0.5, 0.1)
        assert np.array_equal(R1, R2)
        assert np.array_equal(K1.toarray(), K2.toarray())


def _dense_tangent(model, u, t, dt):
    """Reduced tangent scattered densely with np.add.at, block by block.

    Element blocks come from the reference kernels in _oracles; follower
    loads add their negated load stiffness, dead loads add nothing.
    """
    ue = u.reshape(-1, 3)[model.conn]
    F = ref.ref_deformation_gradients(ue, model.dNdX)
    J = np.linalg.det(F)
    Jbar = el.mean_dilatation(J, model.wdet, model.V0)
    mat = model.params.matrix
    resp = response_batch(F, np.linalg.inv(F), J, model.params, model.rho, t, dt,
                          pbar=volumetric_pressure(Jbar, mat)[:, None])
    S6 = resp["S"]
    CC = resp["CC"]
    B = ref.ref_b_matrices(F, model.dNdX)
    G = ref.ref_volume_gradient(F, J, model.dNdX, model.wdet)
    Ke = ref.ref_material_stiffness(B, CC, model.wdet) \
        + ref.ref_geometric_stiffness(S6, model.dNdX, model.wdet) \
        + (volumetric_modulus(Jbar, mat) / model.V0)[:, None, None] \
        * G[:, :, None] * G[:, None, :]

    K = np.zeros((model.n_dof, model.n_dof))
    dm = model.dofmap
    np.add.at(K, (dm[:, :, None], dm[:, None, :]), Ke)
    for load, fnodes, fdofs in model.loads:
        if not load.follower:
            continue
        xf = model.mesh.nodes[fnodes] + u.reshape(-1, 3)[fnodes]
        _, Kl = el.face_pressure(xf, load.pressure)
        np.add.at(K, (fdofs[:, :, None], fdofs[:, None, :]),
                  -Kl.reshape(-1, 12, 12))
    return K[np.ix_(model.free_idx, model.free_idx)]


class TestInvertedElements:
    @pytest.mark.parametrize("scale", [-2.0, -1.0])
    def test_assemble_rejects_nonpositive_jacobian(self, scale):
        # u = -2X mirrors every element (det F = -1), u = -X flattens it to
        # a point (det F = 0, no divide-by-zero warning on the way)
        model = clamped_strip_model(make_material(), nx=2, ny=1, nz=1)
        u = scale * model.mesh.nodes.reshape(-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeformationError):
                model.assemble(u, 0.0, 0.0)

    @pytest.mark.parametrize("tangent", [True, False])
    def test_assemble_rejects_fiber_strain_past_the_limit(self, tangent):
        # u = 3 X along the fibers gives F = diag(4, 1, 1) and E = 15: the
        # collagen law raises before its exponential can overflow
        model = clamped_strip_model(make_material(), nx=2, ny=1, nz=1)
        u = np.zeros((model.mesh.n_nodes, 3))
        u[:, 0] = 3.0 * model.mesh.nodes[:, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeformationError, match="fiber strain"):
                model.assemble(u.reshape(-1), 0.0, 0.0, tangent=tangent)


def _recording_assemble(monkeypatch):
    """Patch FemModel.assemble to keep each DeformationError it raises."""
    raised = []
    assemble = FemModel.assemble

    def recording(self, *args, **kwargs):
        try:
            return assemble(self, *args, **kwargs)
        except DeformationError as err:
            raised.append(err)
            raise

    monkeypatch.setattr(FemModel, "assemble", recording)
    return raised


class TestInfeasibleStart:
    def test_ramp_raises_the_error_of_its_zero_start(self, monkeypatch):
        # the xmax face is prescribed 5 mm back along x, past the interior
        # nodes that the zero start leaves at rest: the last element inverts
        mesh = strip_mesh(2.0, 1.0, 0.5, 2, 1, 1)
        model = FemModel(mesh, make_material(),
                         dirichlet=[Dirichlet("xmin"),
                                    Dirichlet("xmax", dofs=(0,), value=-5.0)])
        raised = _recording_assemble(monkeypatch)
        with pytest.raises(DeformationError) as info:
            ramp_pressure(model)
        assert len(raised) == 1 and raised[0] is info.value

    def test_solve_step_raises_the_last_candidates_error(self, monkeypatch):
        # the guess collapses the strip to a point, u stretches the fibers
        # past the collagen law's range: both fail to assemble, and the
        # error raised is u's, the last one tried
        model = FemModel(strip_mesh(2.0, 1.0, 0.5, 2, 1, 1), make_material())
        X = model.mesh.nodes
        guess = -X.reshape(-1)
        u = np.zeros_like(X)
        u[:, 0] = 3.0 * X[:, 0]
        raised = _recording_assemble(monkeypatch)
        with pytest.raises(DeformationError, match="fiber strain") as info:
            model.solve_step(u.reshape(-1), 0.0, 0.0, guess=guess)
        assert len(raised) == 2 and raised[-1] is info.value
        assert "fiber strain" not in str(raised[0])


class TestSparsityPattern:
    """The pattern and scatter map built at construction against np.add.at."""

    def _check(self, model, seed):
        rng = np.random.default_rng(seed)
        model.rho = rng.uniform(0.5, 4.0, size=model.rho.shape)
        u = np.zeros(model.n_dof)
        u[model.free_idx] = 0.02 * rng.standard_normal(len(model.free_idx))
        u[model.fixed] = model.fixed_values[model.fixed]
        _, K, _ = model.assemble(u, 0.5, 0.1)
        dense = _dense_tangent(model, u, 0.5, 0.1)
        assert K.format == "csc" and K.has_canonical_format
        assert rel_err(K.toarray(), dense) < 1e-14
        # the stored entries are exactly the coupled free-dof pairs
        coupled = np.zeros((model.n_dof, model.n_dof), dtype=bool)
        dm = model.dofmap
        coupled[dm[:, :, None], dm[:, None, :]] = True
        for load, _, fdofs in model.loads:
            if load.follower:
                coupled[fdofs[:, :, None], fdofs[:, None, :]] = True
        assert K.nnz == coupled[np.ix_(model.free_idx, model.free_idx)].sum()

    def test_partial_dirichlet_with_follower_and_dead_loads(self):
        params = make_material(kappa=0.1, psi_crit=2e-5)
        mesh = strip_mesh(2.0, 1.5, 1.0, 3, 2, 2)
        model = FemModel(mesh, params,
                         dirichlet=[Dirichlet("xmin", dofs=(0, 2)),
                                    Dirichlet("xmax")],
                         loads=[PressureLoad("bottom", 0.003),
                                PressureLoad("top", 0.001, follower=False)])
        self._check(model, seed=43)

    def test_no_loads(self):
        params = make_material(kappa=0.1, psi_crit=2e-5)
        mesh = strip_mesh(2.0, 1.5, 1.0, 3, 2, 2)
        model = FemModel(mesh, params,
                         dirichlet=[Dirichlet("xmin"), Dirichlet("xmax")])
        self._check(model, seed=44)


class TestResidualOnly:
    @pytest.mark.parametrize("t, dt", [(0.0, 0.0), (0.5, 0.1)])
    def test_same_bits_as_full_assembly(self, t, dt):
        # a follower and a dead load, a partial Dirichlet condition, growth
        # frozen and active: the residual-only assembly skips K and nothing
        # that R or aux depend on
        params = make_material(kappa=0.1, psi_crit=2e-5)
        model = FemModel(strip_mesh(2.0, 1.5, 1.0, 3, 2, 2), params,
                         dirichlet=[Dirichlet("xmin", dofs=(0, 2)),
                                    Dirichlet("xmax")],
                         loads=[PressureLoad("bottom", 0.003 * 0.7),
                                PressureLoad("top", 0.001 * 0.7, follower=False)])
        rng = np.random.default_rng(45)
        model.rho = rng.uniform(0.5, 4.0, size=model.rho.shape)
        u = np.zeros(model.n_dof)
        u[model.free_idx] = 0.02 * rng.standard_normal(len(model.free_idx))
        u[model.fixed] = model.fixed_values[model.fixed]
        R, K, aux = model.assemble(u, t, dt)
        R2, K2, aux2 = model.assemble(u, t, dt, tangent=False)
        assert K is not None and K2 is None
        assert np.array_equal(R, R2)
        assert aux.keys() == aux2.keys()
        for key in aux:
            assert np.array_equal(aux[key], aux2[key]), key
        assert np.any(aux["rho"] != model.rho) == (dt > 0.0)

    def test_builds_no_b_matrices(self, monkeypatch):
        # the residual comes from P = F S and the weighted reference
        # gradients; B serves the material stiffness alone
        model = clamped_strip_model(make_material(), nx=3, ny=2, nz=1)
        rng = np.random.default_rng(46)
        u = np.zeros(model.n_dof)
        u[model.free_idx] = 0.01 * rng.standard_normal(len(model.free_idx))
        R, _, _ = model.assemble(u, 0.0, 0.0)

        def no_b(*args, **kwargs):
            raise AssertionError("b_matrices called")

        monkeypatch.setattr(el, "b_matrices", no_b)
        R2, K2, _ = model.assemble(u, 0.0, 0.0, tangent=False)
        assert K2 is None and np.array_equal(R, R2)
        with pytest.raises(AssertionError, match="b_matrices called"):
            model.assemble(u, 0.0, 0.0)


class TestStrainOperator:
    """The strain operator of `b_matrices` belongs to the model."""

    @staticmethod
    def _state(model, seed):
        rng = np.random.default_rng(seed)
        model.rho = rng.uniform(0.5, 4.0, size=model.rho.shape)
        u = np.zeros(model.n_dof)
        u[model.free_idx] = 0.01 * rng.standard_normal(len(model.free_idx))
        return u

    def test_built_once_per_model(self, monkeypatch):
        calls = []
        build = el.strain_operator

        def counted(dNdX):
            calls.append(dNdX.shape)
            return build(dNdX)

        monkeypatch.setattr(el, "strain_operator", counted)
        model = clamped_strip_model(make_material(psi_crit=2e-5), nx=3, ny=2, nz=1)
        assert len(calls) == 1
        u = self._state(model, 47)
        model.assemble(u, 0.5, 0.1)
        model.assemble(u, 0.5, 0.1, tangent=False)
        model.assemble(u, 0.5, 0.1)
        assert len(calls) == 1

    def test_deep_copy_assembles_the_same_bits(self):
        model = clamped_strip_model(make_material(psi_crit=2e-5), nx=3, ny=2, nz=1)
        u = self._state(model, 48)
        twin = copy.deepcopy(model)
        R, K, _ = model.assemble(u, 0.5, 0.1)
        R2, K2, _ = twin.assemble(u, 0.5, 0.1)
        assert np.array_equal(R, R2)
        assert np.array_equal(K.indptr, K2.indptr)
        assert np.array_equal(K.indices, K2.indices)
        assert np.array_equal(K.data, K2.data)

    def test_deep_copy_shares_the_fixed_arrays_and_owns_its_state(self):
        model = clamped_strip_model(make_material(psi_crit=2e-5), nx=3, ny=2, nz=1)
        u = self._state(model, 49)
        rho, hist = model.rho.copy(), model.hist_strain.copy()
        twin = copy.deepcopy(model)
        for name in FemModel.FIXED:
            assert np.shares_memory(getattr(twin, name), getattr(model, name))
            assert not getattr(model, name).flags.writeable
        assert np.shares_memory(twin.strain_op, model.strain_op)
        assert not np.shares_memory(twin.rho, model.rho)
        assert not np.shares_memory(twin.hist_strain, model.hist_strain)
        _, _, aux = twin.assemble(u, 0.5, 0.1)
        twin.commit(aux)
        assert not np.array_equal(twin.rho, rho)
        assert np.array_equal(model.rho, rho)
        assert np.array_equal(model.hist_strain, hist)
        twin.hist_strain[...] = 1.0
        assert np.array_equal(model.hist_strain, hist)


class TestLinearSolveSeam:
    """Every factorization of solve_step and ramp_pressure goes through
    `_solve_reduced`: minimum-degree ordering without pivoting first, then
    scipy's default splu when that raises or gives a non-finite solve."""

    @staticmethod
    def _model():
        # thick plate at a twentieth of the load: plain Newton converges
        return clamped_strip_model(make_material(), nx=6, ny=2, nz=1,
                                   length=8.0, width=3.0, thickness=1.0,
                                   pressure=0.0005 * 0.05)

    @staticmethod
    def _patched_splu(monkeypatch, fail_with, fail_default=False):
        """Make the ordered call (the one with options) fail; the default
        call (no options) fails too when fail_default.  Returns the list of
        option sets splu was called with."""
        real = solver.splu
        calls = []

        class NanLU:
            def solve(self, rhs):
                return np.full_like(rhs, np.nan)

        def splu(K, **options):
            calls.append(options)
            if options or fail_default:
                if fail_with == "raise":
                    raise RuntimeError("Factor is exactly singular")
                return NanLU()
            return real(K)

        monkeypatch.setattr(solver, "splu", splu)
        return calls

    def _step(self, model):
        return model.solve_step(np.zeros(model.n_dof), t=0.0, dt=0.0)

    @pytest.mark.parametrize("fail_with", ["raise", "nan"])
    def test_falls_back_to_default_splu(self, monkeypatch, fail_with):
        u_plain, _, its_plain = self._step(self._model())
        calls = self._patched_splu(monkeypatch, fail_with)
        model = self._model()
        u, aux, its = self._step(model)
        assert its == its_plain > 0
        # each iteration tries the ordered factorization, then the default
        assert calls == [solver.LU_OPTIONS, {}] * its
        assert np.abs(u - u_plain).max() <= 1e-12 * np.abs(u_plain).max()
        assert np.abs(aux["residual"][model.free_idx]).max() < RESIDUAL_TOL

    @pytest.mark.parametrize("fail_with", ["raise", "nan"])
    def test_both_factorizations_failing_is_typed(self, monkeypatch, fail_with):
        self._patched_splu(monkeypatch, fail_with, fail_default=True)
        with pytest.raises(SolverError, match="non-finite") as info:
            self._step(self._model())
        assert info.value.diagnostics["iteration"] == 0
        assert info.value.diagnostics["residual"] > RESIDUAL_TOL

    def test_ramp_and_newton_factor_only_through_the_seam(self, monkeypatch):
        real_splu, real_seam = solver.splu, solver._solve_reduced
        factored, seamed, depth = [], [], [0]

        def splu(K, **options):
            factored.append((options, depth[0]))
            return real_splu(K, **options)

        def seam(K, rhs, **kwargs):
            seamed.append((len(factored), kwargs))
            depth[0] += 1
            try:
                return real_seam(K, rhs, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(solver, "splu", splu)
        monkeypatch.setattr(solver, "_solve_reduced", seam)

        def build():
            return clamped_strip_model(make_material(psi_crit=2e-5), nx=4,
                                       ny=2, nz=1, length=8.0, width=3.0,
                                       thickness=0.4, pressure=0.002)

        model = build()
        u, aux, ramp_its = ramp_pressure(model)
        model.commit(aux)
        _, _, newton_its = model.solve_step(u, t=0.5, dt=0.5)
        # without a kept factor: one ordered factorization per solve, each
        # inside the seam
        assert [n for n, _ in seamed] == list(range(ramp_its + newton_its))
        assert factored == [(solver.LU_OPTIONS, 1)] * (ramp_its + newton_its)
        assert not any(hasattr(v, "solve") for v in vars(model).values())

        # a march refines with a kept factor, refreshed between steps: the
        # refreshes are seam calls without diagnostics, and they factor
        # inside the seam as well, each after freeing the old factor and
        # trimming the heap
        factored.clear()
        seamed.clear()
        trims = []
        monkeypatch.setattr(solver, "_malloc_trim",
                            lambda pad: trims.append(len(factored)))
        march_maturation(build(), t_end=1.0, dt0=0.02, dt_max=0.5)
        refreshes = [n for n, kwargs in seamed if not kwargs]
        assert refreshes and len(refreshes) < len(seamed)
        assert trims == refreshes
        assert factored and all(d == 1 for _, d in factored)

    @staticmethod
    def _nearby_systems(apart=1, dt=0.1):
        """The tangents at the starts of the first growth step and of the
        step `apart` steps of `dt` days later, and the right-hand side of
        that later step's first Newton solve."""
        model = clamped_strip_model(make_material(psi_crit=2e-5), nx=4, ny=2,
                                    nz=1, length=8.0, width=3.0,
                                    thickness=0.4, pressure=0.002)
        u, aux, _ = ramp_pressure(model)
        model.commit(aux)
        K0 = model.assemble(u, dt, dt)[1]
        for step in range(1, apart + 1):
            u, aux, _ = model.solve_step(u, t=step * dt, dt=dt)
            model.commit(aux)
        R, K1, _ = model.assemble(u, (apart + 1) * dt, dt)
        return K0, K1, -R[model.free_idx]

    def test_nearby_factor_refines_without_factoring(self, monkeypatch):
        K0, K1, rhs = self._nearby_systems()
        fresh = solver.splu(K1, **solver.LU_OPTIONS).solve(rhs)
        lu = solver.splu(K0, **solver.LU_OPTIONS)
        calls = self._patched_splu(monkeypatch, "raise")
        x, used, sweeps = solver._solve_reduced(K1, rhs, lu=lu)
        assert calls == [] and used is lu
        assert 0 < sweeps <= solver.REFINE_SWEEPS
        assert np.abs(K1 @ x - rhs).max() <= solver.REFINE_TOL
        # within 1e-10 mm of a fresh solve's increment
        assert np.abs(x - fresh).max() <= 1e-10

    def test_factor_three_steps_old_serves_without_factoring(self, monkeypatch):
        # GMRES preconditioned with the factor searches a space that holds
        # every stationary refinement iterate, so an older factor serves
        K0, K1, rhs = self._nearby_systems(apart=3, dt=0.05)
        fresh = solver.splu(K1, **solver.LU_OPTIONS).solve(rhs)
        lu = solver.splu(K0, **solver.LU_OPTIONS)
        calls = self._patched_splu(monkeypatch, "raise")
        x, used, steps = solver._solve_reduced(K1, rhs, lu=lu)
        assert calls == [] and used is lu
        assert 0 < steps <= solver.REFINE_SWEEPS
        assert np.abs(K1 @ x - rhs).max() <= solver.REFINE_TOL
        assert np.abs(x - fresh).max() <= 1e-10

    @pytest.mark.parametrize("first_nan", [0, 1])
    def test_factor_solving_nan_falls_back_to_one_factorization(
            self, monkeypatch, first_nan):
        # a factor whose first solve (x0) or first Krylov solve returns NaN
        K0, K1, rhs = self._nearby_systems()
        fresh = solver.splu(K1, **solver.LU_OPTIONS).solve(rhs)
        real_lu = solver.splu(K0, **solver.LU_OPTIONS)

        class NanAfter:
            solves = 0

            def solve(self, b):
                self.solves += 1
                if self.solves > first_nan:
                    return np.full_like(b, np.nan)
                return real_lu.solve(b)

        nan_lu = NanAfter()
        real, calls = solver.splu, []

        def splu(K, **options):
            calls.append(options)
            return real(K, **options)

        monkeypatch.setattr(solver, "splu", splu)
        x, used, steps = solver._solve_reduced(K1, rhs, lu=nan_lu)
        assert nan_lu.solves == first_nan + 1
        assert calls == [solver.LU_OPTIONS]
        assert used is not nan_lu and steps is None
        assert np.array_equal(x, fresh)

    def test_useless_factor_falls_back_to_one_factorization(self, monkeypatch):
        # a factor of K + 10 max|K| I barely reduces the residual
        K0, K1, rhs = self._nearby_systems()
        shift = 10.0 * np.abs(K1).max()
        useless = solver.splu((K1 + shift * sp.identity(K1.shape[0])).tocsc())
        fresh = solver.splu(K1, **solver.LU_OPTIONS).solve(rhs)
        real, calls = solver.splu, []

        def splu(K, **options):
            calls.append(options)
            return real(K, **options)

        monkeypatch.setattr(solver, "splu", splu)
        x, used, sweeps = solver._solve_reduced(K1, rhs, lu=useless)
        assert calls == [solver.LU_OPTIONS]
        assert used is not useless and sweeps is None
        assert np.array_equal(x, fresh)


class TestRampAndEnergy:
    def test_external_work_matches_stored_energy(self):
        # hyperelastic ramp: follower-load work equals the stored energy;
        # the plate is thick enough for plain equal-increment stepping
        params = make_material()
        n_inc = 20
        # one model per load increment, loaded with its fraction of the
        # pressure
        models = [clamped_strip_model(params, nx=6, ny=2, nz=1, length=8.0,
                                      width=3.0, thickness=1.0,
                                      pressure=0.0005 * (k / n_inc))
                  for k in range(1, n_inc + 1)]
        u = np.zeros(models[0].n_dof)
        fext_prev = np.zeros(models[0].n_dof)
        work = 0.0
        for model in models:
            u_new, aux, _ = model.solve_step(u, t=0.0, dt=0.0)
            work += 0.5 * np.dot(aux["fext"] + fext_prev, u_new - u)
            u, fext_prev = u_new, aux["fext"]
        # the discrete internal energy whose gradient the assembly returns:
        # the pointwise energies and the element-mean volumetric energy
        F = aux["F"]
        C = F.swapaxes(-1, -2) @ F
        Jbar = el.mean_dilatation(np.linalg.det(F), model.wdet, model.V0)
        psi = ref.ref_energy(C, params, aux["rho"], volumetric=False)
        energy = (float((model.wdet * psi).sum())
                  + float((model.V0 * ref.volumetric_energy(Jbar,
                                                            params.matrix)).sum()))
        assert energy == pytest.approx(work, rel=0.01)
        assert energy > 0.0

    def test_ramp_pressure_reaches_full_load(self, monkeypatch):
        # the ramp is the continuation alone: plain Newton, which fails on
        # this strip, is never tried first
        def no_newton(*args, **kwargs):
            raise AssertionError("ramp_pressure called solve_step")

        monkeypatch.setattr(FemModel, "solve_step", no_newton)
        params = make_material()
        model = clamped_strip_model(params, nx=6, ny=2, nz=1, length=10.0,
                                    width=3.0, thickness=0.5, pressure=0.001)
        u, aux, _ = ramp_pressure(model)
        direct = model.assemble(u, 0.0, 0.0)[0]
        assert np.abs(direct[model.free_idx]).max() < 1e-7
        assert u.reshape(-1, 3)[:, 2].max() > 0.01   # actually deflects up

    def test_load_free_prescribed_stretch_ramps(self):
        # no external force: the damping scale comes from the initial
        # residual of the prescribed displacement
        params = make_material()
        stretch = 1.12
        model = FemModel(strip_mesh(1.0, 1.0, 1.0, 2, 2, 2), params, dirichlet=[
            Dirichlet("xmin", dofs=(0,)),
            Dirichlet("xmax", dofs=(0,), value=np.array([stretch - 1.0, 0, 0])),
            Dirichlet("ymin", dofs=(1,)),
            Dirichlet("zmin", dofs=(2,)),
        ])
        u, aux, its = ramp_pressure(model)
        R = model.assemble(u, 0.0, 0.0)[0]
        assert its > 0
        assert np.abs(R[model.free_idx]).max() < RESIDUAL_TOL
        rec = solve_mixed_point(LoadProgram(times=[0.0, 1.0],
                                            controls=([1.0, stretch], "free", "free"),
                                            grow=False), params)[-1]
        F = aux["F"].reshape(-1, 3, 3)
        assert np.allclose(F[:, 0, 0], stretch, atol=1e-12)
        assert np.allclose(F[:, 1, 1], rec.F[1, 1], atol=1e-6)
        assert np.allclose(F[:, 2, 2], rec.F[2, 2], atol=1e-6)

    # the benchmark strip's ramp end deflection (mm) at the nominal pressure
    # and at its +-0.5 % band edges, as reached without the uphill damping
    # decay (89 iterations each): the decay must not change the branch
    @pytest.mark.parametrize("band, deflection", [
        (-0.005, 5.069636648066085), (0.0, 5.075580499978447),
        (0.005, 5.081496018855572)])
    def test_ramp_branch_and_length(self, band, deflection):
        params = config.parse_config(
            {"material": {"collagen": {"kappa": 0.15}}}).material
        nx, ny, nz = 20, 6, 2
        model = clamped_strip_model(params, nx=nx, ny=ny, nz=nz,
                                    pressure=0.002 * (1.0 + band))
        u, _, its = ramp_pressure(model)
        uz = u.reshape(nx + 1, ny + 1, nz + 1, 3)[..., 2]
        assert np.abs(uz).max() == pytest.approx(deflection, rel=1e-7)
        assert its <= 40
        scale = np.abs(uz).max()
        assert np.abs(uz - uz[::-1]).max() <= 1e-8 * scale
        assert np.abs(uz - uz[:, ::-1]).max() <= 1e-8 * scale

    def test_dead_load_differs_from_follower(self):
        params = make_material()
        m1 = clamped_strip_model(params, nx=6, ny=2, nz=1, length=10.0,
                                 width=3.0, thickness=0.5, pressure=0.002)
        m2 = clamped_strip_model(params, nx=6, ny=2, nz=1, length=10.0,
                                 width=3.0, thickness=0.5, pressure=0.002,
                                 follower=False)
        u1, _, _ = ramp_pressure(m1)
        u2, _, _ = ramp_pressure(m2)
        d1 = np.abs(u1.reshape(-1, 3)[:, 2]).max()
        d2 = np.abs(u2.reshape(-1, 3)[:, 2]).max()
        assert d1 != pytest.approx(d2, rel=1e-6)


class TestPredictor:
    def test_quadratic_in_time_is_reproduced(self):
        # unequal steps, as a geometric march has; the field is a quadratic
        # in t per dof, so the extrapolation is exact up to round-off
        rng = np.random.default_rng(46)
        a, b, c = rng.standard_normal((3, 12))

        def field(t):
            return a + b * t + c * t * t
        times = [0.0, 0.02, 0.045]
        past = [(t, field(t)) for t in times]
        for t in (0.07625, 0.1, 0.5):
            assert rel_err(solver._extrapolate(past, t), field(t)) < 1e-12

    def test_lower_order_with_fewer_states(self):
        u0, u1 = np.array([1.0, -2.0, 0.5]), np.array([1.5, -1.0, 0.0])
        assert np.array_equal(solver._extrapolate([(0.0, u0)], 0.3), u0)
        line = solver._extrapolate([(0.0, u0), (0.2, u1)], 0.5)
        assert np.allclose(line, u0 + 2.5 * (u1 - u0), rtol=0, atol=1e-15)


_SMALL_MARCH = {"t_end": 1.0, "dt0": 0.02, "dt_max": 0.5}


def _small_strip(pressure=0.002, nx=5, **material_kw):
    return clamped_strip_model(make_material(**{"psi_crit": 2e-5, **material_kw}),
                               nx=nx, ny=2, nz=1, length=10.0, width=3.0,
                               thickness=0.4, pressure=pressure)


def _own_march(model):
    return march_steps(model, ramp_pressure(model), **_SMALL_MARCH)


class TestMaturationMarch:
    def test_history_and_monotone_density(self):
        params = make_material(psi_crit=2e-5)
        model = clamped_strip_model(params, nx=5, ny=2, nz=1, length=10.0,
                                    width=3.0, thickness=0.4, pressure=0.002)
        seen = []
        history, u, aux = march_maturation(
            model, t_end=1.0, dt0=0.02, dt_max=0.5,
            on_step=lambda t, u, a, m: seen.append(t))
        times = [r.time for r in history]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1.0, abs=1e-9)
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert seen == times
        rho_means = [r.rho_mean for r in history]
        assert all(b >= a for a, b in zip(rho_means, rho_means[1:]))
        assert rho_means[-1] > 0.0
        assert np.all(model.rho >= 0.0)
        assert np.all(model.hist_strain >= 0.0)
        assert model.element_density(model.rho).shape == (model.mesh.n_elems,)
        assert [r.cutbacks for r in history] == [0] * len(history)
        copy.deepcopy(model)      # no factorization is left on the model

    def test_kept_factor_saves_factorizations_not_accuracy(self, monkeypatch):
        params = make_material(psi_crit=2e-5)

        def march():
            model = clamped_strip_model(params, nx=5, ny=2, nz=1, length=10.0,
                                        width=3.0, thickness=0.4, pressure=0.002)
            return model, march_maturation(model, t_end=1.0, dt0=0.02, dt_max=0.5)

        real, calls = solver.splu, []

        def splu(K, **options):
            calls.append(options)
            return real(K, **options)

        monkeypatch.setattr(solver, "splu", splu)
        model, (history, u, _) = march()
        solves = sum(r.newton_iters for r in history)    # ramp and Newton
        assert 0 < len(calls) < solves
        copy.deepcopy(model)      # the kept factor stayed off the model

        # a march that never keeps a factor solves every system afresh
        monkeypatch.setattr(solver._KeptFactor, "refresh",
                            solver._KeptFactor.start_step)
        calls.clear()
        _, (plain, u_plain, _) = march()
        assert len(calls) == solves
        assert [r.time for r in history] == [r.time for r in plain]
        assert [r.newton_iters for r in history] == [r.newton_iters for r in plain]
        for r, q in zip(history, plain):
            for field in ("deflection", "rho_mean", "rho_max"):
                assert getattr(r, field) == pytest.approx(getattr(q, field),
                                                          rel=1e-9, abs=1e-300)
        assert np.abs(u - u_plain).max() <= 1e-9 * np.abs(u_plain).max()

    def test_failed_refresh_leaves_no_factor(self, monkeypatch):
        # a refresh whose factorization fails costs the march nothing but
        # the kept factor: the next step factors afresh, as without one
        params = make_material(psi_crit=2e-5)
        real = solver._solve_reduced
        kept = []

        def seam(K, rhs, lu=None, **diagnostics):
            if not diagnostics:
                raise SolverError("forced")
            kept.append(lu)
            return real(K, rhs, lu=lu, **diagnostics)

        monkeypatch.setattr(solver, "_solve_reduced", seam)
        model = clamped_strip_model(params, nx=4, ny=2, nz=1, length=8.0,
                                    width=3.0, thickness=0.4, pressure=0.002)
        history, _, _ = march_maturation(model, t_end=0.1, dt0=0.02, dt_max=0.05)
        assert history[-1].time == pytest.approx(0.1, abs=1e-9)
        assert kept and all(lu is None for lu in kept)

    def test_guess_that_fails_to_assemble_falls_back(self, monkeypatch):
        # a predictor that collapses the strip to a point: the first
        # assembly at every guess raises DeformationError, which the march
        # does not catch, so each step must restart from the converged u
        # without a cutback and reach the same step times as a plain march
        params = make_material(psi_crit=2e-5)

        def march(model):
            return march_maturation(model, t_end=1.0, dt0=0.02, dt_max=0.5)

        def build():
            return clamped_strip_model(params, nx=5, ny=2, nz=1, length=10.0,
                                       width=3.0, thickness=0.4, pressure=0.002)

        plain, _, _ = march(build())
        model = build()
        collapsed = -model.mesh.nodes.reshape(-1)
        monkeypatch.setattr(solver, "_extrapolate", lambda past, t: collapsed)
        rejected = []
        assemble = FemModel.assemble

        def counting(self, u, *args, **kwargs):
            try:
                return assemble(self, u, *args, **kwargs)
            except DeformationError:
                rejected.append(np.array_equal(u[model.free_idx],
                                               collapsed[model.free_idx]))
                raise

        monkeypatch.setattr(FemModel, "assemble", counting)
        forced, _, _ = march(model)
        assert [r.time for r in forced] == [r.time for r in plain]
        assert [r.cutbacks for r in forced] == [0] * len(forced)
        assert rejected == [True] * (len(forced) - 1)

    def test_cutback_is_recorded(self, monkeypatch):
        # the first attempt at the first growth step fails: it is retried at
        # half the size, and its record counts the one halving
        params = make_material(psi_crit=2e-5)
        model = clamped_strip_model(params, nx=4, ny=2, nz=1, length=8.0,
                                    width=3.0, thickness=0.4, pressure=0.002)
        solve_step = FemModel.solve_step
        calls = []

        def fail_once(self, *args, **kwargs):
            calls.append(kwargs["dt"])
            if len(calls) == 1:
                raise SolverError("forced")
            return solve_step(self, *args, **kwargs)

        monkeypatch.setattr(FemModel, "solve_step", fail_once)
        history, _, _ = march_maturation(model, t_end=0.1, dt0=0.02, dt_max=0.05)
        assert calls[:2] == [0.02, 0.01]
        assert history[1].time == 0.01
        assert [r.cutbacks for r in history] == [0, 1] + [0] * (len(history) - 2)

    def test_collapsed_step_keeps_its_cause(self, monkeypatch):
        # every attempt fails: the step is halved until it collapses, and
        # the error says where, at what size and after how many halvings,
        # caused by the last attempt's error
        model = clamped_strip_model(make_material(psi_crit=2e-5), nx=4, ny=2,
                                    nz=1, length=8.0, width=3.0,
                                    thickness=0.4, pressure=0.002)
        errors = []

        def fail(self, *args, **kwargs):
            errors.append(SolverError("forced", residual=1.0))
            raise errors[-1]

        monkeypatch.setattr(FemModel, "solve_step", fail)
        with pytest.raises(SolverError, match="collapsed") as info:
            march_maturation(model, t_end=0.1, dt0=0.02, dt_max=0.05)
        assert info.value.__cause__ is errors[-1]
        diag = info.value.diagnostics
        assert diag["time"] == 0.0
        assert diag["cutbacks"] == len(errors)
        assert diag["dt"] == 0.02 * 0.5 ** len(errors)
        assert diag["dt"] < solver.STEP_MIN <= 2.0 * diag["dt"]

    def test_steps_are_the_march(self):
        # march_steps yields what march_maturation collects, and the model
        # is committed to the yielded step at every yield
        history, u, _ = march_maturation(_small_strip(), **_SMALL_MARCH)
        model = _small_strip()
        records = []
        for rec, u_step, aux in _own_march(model):
            assert np.array_equal(model.rho, aux["rho"])
            assert np.all(model.hist_strain >= aux["fiber_strain"])
            records.append(rec)
        assert records == history
        assert np.array_equal(u_step, u)

    def test_steps_consumed_in_two_halves(self):
        # a march paused after its third step, while another march runs
        # to its end, goes on bit for bit as one that never paused
        whole = list(_own_march(_small_strip()))
        steps = _own_march(_small_strip())
        halves = list(itertools.islice(steps, 3))
        march_maturation(_small_strip(), **_SMALL_MARCH)
        halves += list(steps)
        assert [rec for rec, _, _ in halves] == [rec for rec, _, _ in whole]
        for (_, u, aux), (_, u_whole, aux_whole) in zip(halves, whole):
            assert np.array_equal(u, u_whole)
            assert np.array_equal(aux["rho"], aux_whole["rho"])

    def test_committed_state_feeds_next_step(self):
        params = make_material(psi_crit=2e-5)
        model = clamped_strip_model(params, nx=4, ny=2, nz=1, length=8.0,
                                    width=3.0, thickness=0.4, pressure=0.002)
        u, aux, _ = ramp_pressure(model)
        model.commit(aux)
        u1, aux1, _ = model.solve_step(u, t=0.5, dt=0.5)
        model.commit(aux1)
        assert np.all(model.rho == aux1["rho"])
        u2, aux2, _ = model.solve_step(u1, t=1.0, dt=0.5)
        assert np.all(aux2["rho"] >= aux1["rho"] - 1e-15)

    @pytest.mark.parametrize("steps", [
        {"dt0": 0.0}, {"dt0": -0.1}, {"dt0": float("nan")}, {"dt_max": 0.0},
        {"dt_ratio": 0.9}, {"t_end": 0.0}, {"t_end": -1.0},
        {"t_end": float("nan")}, {"t_end": float("inf")}])
    def test_steps_that_cannot_reach_t_end_rejected(self, steps):
        # a zero step never advances the time, a march to t_end <= 0
        # would end after the ramp and one to t_end = inf never ends; under
        # a deadline a regression fails instead of hanging the suite
        model = clamped_strip_model(make_material(), nx=2, ny=1, nz=1)
        with deadline(60), pytest.raises(ParameterError):
            march_maturation(model, **{"t_end": 1.0, **steps})
        # before the start is checked: this one would fail its own check
        with pytest.raises(ParameterError):
            next(march_steps(model, (np.zeros(3), None, 0),
                             **{"t_end": 1.0, **steps}))

    def test_unloaded_march_matches_point_growth(self):
        # no load: every Gauss point follows the homogeneous growth curve
        from maturesim.matpoint import unloaded_maturation

        params = make_material()
        mesh = strip_mesh(1.0, 1.0, 1.0, 1, 1, 1)
        model = FemModel(mesh, params, dirichlet=[Dirichlet("xmin"),
                                                  Dirichlet("xmax")])
        history, _, _ = march_maturation(model, t_end=2.0, dt0=0.25,
                                         dt_max=0.25, dt_ratio=1.0)
        assert history[0].newton_iters == 0     # u = 0 is already the ramp's end
        times, rhos = unloaded_maturation(params.growth, 2.0, 0.25)
        assert history[-1].rho_mean == pytest.approx(rhos[-1], rel=1e-12)
        assert history[-1].deflection == 0.0


class TestMarchStart:
    """`march_steps` starts from a ramp end it is given, checked on its own
    model."""

    @pytest.fixture(scope="class")
    def base_ramp(self):
        return ramp_pressure(_small_strip())

    @pytest.mark.parametrize("variant", [
        {"a1": 1e-3}, {"a2": 1e-6}, {"psi_crit": 4e-5}, {"kappa": 0.15},
        {"rho_th": 5.0}], ids=lambda v: next(iter(v)))
    def test_shared_ramp_end_is_the_own_ramp(self, base_ramp, variant):
        # during the ramp rho = 0, so the growth constants and kappa leave
        # its end alone; the march from the base model's ramp end equals
        # the march that ramps itself, fiber strain maxima included
        own = _small_strip(**variant)
        whole = list(_own_march(own))
        model = _small_strip(**variant)
        shared = list(march_steps(model, base_ramp, **_SMALL_MARCH))
        assert [rec for rec, _, _ in shared] == [rec for rec, _, _ in whole]
        for (_, u, aux), (_, u_own, aux_own) in zip(shared, whole):
            assert np.array_equal(u, u_own)
            assert np.array_equal(aux["rho"], aux_own["rho"])
            assert np.array_equal(aux["fiber_strain"], aux_own["fiber_strain"])
        assert np.array_equal(model.rho, own.rho)
        assert np.array_equal(model.hist_strain, own.hist_strain)

    def test_start_follows_the_marching_model(self, base_ramp):
        # the given aux is not trusted: the first record's state and the
        # committed strain maxima are the marching model's own, and the
        # ramp end itself is left as it was
        u0 = base_ramp[0].copy()
        model = _small_strip(kappa=0.15)
        rec, u, aux = next(march_steps(model, base_ramp, **_SMALL_MARCH))
        assert rec.newton_iters == base_ramp[2]
        assert not np.array_equal(aux["fiber_strain"],
                                  base_ramp[1]["fiber_strain"])
        assert np.array_equal(model.hist_strain, aux["fiber_strain"])
        assert u is not base_ramp[0]
        assert np.array_equal(base_ramp[0], u0)

    @pytest.mark.parametrize("u", [
        lambda u: u[:-3], lambda u: np.append(u, 0.0), lambda u: u.reshape(-1, 3),
        lambda u: ramp_pressure(_small_strip(nx=4))[0]],
        ids=["short", "long", "nodal", "other_mesh"])
    def test_ramp_end_of_another_size_rejected(self, base_ramp, u):
        model = _small_strip()
        with pytest.raises(MeshError, match="ramp end"):
            next(march_steps(model, (u(base_ramp[0]), None, 0), **_SMALL_MARCH))
        assert not model.hist_strain.any()

    def test_ramp_end_at_another_pressure_rejected(self, base_ramp):
        model = _small_strip(pressure=0.0025)
        with pytest.raises(SolverError, match="out of equilibrium") as info:
            next(march_steps(model, base_ramp, **_SMALL_MARCH))
        assert info.value.diagnostics["residual"] > RESIDUAL_TOL
        assert not model.hist_strain.any()

    def test_infeasible_ramp_end_rejected(self, base_ramp):
        # every free node mirrored through the origin: X + u = -X inverts
        # the interior elements
        model = _small_strip()
        u = -2.0 * model.mesh.nodes.ravel()
        with pytest.raises(DeformationError):
            next(march_steps(model, (u, None, 0), **_SMALL_MARCH))
        assert not model.hist_strain.any()
