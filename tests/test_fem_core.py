"""Mesh construction and element kernel tests."""

import numpy as np
import pytest

from maturesim.errors import MeshError
from maturesim.fem import elements as el
from maturesim.fem.mesh import (FACE_CORNERS, Mesh, load_mesh, mesh_from_dict,
                                mesh_to_dict, save_mesh, strip_mesh)

import _oracles as ref


class TestStripMesh:
    def test_counts_and_sets(self):
        m = strip_mesh(20.0, 6.0, 0.3, 20, 6, 2)
        assert m.n_nodes == 21 * 7 * 3
        assert m.n_elems == 20 * 6 * 2
        assert len(m.node_sets["xmin"]) == 7 * 3
        assert len(m.node_sets["zmin"]) == 21 * 7
        assert len(m.face_sets["bottom"]) == 20 * 6
        assert len(m.face_sets["top"]) == 20 * 6

    def test_boundary_coordinates(self):
        m = strip_mesh(20.0, 6.0, 0.3, 4, 3, 2)
        assert np.all(m.nodes[m.node_sets["xmin"], 0] == 0.0)
        assert np.all(m.nodes[m.node_sets["xmax"], 0] == 20.0)
        assert np.all(m.nodes[m.node_sets["zmax"], 2] == pytest.approx(0.3))
        for face in m.face_nodes("bottom"):
            assert np.all(m.nodes[face, 2] == 0.0)

    def test_positive_jacobians(self):
        m = strip_mesh(20.0, 6.0, 0.3, 5, 4, 2)
        _, wdet, V0 = el.reference_gradients(m.nodes[m.hex8])
        assert np.all(wdet > 0.0)
        assert V0.sum() == pytest.approx(20.0 * 6.0 * 0.3, rel=1e-12)

    def test_json_round_trip(self, tmp_path):
        m = strip_mesh(2.0, 1.0, 0.5, 2, 2, 1)
        path = tmp_path / "mesh.json"
        save_mesh(m, path)
        m2 = load_mesh(path)
        assert np.array_equal(m.nodes, m2.nodes)
        assert np.array_equal(m.hex8, m2.hex8)
        for k in m.node_sets:
            assert np.array_equal(m.node_sets[k], m2.node_sets[k])
        for k in m.face_sets:
            assert np.array_equal(m.face_sets[k], m2.face_sets[k])

    def test_validation(self):
        nodes = np.zeros((4, 3))
        with pytest.raises(MeshError):
            Mesh(nodes=nodes, hex8=np.arange(8)[None, :])   # node ids too big
        m = strip_mesh(1, 1, 1, 1, 1, 1)
        with pytest.raises(MeshError):
            Mesh(nodes=m.nodes, hex8=m.hex8, node_sets={"bad": [99]})
        with pytest.raises(MeshError):
            Mesh(nodes=m.nodes, hex8=m.hex8, face_sets={"bad": [[0, 7]]})
        with pytest.raises(MeshError):
            strip_mesh(1, 1, 0, 1, 1, 1)
        with pytest.raises(MeshError):
            mesh_from_dict({"nodes": m.nodes.tolist()})

    def test_repeated_corner_rejected(self):
        m = strip_mesh(3, 1, 1, 3, 1, 1)
        conn = m.hex8.copy()
        conn[1, 6] = conn[1, 2]
        conn[2, 0] = conn[2, 7]
        with pytest.raises(MeshError, match="element 1 repeats"):
            Mesh(nodes=m.nodes, hex8=conn)

    def test_matches_explicit_numbering(self):
        nx, ny, nz = 3, 2, 2
        m = strip_mesh(3.0, 2.0, 1.0, nx, ny, nz)

        def nid(i, j, k):
            return (i * (ny + 1) + j) * (nz + 1) + k

        conn, bottom, top = [], [], []
        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    e = len(conn)
                    conn.append([nid(i, j, k), nid(i + 1, j, k),
                                 nid(i + 1, j + 1, k), nid(i, j + 1, k),
                                 nid(i, j, k + 1), nid(i + 1, j, k + 1),
                                 nid(i + 1, j + 1, k + 1), nid(i, j + 1, k + 1)])
                    if k == 0:
                        bottom.append((e, 0))
                    if k == nz - 1:
                        top.append((e, 1))
                    assert np.allclose(m.nodes[nid(i, j, k)], [i, j, 0.5 * k])
        assert np.array_equal(m.hex8, conn)
        assert np.array_equal(m.face_sets["bottom"], bottom)
        assert np.array_equal(m.face_sets["top"], top)

    def test_folded_element_rejected(self):
        m = strip_mesh(1, 1, 1, 1, 1, 1)
        conn = m.hex8.copy()
        conn[0, [0, 1]] = conn[0, [1, 0]]
        with pytest.raises(MeshError):
            el.reference_gradients(m.nodes[conn])

    def test_dict_round_trip(self):
        m = strip_mesh(1.0, 1.0, 1.0, 1, 2, 1)
        m2 = mesh_from_dict(mesh_to_dict(m))
        assert np.array_equal(m.hex8, m2.hex8)


class TestShapeFunctions:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(3)
        xi = rng.uniform(-1, 1, size=(20, 3))
        N = el.shape_functions(xi)
        assert np.allclose(N.sum(axis=-1), 1.0, atol=1e-14)
        dN = el.shape_gradients(xi)
        assert np.allclose(dN.sum(axis=-2), 0.0, atol=1e-14)

    def test_kronecker_at_corners(self):
        N = el.shape_functions(el.CORNERS)
        assert np.allclose(N, np.eye(8), atol=1e-14)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        xi = rng.uniform(-0.9, 0.9, size=3)
        dN = el.shape_gradients(xi)
        h = 1e-7
        for i in range(3):
            d = np.zeros(3)
            d[i] = h
            fd = (el.shape_functions(xi + d) - el.shape_functions(xi - d)) / (2 * h)
            assert np.allclose(dN[:, i], fd, atol=1e-6)

    def test_affine_gradient_reproduction(self):
        # dN/dX applied to corner coordinates must return the identity map
        rng = np.random.default_rng(5)
        A = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        Xe = (el.CORNERS @ A.T + rng.standard_normal(3))[None]
        dNdX, wdet, V0 = el.reference_gradients(Xe)
        grad = np.einsum("eai,egaj->egij", Xe, dNdX)
        assert np.allclose(grad, np.eye(3), atol=1e-12)
        assert V0[0] == pytest.approx(8.0 * np.linalg.det(A), rel=1e-12)

    def test_quad_partition_of_unity(self):
        assert np.allclose(el.QUAD_N.sum(axis=-1), 1.0, atol=1e-14)
        assert np.allclose(el.QUAD_DN.sum(axis=-2), 0.0, atol=1e-14)


class TestKinematicsAndForces:
    def setup_method(self):
        rng = np.random.default_rng(11)
        m = strip_mesh(1.2, 0.9, 0.6, 2, 2, 1)
        self.mesh = m
        self.Xe = m.nodes[m.hex8]
        self.dNdX, self.wdet, self.V0 = el.reference_gradients(self.Xe)
        self.u = 0.05 * rng.standard_normal((m.n_nodes, 3))
        self.ue = self.u[m.hex8]

    def test_deformation_gradient_fd(self):
        F = el.deformation_gradients(self.ue, self.dNdX)
        assert F.shape == (4, 8, 3, 3)
        # rigid translation adds nothing
        F2 = el.deformation_gradients(self.ue + np.array([1.0, 2.0, 3.0]),
                                      self.dNdX)
        assert np.allclose(F, F2, atol=1e-12)

    def test_b_matrix_is_strain_derivative(self):
        rng = np.random.default_rng(12)
        F = el.deformation_gradients(self.ue, self.dNdX)
        B = el.b_matrices(F, self.dNdX)
        du = rng.standard_normal(self.ue.shape)
        h = 1e-7

        def green_eng(ue):
            Fh = el.deformation_gradients(ue, self.dNdX)
            C = np.einsum("egki,egkj->egij", Fh, Fh)
            E = 0.5 * (C - np.eye(3))
            from maturesim.tensors import to_voigt
            v = to_voigt(E)
            v[..., 3:] *= 2.0
            return v

        fd = (green_eng(self.ue + h * du) - green_eng(self.ue - h * du)) / (2 * h)
        Bdu = np.einsum("egmn,en->egm", B, du.reshape(-1, 24))
        assert np.allclose(Bdu, fd, atol=1e-6)

    def test_internal_force_is_energy_gradient(self):
        # hyperelastic check with the matrix material only
        from conftest import make_material

        params = make_material()
        rng = np.random.default_rng(13)
        du = rng.standard_normal(self.ue.shape)

        def energy(ue):
            F = el.deformation_gradients(ue, self.dNdX)
            C = np.einsum("egki,egkj->egij", F, F)
            from maturesim.materials import response_batch
            out = response_batch(C.reshape(-1, 3, 3), params,
                                 np.zeros(C.shape[0] * C.shape[1]), 0.0, 0.0)
            psi = (out["psi_point"] + out["U_local"]).reshape(C.shape[:2])
            return float((self.wdet * psi).sum())

        F = el.deformation_gradients(self.ue, self.dNdX)
        C = np.einsum("egki,egkj->egij", F, F)
        from maturesim.materials import response_batch

        out = response_batch(C.reshape(-1, 3, 3), params,
                             np.zeros(C.shape[0] * C.shape[1]), 0.0, 0.0)
        S6 = out["S"].reshape(C.shape[:2] + (6,))
        B = el.b_matrices(F, self.dNdX)
        fint = el.internal_forces(B, S6, self.wdet)
        h = 1e-6
        fd = (energy(self.ue + h * du) - energy(self.ue - h * du)) / (2 * h)
        assert np.dot(fint.ravel(), du.reshape(-1, 24).ravel()) == \
            pytest.approx(fd, rel=1e-6)


class TestKernelsMatchReference:
    """Batched kernels against the index-notation forms in _oracles."""

    TOL = 1e-13

    def setup_method(self):
        rng = np.random.default_rng(17)
        m = strip_mesh(3.0, 2.0, 1.0, 3, 2, 2)
        nodes = m.nodes + 0.05 * rng.standard_normal(m.nodes.shape)
        self.dNdX, self.wdet, _ = el.reference_gradients(nodes[m.hex8])
        self.ue = (0.05 * rng.standard_normal(m.nodes.shape))[m.hex8]
        self.F = el.deformation_gradients(self.ue, self.dNdX)
        self.B = el.b_matrices(self.F, self.dNdX)
        grid = self.wdet.shape
        self.S6 = rng.standard_normal(grid + (6,))
        A = rng.standard_normal(grid + (6, 6))
        self.CC = A + A.swapaxes(-1, -2)

    def test_deformation_gradients(self):
        expect = ref.ref_deformation_gradients(self.ue, self.dNdX)
        assert ref.rel_err(self.F, expect) < self.TOL

    def test_b_matrices(self):
        expect = ref.ref_b_matrices(self.F, self.dNdX)
        assert ref.rel_err(self.B, expect) < self.TOL

    def test_internal_forces(self):
        got = el.internal_forces(self.B, self.S6, self.wdet)
        expect = ref.ref_internal_forces(self.B, self.S6, self.wdet)
        assert ref.rel_err(got, expect) < self.TOL

    def test_material_stiffness(self):
        got = el.material_stiffness(self.B, self.CC, self.wdet)
        expect = ref.ref_material_stiffness(self.B, self.CC, self.wdet)
        assert ref.rel_err(got, expect) < self.TOL

    def test_geometric_stiffness(self):
        got = el.geometric_stiffness(self.S6, self.dNdX, self.wdet)
        expect = ref.ref_geometric_stiffness(self.S6, self.dNdX, self.wdet)
        assert ref.rel_err(got, expect) < self.TOL

    def test_volume_gradient(self):
        J = np.linalg.det(self.F)
        got = el.volume_gradient(self.F, J, self.dNdX, self.wdet)
        expect = ref.ref_volume_gradient(self.F, J, self.dNdX, self.wdet)
        assert ref.rel_err(got, expect) < self.TOL


class TestFacePressure:
    def test_flat_square_resultant(self):
        # unit square in the xy-plane, corner order gives the +z normal
        xf = np.array([[[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]])
        f, K = el.face_pressure(xf, 2.0)
        assert np.allclose(f.sum(axis=1), [0.0, 0.0, -2.0], atol=1e-14)
        assert np.allclose(f[0, :, 2], -0.5, atol=1e-14)

    def test_strip_bottom_pushes_up(self):
        m = strip_mesh(2.0, 1.0, 0.3, 2, 1, 1)
        xf = m.nodes[m.face_nodes("bottom")]
        f, _ = el.face_pressure(xf, 0.004)
        # outward normal of the bottom face is -z, pressure resists it
        assert f[:, :, 2].sum() == pytest.approx(0.004 * 2.0 * 1.0, rel=1e-12)
        assert np.allclose(f[:, :, :2], 0.0, atol=1e-15)

    def test_resultant_on_warped_face_matches_projection(self):
        # total follower force equals pressure times the projected areas
        rng = np.random.default_rng(21)
        xf = np.array([[[0.0, 0, 0], [1, 0, 0.2], [1.1, 1, 0], [0, 0.9, -0.1]]])
        f, _ = el.face_pressure(xf, 1.0)
        # divergence-free argument: resultant = -P * (vector area of the quad)
        corners = xf[0]
        area_vec = 0.5 * (np.cross(corners[1] - corners[0], corners[2] - corners[0])
                          + np.cross(corners[2] - corners[0], corners[3] - corners[0]))
        assert np.allclose(f.sum(axis=1)[0], -1.0 * area_vec, atol=1e-12)

    def test_load_stiffness_matches_fd(self):
        rng = np.random.default_rng(22)
        xf = np.array([[[0.0, 0, 0], [1, 0, 0.2], [1.1, 1, 0], [0, 0.9, -0.1]]])
        _, K = el.face_pressure(xf, 1.7)
        h = 1e-7
        for b in range(4):
            for j in range(3):
                d = np.zeros_like(xf)
                d[0, b, j] = h
                fp, _ = el.face_pressure(xf + d, 1.7)
                fm, _ = el.face_pressure(xf - d, 1.7)
                fd = (fp - fm) / (2 * h)
                assert np.allclose(K[0, :, :, b, j], fd[0], atol=1e-6)

    def test_face_corner_orientations(self):
        # every local face table entry must produce an outward normal
        m = strip_mesh(1.0, 1.0, 1.0, 1, 1, 1)
        centers = {0: [0.5, 0.5, 0.0], 1: [0.5, 0.5, 1.0], 2: [0.5, 0.0, 0.5],
                   3: [0.5, 1.0, 0.5], 4: [0.0, 0.5, 0.5], 5: [1.0, 0.5, 0.5]}
        for face_id, corners in enumerate(FACE_CORNERS):
            xf = m.nodes[m.hex8[0, corners]]
            a, b, c, d = xf
            n = np.cross(b - a, d - a)
            outward = np.asarray(centers[face_id]) - np.array([0.5, 0.5, 0.5])
            assert np.dot(n, outward) > 0.0
