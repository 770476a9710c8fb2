"""Kinematics and symmetric-tensor convention tests."""

import warnings

import numpy as np
import pytest

from maturesim import tensors as tn
from maturesim.errors import ParameterError

from _oracles import (random_C, random_F, ref_inv_det3, structural_dyad,
                      sym_dot, textile_invariants)


class TestVoigt:
    def test_component_order(self):
        A = np.arange(9, dtype=float).reshape(3, 3)
        A = 0.5 * (A + A.T)
        v = tn.to_voigt(A)
        assert v[0] == A[0, 0] and v[1] == A[1, 1] and v[2] == A[2, 2]
        assert v[3] == A[0, 1] and v[4] == A[0, 2] and v[5] == A[1, 2]

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            C = random_C(rng)
            assert np.array_equal(tn.from_voigt(tn.to_voigt(C)), C)

    def test_sym_dot_is_full_contraction(self):
        rng = np.random.default_rng(1)
        A, B = random_C(rng), random_C(rng)
        assert sym_dot(tn.to_voigt(A), tn.to_voigt(B)) == pytest.approx(
            np.tensordot(A, B), rel=1e-14)

    def test_sym_outer_product_contraction(self):
        # (A . A) : B must equal A B A for symmetric B
        rng = np.random.default_rng(2)
        A, B = random_C(rng), random_C(rng)
        M = tn.sym_outer_product(A, A)
        contracted = M @ (tn.VOIGT_WEIGHTS * tn.to_voigt(B))
        assert np.allclose(contracted, tn.to_voigt(A @ B @ A), rtol=1e-13)


class TestInvDet3:
    """The closed-form 3x3 inverse and determinant against LAPACK."""

    EPS = np.finfo(float).eps

    def _agree(self, A):
        inv, det = tn.inv_det3(A)
        inv_ref, det_ref = ref_inv_det3(A)
        # both are backward stable: the inverses differ by a few eps times
        # the condition number, the determinants by a few eps times the
        # Hadamard bound prod_i |row_i|
        err = np.linalg.norm(inv - inv_ref, axis=(-2, -1)) \
            / np.linalg.norm(inv_ref, axis=(-2, -1))
        assert np.all(err <= 10.0 * self.EPS * np.linalg.cond(A))
        hadamard = np.prod(np.linalg.norm(A, axis=-1), axis=-1)
        assert np.all(np.abs(det - det_ref) <= 10.0 * self.EPS * hadamard)

    def test_random_batches(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((400, 3, 3))
        A[:200] += 3.0 * np.eye(3)
        self._agree(A)
        self._agree(np.array([random_F(rng) for _ in range(50)]))

    @pytest.mark.parametrize("gap", [1e-4, 1e-8, 1e-12])
    def test_near_singular_batches(self, gap):
        rng = np.random.default_rng(37)
        rank2 = rng.standard_normal((200, 3, 2)) @ rng.standard_normal((200, 2, 3))
        self._agree(rank2 + gap * rng.standard_normal((200, 3, 3)))

    def test_leading_axes_and_single_matrix(self):
        rng = np.random.default_rng(39)
        A = np.array([random_F(rng) for _ in range(12)]).reshape(3, 4, 3, 3)
        inv, det = tn.inv_det3(A)
        assert inv.shape == (3, 4, 3, 3) and det.shape == (3, 4)
        inv1, det1 = tn.inv_det3(A[1, 2])
        assert inv1.shape == (3, 3) and np.ndim(det1) == 0
        assert np.array_equal(inv1, inv[1, 2]) and det1 == det[1, 2]

    def test_singular_matrix_warns_nothing(self):
        # det == 0 is the caller's to reject; the kernel itself stays quiet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv, det = tn.inv_det3(np.array([np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3))]))
        assert np.all(det == 0.0)


class TestDirections:
    def test_unit_vector_normalizes(self):
        v = tn.unit_vector([3.0, 0.0, 4.0])
        assert np.allclose(v, [0.6, 0.0, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ParameterError):
            tn.unit_vector([0.0, 0.0, 0.0])


class TestStructuralTensor:
    def test_reference_value(self):
        H = tn.gen_structural_tensor([1.0, 0.0, 0.0], 0.15)
        assert np.allclose(H, np.diag([0.70, 0.15, 0.15]), atol=1e-15)

    def test_trace_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.standard_normal(3)
            kappa = rng.uniform(0.0, 1.0 / 3.0)
            H = tn.gen_structural_tensor(a, kappa)
            assert np.trace(H) == pytest.approx(1.0, abs=1e-14)

    def test_isotropic_limit(self):
        H = tn.gen_structural_tensor([0.2, -0.5, 1.0], 1.0 / 3.0)
        assert np.allclose(H, np.eye(3) / 3.0, atol=1e-15)

    def test_kappa_domain(self):
        for kappa in (-0.01, 0.34):
            with pytest.raises(ParameterError):
                tn.gen_structural_tensor([1.0, 0.0, 0.0], kappa)


class TestTextileInvariants:
    def test_reference_values(self):
        M1 = structural_dyad([1.0, 0.0, 0.0])
        M2 = structural_dyad([0.0, 1.0, 0.0])
        C = np.diag([1.44, 1.21, 1.0])
        i1, i2, i3, i4, i5 = textile_invariants(C, M1, M2)
        assert i1 == pytest.approx(3.65, abs=1e-14)
        assert i2 == pytest.approx(1.44, abs=1e-14)
        assert i3 == pytest.approx(2.0736, abs=1e-12)
        assert i4 == pytest.approx(1.21, abs=1e-14)
        assert i5 == pytest.approx(1.4641, abs=1e-12)

    def test_cauchy_schwarz_bound(self):
        # tr(C^2 M) >= tr(C M)^2 for rank-one M built from a unit vector
        rng = np.random.default_rng(7)
        for _ in range(100):
            C = random_C(rng, spread=0.6)
            M1 = structural_dyad(rng.standard_normal(3))
            M2 = structural_dyad(rng.standard_normal(3))
            _, i2, i3, i4, i5 = textile_invariants(C, M1, M2)
            assert i3 >= i2**2 - 1e-12
            assert i5 >= i4**2 - 1e-12
