"""Shared finite-difference oracles, random-state generators and reference
element kernels for tests.

The FD rules mirror the symmetric-tensor convention of the package: a
6-vector direction n perturbs the component pair (i, j) and (j, i) of C
together, so the derivative w.r.t. the packed component picks up the pair
multiplicity w_n.
"""

import numpy as np

from maturesim.tensors import VOIGT_I, VOIGT_J, from_voigt

VOIGT_PAIRS = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
W = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])


def perturb(C, n, h):
    """Return C with the n-th symmetric component pair shifted by h."""
    i, j = VOIGT_PAIRS[n]
    Cp = C.copy()
    Cp[i, j] += h
    if i != j:
        Cp[j, i] += h
    return Cp


def fd_stress(psi_fn, C, h=1e-6):
    """Central-difference S = 2 d psi / d C as a 6-vector."""
    S = np.zeros(6)
    for n in range(6):
        S[n] = (psi_fn(perturb(C, n, h)) - psi_fn(perturb(C, n, -h))) / (2.0 * h)
        S[n] *= 2.0 / W[n]
    return S


def fd_tangent(stress_fn, C, h=1e-5):
    """Central-difference CC = 2 d S / d C as a 6x6 matrix."""
    CC = np.zeros((6, 6))
    for n in range(6):
        dS = (stress_fn(perturb(C, n, h)) - stress_fn(perturb(C, n, -h))) / (2.0 * h)
        CC[:, n] = dS * 2.0 / W[n]
    return CC


def rel_err(A, B, floor=1e-12):
    """Max-norm relative difference with an absolute floor."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return np.max(np.abs(A - B)) / max(np.max(np.abs(B)), floor)


def random_F(rng, spread=0.15, stretch=0.0):
    """Random invertible F near identity, optionally pre-stretched along x."""
    F = np.eye(3) + spread * (rng.random((3, 3)) - 0.5)
    F[0, 0] += stretch
    if np.linalg.det(F) <= 0.1:
        F += 0.5 * np.eye(3)
    return F


def random_C(rng, spread=0.15, stretch=0.0):
    """Random SPD right Cauchy-Green tensor built from a random F."""
    F = random_F(rng, spread, stretch)
    return F.T @ F


def random_rotation(rng):
    """Uniform-ish random rotation from a QR decomposition."""
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


# -- reference element kernels ----------------------------------------------
# Index-notation (einsum) forms of the batched kernels in
# maturesim.fem.elements, kept as the independent statement of what each
# kernel computes.  Leading axes are (element e, gauss point g).

def ref_deformation_gradients(ue, dNdX):
    F = np.einsum("eai,egaj->egij", ue, dNdX)
    return F + np.eye(3)


def ref_b_matrices(F, dNdX):
    t1 = np.einsum("egkm,egam->egmak", F[..., :, VOIGT_I], dNdX[..., VOIGT_J])
    t2 = np.einsum("egkm,egam->egmak", F[..., :, VOIGT_J], dNdX[..., VOIGT_I])
    off = (VOIGT_I != VOIGT_J).astype(float)
    B = t1 + off[None, None, :, None, None] * t2
    return B.reshape(B.shape[:2] + (6, 24))


def ref_internal_forces(B, S6, wdet):
    return np.einsum("eg,egmn,egm->en", wdet, B, S6)


def ref_material_stiffness(B, CC, wdet):
    return np.einsum("eg,egmi,egmj->eij", wdet, B, CC @ B)


def ref_geometric_stiffness(S6, dNdX, wdet):
    kab = np.einsum("eg,egak,egkl,egbl->eab", wdet, dNdX, from_voigt(S6), dNdX)
    K = kab[:, :, None, :, None] * np.eye(3)[None, None, :, None, :]
    return K.reshape(kab.shape[0], 24, 24)


def ref_volume_gradient(F, J, dNdX, wdet):
    spat = np.einsum("egki,egak->egai", np.linalg.inv(F), dNdX)
    G = np.einsum("eg,eg,egai->eai", wdet, J, spat)
    return G.reshape(G.shape[0], 24)
