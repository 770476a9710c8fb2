"""Batched trilinear brick kernels for the total-Lagrangian solver.

Everything here is stateless and vectorized over (element, gauss point)
leading axes so that the whole mesh is assembled with a handful of array
operations.  The per-assembly kernels are batched `matmul` products over
those axes: a sum over Gauss points is folded into the inner dimension of
one (E, ., G*k) @ (E, G*k, .) product per element batch.  Stress and strain
follow the 6-vector convention of `maturesim.tensors`; element degrees of
freedom are ordered node-major, (node 0 x, node 0 y, node 0 z, node 1 x, ...).
"""

import numpy as np

from ..errors import MeshError
from ..tensors import VOIGT_I, VOIGT_J, from_voigt

# corner coordinates of the parent cube, same order as Mesh.hex8
CORNERS = np.array([
    [-1.0, -1.0, -1.0], [1.0, -1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0],
])
# 2x2x2 Gauss rule: points at the corner pattern scaled by 1/sqrt(3), unit weights
GAUSS_POINTS = CORNERS / np.sqrt(3.0)
GAUSS_WEIGHTS = np.ones(8)

# quad corners of the parent face, matching mesh.FACE_CORNERS slot order
QUAD_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
QUAD_GAUSS = QUAD_CORNERS / np.sqrt(3.0)


def shape_functions(xi):
    """Trilinear shape values N_a(xi) for points xi of shape (..., 3)."""
    xi = np.asarray(xi, dtype=float)
    return 0.125 * np.prod(1.0 + xi[..., None, :] * CORNERS, axis=-1)


def shape_gradients(xi):
    """dN_a/dxi_i at points xi of shape (..., 3); result (..., 8, 3)."""
    xi = np.asarray(xi, dtype=float)
    terms = 1.0 + xi[..., None, :] * CORNERS          # (..., 8, 3)
    grad = np.empty(xi.shape[:-1] + (8, 3))
    for i in range(3):
        others = [j for j in range(3) if j != i]
        grad[..., i] = 0.125 * CORNERS[:, i] * np.prod(terms[..., others], axis=-1)
    return grad


def quad_shape_functions(xi2):
    xi2 = np.asarray(xi2, dtype=float)
    return 0.25 * np.prod(1.0 + xi2[..., None, :] * QUAD_CORNERS, axis=-1)


def quad_shape_gradients(xi2):
    """Bilinear gradients on the parent quad; result (..., 4, 2)."""
    xi2 = np.asarray(xi2, dtype=float)
    terms = 1.0 + xi2[..., None, :] * QUAD_CORNERS
    grad = np.empty(xi2.shape[:-1] + (4, 2))
    grad[..., 0] = 0.25 * QUAD_CORNERS[:, 0] * terms[..., 1]
    grad[..., 1] = 0.25 * QUAD_CORNERS[:, 1] * terms[..., 0]
    return grad


# fixed-rule tables reused by every element batch
DNDXI = shape_gradients(GAUSS_POINTS)            # (8 gp, 8 nodes, 3)
QUAD_N = quad_shape_functions(QUAD_GAUSS)        # (4 gp, 4 nodes)
QUAD_DN = quad_shape_gradients(QUAD_GAUSS)       # (4 gp, 4 nodes, 2)


def reference_gradients(Xe):
    """Shape gradients w.r.t. reference coordinates per element and point.

    Xe holds the element corner coordinates (E, 8, 3).  Returns
    (dNdX (E, G, 8, 3), wdet (E, G), V0 (E,)).  Rejects elements whose
    isoparametric map is folded (non-positive Jacobian at a Gauss point).
    """
    Xe = np.asarray(Xe, dtype=float)
    jac = np.einsum("eai,gaj->egij", Xe, DNDXI)
    det = np.linalg.det(jac)
    if np.any(det <= 0.0):
        raise MeshError("element Jacobian is non-positive; check corner order")
    inv = np.linalg.inv(jac)
    dNdX = np.einsum("gaj,egji->egai", DNDXI, inv)
    wdet = GAUSS_WEIGHTS[None, :] * det
    return dNdX, wdet, wdet.sum(axis=1)


def deformation_gradients(ue, dNdX):
    """F = I + grad u at every Gauss point; ue is (E, 8, 3)."""
    F = ue.swapaxes(1, 2)[:, None] @ dNdX
    F[..., 0, 0] += 1.0
    F[..., 1, 1] += 1.0
    F[..., 2, 2] += 1.0
    return F


def b_matrices(F, dNdX):
    """Strain-displacement operators dE_eng = B du_e, shape (E, G, 6, 24)."""
    e, g = F.shape[:2]
    B = np.empty((e, g, 6, 8, 3))
    # row m of (i, j): dN_a/dX_j F_ki, plus the twin dN_a/dX_i F_kj for shear
    for m, (i, j) in enumerate(zip(VOIGT_I, VOIGT_J)):
        np.multiply(dNdX[..., j, None], F[..., None, :, i], out=B[:, :, m])
        if i != j:
            B[:, :, m] += dNdX[..., i, None] * F[..., None, :, j]
    return B.reshape(e, g, 6, 24)


def weighted_gradients(dNdX, wdet):
    """w |J| dN_a/dX_J with the Gauss points folded into the last axis,
    shape (E, 8, 3G): the reference-gradient operand of `internal_forces`."""
    e, g, n = dNdX.shape[:3]
    wdN = dNdX * wdet[..., None, None]
    return wdN.transpose(0, 2, 1, 3).reshape(e, n, g * 3)


def internal_forces(F, S6, wdN):
    """Element internal force vectors sum_g w |J| grad0 N (F S)^T, (E, 24).

    The first Piola-Kirchhoff stress P = F S is contracted with the weighted
    reference gradients `wdN` of `weighted_gradients` in one (E, 8, 3G) @
    (E, 3G, 3) product; the result equals sum_g w |J| B^T S without B.
    """
    e, g = F.shape[:2]
    Pt = from_voigt(S6) @ F.swapaxes(-1, -2)                  # (F S)^T = S F^T
    return (wdN @ Pt.reshape(e, g * 3, 3)).reshape(e, -1)


def material_stiffness(B, CC, wdet):
    """sum_g w |J| B^T CC B as (E, 24, 24)."""
    e, g = wdet.shape
    CB = CC @ B
    CB *= wdet[..., None, None]     # in place: one (E, G, 6, 24) array, not two
    return B.reshape(e, g * 6, 24).swapaxes(1, 2) @ CB.reshape(e, g * 6, 24)


def geometric_stiffness(S6, dNdX, wdet):
    """Initial-stress stiffness, block diagonal in the spatial index."""
    e, g, n = dNdX.shape[:3]
    a = (dNdX @ from_voigt(S6)) * wdet[..., None, None]      # (E, G, 8, 3)
    # kab = sum_g w dN_a S dN_b, with (g, l) folded into one inner axis
    kab = a.swapaxes(1, 2).reshape(e, n, g * 3) \
        @ dNdX.swapaxes(2, 3).reshape(e, g * 3, n)
    K = np.zeros((e, n, 3, n, 3))
    for i in range(3):
        K[:, :, i, :, i] = kab
    return K.reshape(e, 3 * n, 3 * n)


def volume_gradient(Finv, J, dNdX, wdet):
    """G_e = sum_g w |J_ref| J F^-T grad N as (E, 24); dJbar/du = G/V0.

    Takes F^-1 and J = det F, which the caller already has.
    """
    e, g = wdet.shape
    spat = dNdX @ Finv                                        # (E, G, 8, 3)
    G = (wdet * J)[:, None, :] @ spat.reshape(e, g, 24)
    return G.reshape(e, 24)


def mean_dilatation(J, wdet, V0):
    """Element-volume-averaged Jacobian Jbar."""
    return np.einsum("eg,eg->e", wdet, J) / V0


def _skew(v):
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 1] = -v[..., 2]
    S[..., 0, 2] = v[..., 1]
    S[..., 1, 0] = v[..., 2]
    S[..., 1, 2] = -v[..., 0]
    S[..., 2, 0] = -v[..., 1]
    S[..., 2, 1] = v[..., 0]
    return S


def face_pressure(xf, pressure, tangent=True):
    """Follower pressure forces and load stiffness on quad faces.

    xf holds current face corner coordinates (M, 4, 3); `pressure` acts
    against the outward normal (positive pressure pushes into the element
    behind the face).  Returns nodal forces (M, 4, 3) and the derivative
    d f_a / d x_b as (M, 4, 3, 4, 3), which is None with tangent=False.
    """
    xf = np.asarray(xf, dtype=float)
    x_xi = np.einsum("ga,mai->mgi", QUAD_DN[..., 0], xf)
    x_eta = np.einsum("ga,mai->mgi", QUAD_DN[..., 1], xf)
    nvec = np.cross(x_xi, x_eta)                       # outward normal * area
    f = -pressure * np.einsum("ga,mgi->mai", QUAD_N, nvec)
    if not tangent:
        return f, None
    # d(x_xi x x_eta) = -skew(x_eta) dx_xi + skew(x_xi) dx_eta
    dn = np.einsum("gb,mgij->mgbij", QUAD_DN[..., 1], _skew(x_xi)) \
        - np.einsum("gb,mgij->mgbij", QUAD_DN[..., 0], _skew(x_eta))
    K = -pressure * np.einsum("ga,mgbij->maibj", QUAD_N, dn)
    return f, K
