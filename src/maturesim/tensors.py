"""Small-tensor kinematics and symmetric-tensor conventions.

Unit system used throughout the package: mm, N, MPa, microgram, day.

General second-order tensors (deformation gradients, rotations) are plain
numpy arrays of shape (..., 3, 3).  Symmetric second-order tensors that are
stored or returned as data (stresses, structural tensors) use a 6-component
vector with the fixed ordering

    [11, 22, 33, 12, 13, 23]

and no shear scaling on the components themselves.  Fourth-order tangents
with minor symmetries are 6x6 matrices whose entries are plain tensor
components CC[(ij),(kl)].  With that convention the increment relation is

    dS = CC @ dE_eng,   dE_eng = [dE11, dE22, dE33, 2*dE12, 2*dE13, 2*dE23]

where E = (C - I)/2, i.e. the usual stiffness-matrix layout with engineering
shear on the strain side.  Tangents derived from an energy are symmetric.

All functions broadcast over leading axes so that material-point and batched
Gauss-point evaluations share one code path.
"""

import numpy as np

from .errors import DeformationError, ParameterError, check_range

# Component order of the symmetric 6-vector: (i, j) index pairs.
VOIGT_I = np.array([0, 1, 2, 0, 0, 1])
VOIGT_J = np.array([0, 1, 2, 1, 2, 2])
# Multiplicity of each pair when contracting two symmetric tensors.
VOIGT_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

IDENTITY6 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def to_voigt(A):
    """Pack the upper triangle of symmetric (..., 3, 3) into (..., 6)."""
    A = np.asarray(A, dtype=float)
    return A[..., VOIGT_I, VOIGT_J]


def from_voigt(v):
    """Unpack (..., 6) into full symmetric (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    A = np.empty(v.shape[:-1] + (3, 3))
    A[..., VOIGT_I, VOIGT_J] = v
    A[..., VOIGT_J, VOIGT_I] = v
    return A


def outer6(a6, b6):
    """Dyadic product A (x) B as a 6x6 tangent block."""
    return a6[..., :, None] * b6[..., None, :]


# Entry (m, q) of A (.) B, m = (i, j) and q = (k, l), is
# (A_ik B_jl + A_il B_jk) / 2; with v(i, k) the Voigt position of (i, k) the
# two products are entries 6 v(ik) + v(jl) and 6 v(il) + v(jk) of a (x) b
_V = np.empty((3, 3), dtype=int)
_V[VOIGT_I, VOIGT_J] = _V[VOIGT_J, VOIGT_I] = np.arange(6)
_VI, _VJ = VOIGT_I[:, None], VOIGT_J[:, None]
SYM_OUTER = np.stack([6 * _V[_VI, VOIGT_I] + _V[_VJ, VOIGT_J],
                      6 * _V[_VI, VOIGT_J] + _V[_VJ, VOIGT_I]]).reshape(2, 36)


def sym_outer_product(A, B):
    """Symmetrized product (A . B)_ijkl = (A_ik B_jl + A_il B_jk) / 2.

    Both arguments are full (..., 3, 3) symmetric tensors; the result is the
    6x6 tangent block of that fourth-order tensor, two gathers of
    a (x) b by `SYM_OUTER`.
    """
    ab = outer6(to_voigt(A), to_voigt(B))
    ab = ab.reshape(ab.shape[:-2] + (36,))
    sym = 0.5 * (ab[..., SYM_OUTER[0]] + ab[..., SYM_OUTER[1]])
    return sym.reshape(sym.shape[:-1] + (6, 6))


# adj(A)_ij = A_(j+1)(i+1) A_(j+2)(i+2) - A_(j+1)(i+2) A_(j+2)(i+1), indices
# mod 3, as flat indices into the row-major 9 entries of A: the two factors
# of the first product, then of the second
_I, _J = np.indices((3, 3))
_ADJ_TERMS = np.stack([3 * ((_J + 1) % 3) + (_I + 1) % 3,
                       3 * ((_J + 2) % 3) + (_I + 2) % 3,
                       3 * ((_J + 1) % 3) + (_I + 2) % 3,
                       3 * ((_J + 2) % 3) + (_I + 1) % 3]).reshape(4, 9)


def inv_det3(A):
    """Inverse and determinant of a batch of 3x3 matrices, in closed form.

    The inverse is the adjugate (cofactors) over the determinant, which is
    expanded along the first row: a handful of array operations for the
    whole batch instead of one LAPACK factorization per matrix.  Where
    det A == 0 the inverse holds non-finite entries; callers check det.
    """
    A = np.asarray(A, dtype=float)
    f = A.reshape(A.shape[:-2] + (9,))[..., _ADJ_TERMS]
    adj = f[..., 0, :] * f[..., 1, :] - f[..., 2, :] * f[..., 3, :]
    det = (A[..., 0, :] * adj[..., ::3]).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = adj / det[..., None]
    return inv.reshape(A.shape), det


def unit_vector(v):
    """Normalize a direction vector; reject vectors that are not finite or
    of vanishing length."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ParameterError(f"direction must be a 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ParameterError(f"direction must be finite, got {v}")
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise ParameterError("direction vector has (near-)zero length")
    return v / n


def deformation_inv_det(A):
    """Inverse and determinant of a stack of deformation tensors, F or C,
    from `inv_det3`.

    The one admissibility check of a deformation: raises DeformationError
    unless every A is finite and has det A > 0, so a NaN or infinite entry
    is rejected before anything is computed from it.  Each public entry
    point runs it once per evaluation (`FemModel.assemble`,
    `total_response` and `cauchy_stress`, each on F), and the kernels
    behind it take the inverse and determinant it returned.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise DeformationError("deformation tensor must be finite")
    inv, det = inv_det3(A)
    if not (det > 0.0).all():
        raise DeformationError("deformation tensor must have a positive "
                               f"determinant, got min {np.min(det):g}")
    return inv, det


def gen_structural_tensor(a, kappa):
    """Generalized structural tensor H = kappa*I + (1 - 3*kappa) a (x) a.

    `a` is normalized internally; kappa in [0, 1/3] measures the dispersion
    of the fiber family (0: perfectly aligned, 1/3: isotropic).  trace(H) = 1
    up to round-off by construction.
    """
    check_range({"kappa": kappa}, 0.0, "in [0, 1/3]", high=1.0 / 3.0, closed=True)
    a = unit_vector(a)
    return kappa * np.eye(3) + (1.0 - 3.0 * kappa) * np.outer(a, a)

