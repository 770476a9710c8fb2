"""Shared finite-difference oracles, random-state generators and reference
kernels (elements, textile energy and invariants, 3x3 inverse, mechanical
growth rate, point solver) for tests, with the small helpers only tests
use and adapters that call the component-major material kernels at C
(..., 3, 3) and return their answers in the (..., 6) layout.

The FD rules mirror the symmetric-tensor convention of the package: a
6-vector direction n perturbs the component pair (i, j) and (j, i) of C
together, so the derivative w.r.t. the packed component picks up the pair
multiplicity w_n.
"""

import numpy as np

from maturesim import matpoint
from maturesim import tensors as tn
from maturesim.errors import SolverError
from maturesim.fem.elements import CORNERS
from maturesim.growth import GrowthState
from maturesim.materials import (_collagen_stress_tangent, collagen_psim_batch,
                                 matrix_batch, response_batch, textile_batch,
                                 total_response)
from maturesim.matpoint import PointRecord
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


def response_on_C(C, params, *args, **kwargs):
    """`response_batch` at right Cauchy-Green tensors C (..., 3, 3): F = L^T
    from the Cholesky factor C = L L^T, so that F^T F = C."""
    F = np.linalg.cholesky(C).swapaxes(-1, -2)
    Finv, J = tn.deformation_inv_det(F)
    return response_batch(F, Finv, J, params, *args, **kwargs)


def _components(C):
    """The (6, N) components of right Cauchy-Green tensors C (..., 3, 3), as
    the material kernels take them, and C's leading axes."""
    C = np.asarray(C, dtype=float)
    return tn.to_voigt(C).reshape(-1, 6).T, C.shape[:-2]


def _over(lead, psi, S, CC):
    """An energy (N,), a stress (6, N) and a tangent (36, N) of the kernels
    over the leading axes lead: (...), (..., 6) and (..., 6, 6)."""
    return psi.reshape(lead), S.T.reshape(lead + (6,)), CC.T.reshape(lead + (6, 6))


def matrix_on_C(C, p):
    """`matrix_batch` at right Cauchy-Green tensors C (..., 3, 3), checked
    and inverted by `deformation_inv_det`: the energy psi_mu + U, S and CC
    over C's leading axes."""
    c, lead = _components(C)
    Cinv, detC = tn.deformation_inv_det(C)
    psi_mu, U, S, CC = matrix_batch(c, _components(Cinv)[0],
                                    np.sqrt(detC).reshape(-1), p)
    return _over(lead, psi_mu + U, S, CC)


def collagen_on_C(C, p, rho, D=0.0, D2=0.0):
    """`collagen_psim_batch` and `_collagen_stress_tangent` at right
    Cauchy-Green tensors C (..., 3, 3), at density rho with the
    sensitivities D = drho/dpsi_m and D2 = d2rho/dpsi_m2 (frozen density
    by default).  Returns a dict over C's leading axes: psi_m,
    fiber_strain, dpsim_dC (a 6-vector), S and CC."""
    c, lead = _components(C)
    psi_m, dpsi, curv, E = collagen_psim_batch(c, p)
    S, CC = _collagen_stress_tangent(p, psi_m, dpsi, curv, rho, D, D2)
    psi_m, S, CC = _over(lead, psi_m, S, CC)
    return {"psi_m": psi_m, "fiber_strain": E.reshape(lead),
            "dpsim_dC": (dpsi * p.h6[:, None]).T.reshape(lead + (6,)),
            "S": S, "CC": CC}


def textile_on_C(C, p):
    """`textile_batch` at right Cauchy-Green tensors C (..., 3, 3): psi, S
    and CC over C's leading axes."""
    c, lead = _components(C)
    return _over(lead, *textile_batch(c, p))


def sym_dot(a6, b6):
    """Full contraction A:B of two symmetric tensors in 6-vector form."""
    return np.einsum("...i,...i->...", a6, W * b6)


def structural_dyad(n):
    """Rank-one structural tensor M = n (x) n for a textile yarn direction."""
    n = tn.unit_vector(n)
    return np.outer(n, n)


def shape_functions(xi):
    """Trilinear shape values N_a(xi) for points xi of shape (..., 3)."""
    xi = np.asarray(xi, dtype=float)
    return 0.125 * np.prod(1.0 + xi[..., None, :] * CORNERS, axis=-1)


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


# -- reference constitutive, growth and 3x3 kernels ---------------------------
# The pow-based textile kernel and the LAPACK inverse and determinant that
# maturesim.materials.textile_batch and maturesim.tensors.inv_det3 replace,
# and the mechanical growth rate that maturesim.growth._mech_partials
# differentiates, kept as the plain statement of what those compute.

def ref_mech_rate(rho, psi_m, p):
    """Mechanically driven density rate, written from its formula
    a2 c_cell exp(-rho/rho_th) rho (psi_m - psi_crit)/psi_crit; zero below
    psi_crit."""
    q = (psi_m - p.psi_crit) / p.psi_crit
    rate = p.a2 * p.c_cell * np.exp(-rho / p.rho_th) * rho * q
    return np.where(psi_m >= p.psi_crit, rate, 0.0)


def ref_inv_det3(A):
    return np.linalg.inv(A), np.linalg.det(A)


def textile_invariants(C, M1, M2):
    """Isotropic and yarn-direction invariants of C.

    Returns (I1, I2t, I3t, I4t, I5t) with I1 = tr C, I2t = tr(C M1),
    I3t = tr(C^2 M1), I4t = tr(C M2), I5t = tr(C^2 M2).
    """
    C = np.asarray(C, dtype=float)
    C2 = C @ C
    i1 = np.trace(C, axis1=-2, axis2=-1)
    i2 = np.einsum("...ij,...ij->...", C, M1)
    i3 = np.einsum("...ij,...ij->...", C2, M1)
    i4 = np.einsum("...ij,...ij->...", C, M2)
    i5 = np.einsum("...ij,...ij->...", C2, M2)
    return i1, i2, i3, i4, i5


def ref_textile_batch(C, p):
    """Textile energy, stress and tangent term by term, powers by `**`."""
    C = np.asarray(C, dtype=float)
    i1, i2, i3, i4, i5 = textile_invariants(C, p.M1, p.M2)
    u1, u2, u3, u4, u5 = i1 - 3.0, i2 - 1.0, i3 - 1.0, i4 - 1.0, i5 - 1.0
    b1, b2, g1, g2, d1, d2, xi = (
        p.beta1, p.beta2, p.gamma1, p.gamma2, p.delta1, p.delta2, p.xi)

    psi = (p.k1_1 * u2**b1 + p.k2_1 * u3**b2 + p.k1_2 * u4**g1 + p.k2_2 * u5**g2
           + p.k_coup1 * u1**d1 * u2**d1 + p.k_coup2 * u1**d2 * u4**d2
           + p.k_coup_ani * u2**xi * u4**xi)

    # first partials w.r.t. the shifted invariants u1..u5
    p1 = d1 * p.k_coup1 * u1 ** (d1 - 1) * u2**d1 + d2 * p.k_coup2 * u1 ** (d2 - 1) * u4**d2
    p2 = (b1 * p.k1_1 * u2 ** (b1 - 1) + d1 * p.k_coup1 * u1**d1 * u2 ** (d1 - 1)
          + xi * p.k_coup_ani * u2 ** (xi - 1) * u4**xi)
    p3 = b2 * p.k2_1 * u3 ** (b2 - 1)
    p4 = (g1 * p.k1_2 * u4 ** (g1 - 1) + d2 * p.k_coup2 * u1**d2 * u4 ** (d2 - 1)
          + xi * p.k_coup_ani * u2**xi * u4 ** (xi - 1))
    p5 = g2 * p.k2_2 * u5 ** (g2 - 1)

    # second partials; only the couplings are non-diagonal
    p11 = (d1 * (d1 - 1) * p.k_coup1 * u1 ** (d1 - 2) * u2**d1
           + d2 * (d2 - 1) * p.k_coup2 * u1 ** (d2 - 2) * u4**d2)
    p22 = (b1 * (b1 - 1) * p.k1_1 * u2 ** (b1 - 2)
           + d1 * (d1 - 1) * p.k_coup1 * u1**d1 * u2 ** (d1 - 2)
           + xi * (xi - 1) * p.k_coup_ani * u2 ** (xi - 2) * u4**xi)
    p33 = b2 * (b2 - 1) * p.k2_1 * u3 ** (b2 - 2)
    p44 = (g1 * (g1 - 1) * p.k1_2 * u4 ** (g1 - 2)
           + d2 * (d2 - 1) * p.k_coup2 * u1**d2 * u4 ** (d2 - 2)
           + xi * (xi - 1) * p.k_coup_ani * u2**xi * u4 ** (xi - 2))
    p55 = g2 * (g2 - 1) * p.k2_2 * u5 ** (g2 - 2)
    p12 = d1 * d1 * p.k_coup1 * u1 ** (d1 - 1) * u2 ** (d1 - 1)
    p14 = d2 * d2 * p.k_coup2 * u1 ** (d2 - 1) * u4 ** (d2 - 1)
    p24 = xi * xi * p.k_coup_ani * u2 ** (xi - 1) * u4 ** (xi - 1)

    eye6 = tn.IDENTITY6
    m1_6 = tn.to_voigt(p.M1)
    m2_6 = tn.to_voigt(p.M2)
    a3 = tn.to_voigt(C @ p.M1 + p.M1 @ C)
    a5 = tn.to_voigt(C @ p.M2 + p.M2 @ C)
    A = [eye6, m1_6, a3, m2_6, a5]

    S = 2.0 * (p1[..., None] * A[0] + p2[..., None] * A[1] + p3[..., None] * A[2]
               + p4[..., None] * A[3] + p5[..., None] * A[4])

    CC = np.zeros(np.shape(u1) + (6, 6))
    diag = [(p11, 0), (p22, 1), (p33, 2), (p44, 3), (p55, 4)]
    for coef, k in diag:
        CC += coef[..., None, None] * tn.outer6(A[k], A[k])
    cross = [(p12, 0, 1), (p14, 0, 3), (p24, 1, 3)]
    for coef, k, l in cross:
        CC += coef[..., None, None] * (tn.outer6(A[k], A[l]) + tn.outer6(A[l], A[k]))
    # constant curvature of I3t and I5t in C
    for coef, M in ((p3, p.M1), (p5, p.M2)):
        CC += coef[..., None, None] * (tn.sym_outer_product(np.eye(3), M)
                                       + tn.sym_outer_product(M, np.eye(3)))
    CC *= 4.0
    return psi, S, CC


# -- reference point solver ----------------------------------------------------
# The sequential form of maturesim.matpoint.solve_mixed_point: every knot,
# frozen or growing, is its own single-point Newton warm-started from the
# previous knot's stretches, free axes starting at 1.

def ref_solve_mixed_point(program, params, init=GrowthState()):
    free = [ax for ax, c in enumerate(program.controls) if isinstance(c, str)]
    controlled = [ax for ax in range(3) if ax not in free]
    n = program.steps_per_interval
    w = np.arange(1, n + 1) / n
    t0, t1 = program.times[:-1, None], program.times[1:, None]
    path_t = np.concatenate([t0[0], (t0 + w * (t1 - t0)).ravel()])
    path_lams = np.ones((path_t.size, 3))
    for ax in controlled:
        v0, v1 = program.controls[ax][:-1, None], program.controls[ax][1:, None]
        path_lams[0, ax] = v0[0, 0]
        path_lams[1:, ax] = ((1.0 - w) * v0 + w * v1).ravel()

    lams, state, records = np.ones(3), init, []
    t_prev = path_t[0]
    for t, target in zip(path_t, path_lams):
        dt = (t - t_prev) if program.grow else 0.0
        lams[controlled] = target[controlled]
        lams, F, st, sigma, evaluated = _ref_newton_free_axes(
            lams, free, params, state, dt, t)
        state = evaluated if program.grow else state
        records.append(PointRecord(time=t, F=F, S=st.S, sigma=sigma,
                                   rho=state.rho, psi_m=evaluated.psi_m))
        t_prev = t
    return records


def _ref_newton_free_axes(lams, free, params, state, dt, t):
    lams = lams.copy()
    last = np.inf
    for _ in range(matpoint.NEWTON_MAXIT):
        F = np.diag(lams)
        st, new_state = total_response(F, params, state, dt, t)
        J = np.prod(lams)
        sigma = (lams[VOIGT_I] * st.S) * lams[VOIGT_J] / J
        res = sigma[free]
        last = float(np.max(np.abs(res), initial=0.0))
        if last <= matpoint.STRESS_TOL:
            return lams, F, st, sigma, new_state
        lf = lams[free]
        jac = lf[:, None] ** 2 * (st.CC[free][:, free] * lf) / J - sigma[free, None] / lf
        jac[np.diag_indices(len(free))] += 2.0 * lf * st.S[free] / J
        step = np.linalg.solve(jac, -res)
        for r, ax in enumerate(free):
            new = lams[ax] + step[r]
            while new <= 0.05:
                step[r] *= 0.5
                new = lams[ax] + step[r]
            lams[ax] = new
    raise SolverError("free-axis Newton did not converge", residual=last)
