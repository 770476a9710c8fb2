"""Constitutive models: isotropic matrix, dispersed collagen, textile scaffold.

All constituents are formulated in the reference configuration in terms of
the right Cauchy-Green tensor C.  Second Piola-Kirchhoff stresses follow
from S = 2 d psi / d C and tangents from CC = 4 d^2 psi / d C^2; see
`tensors` for the 6-vector and 6x6 conventions.

The collagen energy is carried per unit collagen mass, so the stress term is

    S_co = 2 * (psi_m * d rho / d C + rho * d psi_m / d C)

which couples to the density update of `growth` through the sensitivity
d rho / d psi_m.  Stresses in MPa, densities in ug/mm^3, psi_m in
MPa mm^3/ug.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensors as tn
from .errors import DeformationError, ParameterError, StateError
from .growth import GrowthParams, GrowthState, update_density_batch

_I6 = tn.IDENTITY6
_EYE3 = np.eye(3)


@dataclass(frozen=True)
class MatrixParams:
    """Compressible Neo-Hooke ground matrix; lam and mu in MPa."""

    lam: float
    mu: float

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ParameterError(f"mu must be positive, got {self.mu}")
        if self.lam < 0.0:
            raise ParameterError(f"lam must be non-negative, got {self.lam}")


@dataclass(frozen=True, eq=False)
class CollagenParams:
    """Dispersed collagen fiber family with Fung-type per-mass energy.

    k1 (MPa), k2 (-) shape the exponential response, kappa in [0, 1/3] is
    the dispersion, `a` the mean fiber direction and rho_f (ug/mm^3) the
    fully mature density the energy is normalized with.
    """

    k1: float
    k2: float
    kappa: float
    a: np.ndarray
    rho_f: float
    H: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.k1 <= 0.0 or self.k2 <= 0.0:
            raise ParameterError("k1 and k2 must be positive")
        if self.rho_f <= 0.0:
            raise ParameterError(f"rho_f must be positive, got {self.rho_f}")
        object.__setattr__(self, "a", tn.unit_vector(self.a))
        object.__setattr__(self, "H", tn.gen_structural_tensor(self.a, self.kappa))


@dataclass(frozen=True, eq=False)
class TextileParams:
    """Orthotropic polynomial model of the knitted scaffold.

    Stiffness factors in MPa; exponents are integers >= 2 so every term has
    a continuous first derivative at the unloaded state.  n1 and n2 are the
    two yarn directions.
    """

    k1_1: float
    k2_1: float
    k1_2: float
    k2_2: float
    k_coup1: float
    k_coup2: float
    k_coup_ani: float
    beta1: int
    beta2: int
    gamma1: int
    gamma2: int
    delta1: int
    delta2: int
    xi: int
    n1: np.ndarray
    n2: np.ndarray
    M1: np.ndarray = field(init=False, repr=False)
    M2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("k1_1", "k2_1", "k1_2", "k2_2", "k_coup1", "k_coup2", "k_coup_ani"):
            if getattr(self, name) < 0.0:
                raise ParameterError(f"{name} must be non-negative")
        for name in ("beta1", "beta2", "gamma1", "gamma2", "delta1", "delta2", "xi"):
            e = getattr(self, name)
            if int(e) != e or e < 2:
                raise ParameterError(f"exponent {name} must be an integer >= 2, got {e}")
            object.__setattr__(self, name, int(e))
        object.__setattr__(self, "n1", tn.unit_vector(self.n1))
        object.__setattr__(self, "n2", tn.unit_vector(self.n2))
        object.__setattr__(self, "M1", np.outer(self.n1, self.n1))
        object.__setattr__(self, "M2", np.outer(self.n2, self.n2))


@dataclass(frozen=True)
class MaterialParams:
    """Bundle of all constituent parameters for one material point."""

    matrix: MatrixParams
    collagen: CollagenParams
    textile: TextileParams
    growth: GrowthParams


@dataclass(eq=False)
class StressTangent:
    """Second Piola-Kirchhoff stress (6-vector) and 6x6 material tangent."""

    S: np.ndarray
    CC: np.ndarray


def _check_C(C):
    C = np.asarray(C, dtype=float)
    detC = np.linalg.det(C)
    if np.any(detC <= 0.0):
        raise DeformationError(f"det C must be positive, got min {np.min(detC):g}")
    return C, detC


def matrix_batch(C, p: MatrixParams, pbar=None):
    """Matrix energy, stress and tangent for a batch of C tensors.

    With `pbar=None` the volumetric term U(J) = lam/4 (J^2 - 1 - 2 ln J) is
    evaluated pointwise.  Otherwise `pbar` is used as the (element-mean)
    volumetric pressure U'(Jbar) and only the shear part remains pointwise;
    the caller owns the element-level volumetric coupling.

    Returns (psi_mu, U_local, S, CC, J, Cinv).
    """
    C, detC = _check_C(C)
    J = np.sqrt(detC)
    Cinv = np.linalg.inv(C)
    cinv = tn.to_voigt(Cinv)
    I1 = np.trace(C, axis1=-2, axis2=-1)
    lnJ = 0.5 * np.log(detC)
    psi_mu = 0.5 * p.mu * (I1 - 3.0) - p.mu * lnJ
    U_local = 0.25 * p.lam * (J**2 - 1.0 - 2.0 * lnJ)

    cc_inv = tn.sym_outer_product(Cinv, Cinv)
    S = p.mu * (_I6 - cinv)
    CC = 2.0 * p.mu * cc_inv
    if pbar is None:
        pv = 0.5 * p.lam * (J**2 - 1.0)
        S = S + pv[..., None] * cinv
        CC = CC + (p.lam * J**2)[..., None, None] * tn.outer6(cinv, cinv) \
            - (2.0 * pv)[..., None, None] * cc_inv
    else:
        pbar = np.asarray(pbar, dtype=float)
        pJ = pbar * J
        S = S + pJ[..., None] * cinv
        CC = CC + pJ[..., None, None] * (tn.outer6(cinv, cinv) - 2.0 * cc_inv)
    return psi_mu, U_local, S, CC, J, Cinv


def volumetric_energy(J, p: MatrixParams):
    """Matrix volumetric energy U(J) = lam/4 (J^2 - 1 - 2 ln J)."""
    J = np.asarray(J, dtype=float)
    return 0.25 * p.lam * (J**2 - 1.0 - 2.0 * np.log(J))


def volumetric_pressure(J, p: MatrixParams):
    """U'(J) = lam/2 (J - 1/J), the pressure conjugate to J."""
    J = np.asarray(J, dtype=float)
    return 0.5 * p.lam * (J - 1.0 / J)


def volumetric_modulus(J, p: MatrixParams):
    """U''(J) = lam/2 (1 + 1/J^2)."""
    J = np.asarray(J, dtype=float)
    return 0.5 * p.lam * (1.0 + 1.0 / J**2)


def collagen_psim_batch(C, p: CollagenParams):
    """Per-mass collagen energy and its C-derivatives for a batch.

    Tension-only: everything vanishes for mean fiber stretches below 1.
    Returns (psi_m, g = d psi_m/dC as 6-vector, curv = d/dE of g's scalar
    factor divided by rho_f, E).
    """
    C = np.asarray(C, dtype=float)
    lam_sq, E = tn.fiber_strain(C, p.H)
    tension = E > 0.0
    Es = np.where(tension, E, 0.0)
    expo = np.exp(p.k2 * Es**2)
    psi_m = np.where(tension, 0.5 * p.k1 / p.k2 * (expo - 1.0) / p.rho_f, 0.0)
    dphi = np.where(tension, p.k1 * Es * expo / p.rho_f, 0.0)
    curv = np.where(tension, p.k1 * (1.0 + 2.0 * p.k2 * Es**2) * expo / p.rho_f, 0.0)
    h6 = tn.to_voigt(p.H)
    g = dphi[..., None] * h6
    return psi_m, g, curv, E


def _collagen_stress_tangent(p: CollagenParams, psi_m, g, curv, rho, D, D2):
    """Collagen stress and growth-consistent tangent for a batch of points.

    Takes the outputs of `collagen_psim_batch` with the densities rho and
    their sensitivities D = drho/dpsi_m and D2 = d2rho/dpsi_m2; with the
    chain drho/dC = D g the stress is S_co = 2 (rho + D psi_m) g.
    """
    S_co = 2.0 * (rho + D * psi_m)[..., None] * g
    # rank-one tangent blocks; both live on H (x) H
    h6 = tn.to_voigt(p.H)
    CC_co = (4.0 * (D2 * psi_m + 2.0 * D))[..., None, None] * tn.outer6(g, g) \
        + (4.0 * (D * psi_m + rho) * curv)[..., None, None] * tn.outer6(h6, h6)
    return S_co, CC_co


def textile_batch(C, p: TextileParams):
    """Textile energy, stress and tangent for a batch of C tensors."""
    C = np.asarray(C, dtype=float)
    i1, i2, i3, i4, i5 = tn.textile_invariants(C, p.M1, p.M2)
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

    m1_6 = tn.to_voigt(p.M1)
    m2_6 = tn.to_voigt(p.M2)
    a3 = tn.to_voigt(C @ p.M1 + p.M1 @ C)
    a5 = tn.to_voigt(C @ p.M2 + p.M2 @ C)
    A = [_I6, m1_6, a3, m2_6, a5]

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
        CC += coef[..., None, None] * (tn.sym_outer_product(_EYE3, M)
                                       + tn.sym_outer_product(M, _EYE3))
    CC *= 4.0
    return psi, S, CC


def matrix_psi_stress_tangent(C, p: MatrixParams):
    """Matrix energy density (MPa) with stress and tangent at one point."""
    psi_mu, U, S, CC, _, _ = matrix_batch(np.asarray(C, dtype=float)[None], p)
    return float(psi_mu[0] + U[0]), StressTangent(S[0], CC[0])


def collagen_psi_mass(C, p: CollagenParams):
    """Collagen energy per unit mass and its derivative w.r.t. C (6-vector)."""
    psi_m, g, _, _ = collagen_psim_batch(np.asarray(C, dtype=float)[None], p)
    return float(psi_m[0]), g[0]


def collagen_stress(C, p: CollagenParams, rho, drho_dC, drho_dpsim=0.0, d2rho_dpsim2=0.0):
    """Collagen stress S_co = 2 (psi_m drho_dC + rho dpsim_dC) with tangent.

    `drho_dC` is the density sensitivity chained through psi_m, i.e.
    drho_dpsim * dpsim_dC, as produced by the growth update; None stands
    for that chain and a given value must match it.  The tangent is
    consistent with that chain when the scalar sensitivities drho_dpsim and
    d2rho_dpsim2 are supplied; with the defaults it is the frozen-density
    tangent.
    """
    if rho < 0.0 or not np.isfinite(rho):
        raise StateError(f"density must be finite and non-negative, got {rho}")
    psi_m, g, curv, _ = collagen_psim_batch(np.asarray(C, dtype=float)[None], p)
    if drho_dC is not None:
        chain = drho_dpsim * g[0]
        if not np.allclose(drho_dC, chain, rtol=1e-12, atol=1e-12 * np.max(np.abs(chain))):
            raise StateError("drho_dC must equal drho_dpsim * dpsim_dC")
    S, CC = _collagen_stress_tangent(p, psi_m, g, curv, rho, drho_dpsim, d2rho_dpsim2)
    return StressTangent(S[0], CC[0])


def textile_psi_stress_tangent(C, p: TextileParams):
    """Textile energy density (MPa) with stress and tangent at one point."""
    psi, S, CC = textile_batch(np.asarray(C, dtype=float)[None], p)
    return float(psi[0]), StressTangent(S[0], CC[0])


def response_batch(C, params: MaterialParams, rho_n, t, dt, pbar=None):
    """Total stress, tangent and updated densities for a batch of points.

    `rho_n` holds the converged densities of the previous time level; with
    dt > 0 the growth update runs inside (bio rate at time t) and the
    returned tangent is consistent with it, with dt == 0 densities stay
    frozen.  `pbar` switches the matrix volumetric term to an externally
    averaged pressure (see `matrix_batch`).

    Returns a dict of batch arrays: S, CC, rho, drho_dpsim, psi_m, J,
    psi_point (pointwise energy density: matrix shear + textile + collagen),
    U_local (pointwise matrix volumetric energy).
    """
    C = np.asarray(C, dtype=float)
    rho_n = np.asarray(rho_n, dtype=float)
    psi_mu, U_local, S, CC, J, _ = matrix_batch(C, params.matrix, pbar=pbar)
    psi_tex, S_tex, CC_tex = textile_batch(C, params.textile)
    psi_m, g, curv, _ = collagen_psim_batch(C, params.collagen)

    if dt > 0.0:
        flat = psi_m.reshape(-1)
        rho, D, D2 = update_density_batch(rho_n.reshape(-1), flat, t, dt, params.growth)
        rho = rho.reshape(psi_m.shape)
        D = D.reshape(psi_m.shape)
        D2 = D2.reshape(psi_m.shape)
    else:
        rho = rho_n.copy()
        D = np.zeros_like(rho)
        D2 = np.zeros_like(rho)

    S_co, CC_co = _collagen_stress_tangent(params.collagen, psi_m, g, curv, rho, D, D2)

    return {
        "S": S + S_tex + S_co,
        "CC": CC + CC_tex + CC_co,
        "rho": rho,
        "drho_dpsim": D,
        "psi_m": psi_m,
        "J": J,
        "psi_point": psi_mu + psi_tex + rho * psi_m,
        "U_local": U_local,
    }


def total_response(F, params: MaterialParams, state: GrowthState, dt, t):
    """Coupled response at one material point for a deformation gradient F.

    Runs the density update over the step (t - dt, t] when dt > 0 and
    returns the total stress/tangent pair together with the new growth
    state.  With dt == 0 the density is frozen and the state is passed
    through unchanged.
    """
    C = tn.right_cauchy_green(np.asarray(F, dtype=float))
    out = response_batch(C[None], params, np.array([state.rho]), t, dt)
    new_state = GrowthState(rho=float(out["rho"][0]),
                            drho_dpsim=float(out["drho_dpsim"][0]))
    return StressTangent(out["S"][0], out["CC"][0]), new_state


def cauchy_stress(F, S):
    """Push-forward sigma = J^-1 F S F^T of a PK2 stress 6-vector."""
    F = np.asarray(F, dtype=float)
    J = np.linalg.det(F)
    if np.any(J <= 0.0):
        raise DeformationError(f"det F must be positive, got min {np.min(J):g}")
    Smat = tn.from_voigt(S)
    sig = np.einsum("...ik,...kl,...jl->...ij", F, Smat, F) / J[..., None, None]
    return tn.to_voigt(sig)
