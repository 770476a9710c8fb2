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

import copy
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import tensors as tn
from .errors import DeformationError, ParameterError, StateError
from .growth import GrowthParams, GrowthState, update_density_batch

_I6 = tn.IDENTITY6
_EYE3 = np.eye(3)
FIBER_STRAIN_MAX = 10.0   # far outside any physical state
#: the textile stiffness factors, in the order of `_textile_monomials`
TEXTILE_STIFFNESS = ("k1_1", "k2_1", "k1_2", "k2_2", "k_coup1", "k_coup2",
                     "k_coup_ani")


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
    h6: np.ndarray = field(init=False, repr=False)
    hh: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.k1 <= 0.0 or self.k2 <= 0.0:
            raise ParameterError("k1 and k2 must be positive")
        if self.rho_f <= 0.0:
            raise ParameterError(f"rho_f must be positive, got {self.rho_f}")
        object.__setattr__(self, "a", tn.unit_vector(self.a))
        object.__setattr__(self, "H", tn.gen_structural_tensor(self.a, self.kappa))
        object.__setattr__(self, "h6", tn.to_voigt(self.H))
        object.__setattr__(self, "hh", tn.outer6(self.h6, self.h6))


@dataclass(frozen=True, eq=False)
class TextileParams:
    """Orthotropic polynomial model of the knitted scaffold.

    Stiffness factors in MPa; exponents are integers >= 2 so every term has
    a continuous first derivative at the unloaded state.  n1 and n2 are the
    two yarn directions.  Construction (also by `dataclasses.replace`)
    builds the constants `textile_batch` evaluates with: the monomial tables
    of the energy and its partials (`mono_*`, see `_textile_monomials`),
    the linear part of the invariant gradients and their constant
    curvatures.  Only the coefficients `mono_coef` depend on the stiffness
    factors; `replace` keeps every other table when it changes nothing else.
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
    m1_6: np.ndarray = field(init=False, repr=False)
    m2_6: np.ndarray = field(init=False, repr=False)
    mono_coef: np.ndarray = field(init=False, repr=False)
    mono_factor: np.ndarray = field(init=False, repr=False)
    mono_term: np.ndarray = field(init=False, repr=False)
    mono_pow: np.ndarray = field(init=False, repr=False)
    mono_scatter: np.ndarray = field(init=False, repr=False)
    grad_lin: np.ndarray = field(init=False, repr=False)
    curv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._validate()
        object.__setattr__(self, "n1", tn.unit_vector(self.n1))
        object.__setattr__(self, "n2", tn.unit_vector(self.n2))
        object.__setattr__(self, "M1", np.outer(self.n1, self.n1))
        object.__setattr__(self, "M2", np.outer(self.n2, self.n2))
        object.__setattr__(self, "m1_6", tn.to_voigt(self.M1))
        object.__setattr__(self, "m2_6", tn.to_voigt(self.M2))
        # dI3t/dC = C M1 + M1 C and dI5t/dC are linear in C: as 6-vectors
        # they are c6 @ grad_lin, row b the image of C = from_voigt(e_b)
        basis = tn.from_voigt(np.eye(6))
        object.__setattr__(self, "grad_lin", np.hstack(
            [tn.to_voigt(basis @ M + M @ basis) for M in (self.M1, self.M2)]))
        # d2 I3t/dC2 and d2 I5t/dC2, constant in C
        object.__setattr__(self, "curv", np.stack([
            tn.sym_outer_product(_EYE3, M) + tn.sym_outer_product(M, _EYE3)
            for M in (self.M1, self.M2)]))
        factor, term, powers, rows = _textile_monomials(self)
        start = np.flatnonzero(np.diff(rows, prepend=-1))
        object.__setattr__(self, "mono_factor", factor)
        object.__setattr__(self, "mono_term", term)
        object.__setattr__(self, "mono_pow", powers)
        object.__setattr__(self, "mono_scatter", np.stack([start, rows[start]]))
        self._set_coef()

    def _validate(self):
        for name in TEXTILE_STIFFNESS:
            if getattr(self, name) < 0.0:
                raise ParameterError(f"{name} must be non-negative")
        for name in ("beta1", "beta2", "gamma1", "gamma2", "delta1", "delta2", "xi"):
            e = getattr(self, name)
            if int(e) != e or e < 2:
                raise ParameterError(f"exponent {name} must be an integer >= 2, got {e}")
            object.__setattr__(self, name, int(e))

    def _set_coef(self):
        k = np.array([getattr(self, name) for name in TEXTILE_STIFFNESS], dtype=float)
        object.__setattr__(self, "mono_coef", self.mono_factor * k[self.mono_term])

    def replace(self, **changes):
        """`dataclasses.replace(self, **changes)`, validated alike.

        Where `changes` holds stiffness factors only, the copy keeps this
        instance's direction and exponent tables and recomputes `mono_coef`
        alone; any other change rebuilds every table.
        """
        if not set(changes) <= set(TEXTILE_STIFFNESS):
            return dataclasses.replace(self, **changes)
        new = copy.copy(self)
        for name, value in changes.items():
            object.__setattr__(new, name, value)
        new._validate()
        new._set_coef()
        return new


# Output rows of the textile monomial sums: psi, its five first partials
# by u, then the 5x5 second partials row-major.
_TEX_ROWS = 1 + 5 + 25
# u = I * _TEX_HALF - _TEX_SHIFT with I the five invariants as dI/dC : C
_TEX_HALF = np.array([1.0, 1.0, 0.5, 1.0, 0.5])
_TEX_SHIFT = np.array([3.0, 1.0, 1.0, 1.0, 1.0])


def _textile_monomials(p):
    """Monomial table of the textile energy and of its first two partials.

    In the shifted invariants u = (I1 - 3, I2t - 1, I3t - 1, I4t - 1,
    I5t - 1) the energy is a sum of seven monomials f k u_a^ea u_b^eb, with
    eb = 0 for a term in one invariant.  Differentiating by u_a lowers ea by
    one and multiplies f by it, so the partials are monomials of the same
    form.  Returns the factors f, the index k of each monomial's stiffness
    factor in `TEXTILE_STIFFNESS` (its coefficient is f times that factor),
    the rows 5 ea + a and 5 eb + b of the two factors in the power table
    u^e_v (2, M), and each monomial's output row (psi 0, dpsi/du_v 1 + v,
    d2psi/du_v du_w 6 + 5 v + w), sorted by row; within a row the seven
    terms keep their order.  Only the exponents enter the table.
    """
    terms = [  # (k, a, ea, b, eb), k indexing TEXTILE_STIFFNESS
        (0, 1, p.beta1, 0, 0),
        (1, 2, p.beta2, 0, 0),
        (2, 3, p.gamma1, 0, 0),
        (3, 4, p.gamma2, 0, 0),
        (4, 0, p.delta1, 1, p.delta1),
        (5, 0, p.delta2, 3, p.delta2),
        (6, 1, p.xi, 3, p.xi),
    ]
    level = [(1, k, a, ea, b, eb, 0) for k, a, ea, b, eb in terms]
    table = list(level)
    # the partial by u_v of a monomial in row r lands in row
    # base + 5 (r - prev) + v: psi (row 0) feeds rows 1 + v, and
    # dpsi/du_w (row 1 + w) feeds rows 6 + 5 w + v
    for base, prev in ((1, 0), (6, 1)):
        nxt = []
        for f, k, a, ea, b, eb, r in level:
            if ea:
                nxt.append((f * ea, k, a, ea - 1, b, eb, base + 5 * (r - prev) + a))
            if eb:
                nxt.append((f * eb, k, a, ea, b, eb - 1, base + 5 * (r - prev) + b))
        level = sorted(nxt, key=lambda m: m[-1])
        table += level
    factor = np.array([m[0] for m in table], dtype=float)
    term = np.array([m[1] for m in table])
    powers = np.array([(5 * ea + a, 5 * eb + b) for _, _, a, ea, b, eb, _ in table]).T
    rows = np.array([m[6] for m in table])
    return factor, term, powers, rows


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


def matrix_batch(C, p: MatrixParams, pbar=None, tangent=True):
    """Matrix energy, stress and tangent for a batch of C tensors.

    The volumetric law U(J) is `volumetric_energy`; its stress is
    p J C^-1.  With `pbar=None` p = U'(J) pointwise and the tangent has the
    bulk block J^2 U''(J) C^-1 (x) C^-1.  Otherwise p = `pbar`, the
    (element-mean) U'(Jbar), and the caller owns the element-level coupling.

    Returns (psi_mu, U_local, S, CC, J); CC is None with tangent=False.
    """
    C = np.asarray(C, dtype=float)
    Cinv, detC = tn.deformation_inv_det(C)
    J = np.sqrt(detC)
    cinv = tn.to_voigt(Cinv)
    I1 = np.trace(C, axis1=-2, axis2=-1)
    psi_mu = 0.5 * p.mu * (I1 - 3.0) - 0.5 * p.mu * np.log(detC)
    U_local = volumetric_energy(J, p)
    pv = volumetric_pressure(J, p) if pbar is None else np.asarray(pbar, dtype=float)
    pJ = pv * J

    S = p.mu * (_I6 - cinv) + pJ[..., None] * cinv
    if not tangent:
        return psi_mu, U_local, S, None, J
    cc_inv = tn.sym_outer_product(Cinv, Cinv)
    cc_vol = tn.outer6(cinv, cinv)
    CC = 2.0 * p.mu * cc_inv + pJ[..., None, None] * (cc_vol - 2.0 * cc_inv)
    if pbar is None:
        CC += (J**2 * volumetric_modulus(J, p))[..., None, None] * cc_vol
    return psi_mu, U_local, S, CC, J


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
    """Per-mass collagen energy and its derivatives by the fiber strain E.

    Tension-only: everything vanishes for mean fiber stretches below 1.
    E past FIBER_STRAIN_MAX, where the exponential would overflow, raises
    DeformationError.  Returns (psi_m, dpsi_m/dE, d2psi_m/dE2, E).
    """
    C = np.asarray(C, dtype=float)
    _, E = tn.fiber_strain(C, p.H)
    if not float(E.max(initial=0.0)) <= FIBER_STRAIN_MAX:   # NaN fails too
        raise DeformationError("fiber strain left the supported range")
    tension = E > 0.0
    Es = np.where(tension, E, 0.0)
    expo = np.exp(p.k2 * Es**2)
    # Es = 0 gives expo = 1, so psi_m and dpsi vanish there exactly
    psi_m = 0.5 * p.k1 / p.k2 * (expo - 1.0) / p.rho_f
    dpsi = p.k1 * Es * expo / p.rho_f
    curv = np.where(tension, p.k1 * (1.0 + 2.0 * p.k2 * Es**2) * expo / p.rho_f, 0.0)
    return psi_m, dpsi, curv, E


def _collagen_stress_tangent(p: CollagenParams, psi_m, dpsi, curv, rho, D, D2,
                             tangent=True):
    """Collagen stress and growth-consistent tangent for a batch of points.

    Takes the outputs of `collagen_psim_batch` with the densities rho and
    their sensitivities D = drho/dpsi_m and D2 = d2rho/dpsi_m2; with
    g = dpsi_m/dC = dpsi H and the chain drho/dC = D g the stress is
    S_co = 2 (rho + D psi_m) g, and the tangent one scalar per point times
    H (x) H.  The tangent is None with tangent=False.
    """
    S_co = 2.0 * (rho + D * psi_m)[..., None] * (dpsi[..., None] * p.h6)
    if not tangent:
        return S_co, None
    # a dpsi dpsi, not a dpsi**2: dpsi**2 overflows for fiber strains above
    # about 9.45 (k2 = 4), and a = 0 at frozen density
    a = D2 * psi_m + 2.0 * D
    coef = 4.0 * ((a * dpsi) * dpsi + (D * psi_m + rho) * curv)
    return S_co, coef[..., None, None] * p.hh


def textile_batch(C, p: TextileParams, tangent=True):
    """Textile energy, stress and tangent for a batch of C tensors.

    The energy is a polynomial in the shifted invariants u (see
    `_textile_monomials`).  With A the (N, 5, 6) stack of dI/dC, dpsi the
    first and P the second partials by u, S = 2 A^T dpsi and
    CC = 4 (A^T P A + dpsi_3 d2I3t/dC2 + dpsi_5 d2I5t/dC2).  All powers of
    u come from one table built by repeated multiplication, and the
    monomials, their scatter into psi, dpsi and P, and the constant
    curvatures are tables on `p`.  With tangent=False CC is None and the
    second partials are not summed.
    """
    C = np.asarray(C, dtype=float)
    lead = C.shape[:-2]
    C = C.reshape(-1, 3, 3)
    n = len(C)
    # rows of A: dI/dC = I, M1, C M1 + M1 C, M2, C M2 + M2 C
    c6 = C[:, tn.VOIGT_I, tn.VOIGT_J]
    A = np.empty((n, 5, 6))
    A[:, 0] = _I6
    A[:, 1] = p.m1_6
    A[:, 3] = p.m2_6
    A[:, 2::2] = np.einsum("nb,bk->nk", c6, p.grad_lin).reshape(n, 2, 6)
    # I1, I2t, I4t are dI/dC : C, and I3t, I5t half of it
    u = np.einsum("nva,na->nv", A, tn.VOIGT_WEIGHTS * c6) * _TEX_HALF - _TEX_SHIFT

    # u^0 .. u^emax, invariant-major so each monomial gathers whole rows;
    # a pass fills u^(k+1) .. u^(k+j) as u^1 .. u^j times u^k, doubling the
    # top power k; emax is the highest power of the seven terms, which head
    # the table
    emax = int(p.mono_pow[:, :7].max()) // 5
    upow = np.empty((emax + 1, 5, n))
    upow[0] = 1.0
    upow[1] = u.T
    k = 1
    while k < emax:
        j = min(k, emax - k)
        np.multiply(upow[1:j + 1], upow[k], out=upow[k + 1:k + j + 1])
        k += j
    upow = upow.reshape(-1, n)
    start, row = p.mono_scatter
    m = len(p.mono_coef)
    if not tangent:
        # the second partials (rows 6 on) close the table; leave them out
        k = np.searchsorted(row, 6)
        start, row, m = start[:k], row[:k], start[k]
    mono = upow[p.mono_pow[0, :m]]
    mono *= p.mono_coef[:m, None]
    mono *= upow[p.mono_pow[1, :m]]
    d = np.zeros((_TEX_ROWS, n))
    d[row] = np.add.reduceat(mono, start, axis=0)
    d = d.T.copy()
    dpsi = d[:, 1:6]
    hess = d[:, 6:].reshape(n, 5, 5)

    S = 2.0 * (dpsi[:, None] @ A)[:, 0]
    if not tangent:
        return d[:, 0].reshape(lead), S.reshape(lead + (6,)), None
    CC = A.swapaxes(1, 2) @ (hess @ A)
    CC += np.einsum("nk,kij->nij", dpsi[:, 2::2], p.curv)
    CC *= 4.0
    return d[:, 0].reshape(lead), S.reshape(lead + (6,)), CC.reshape(lead + (6, 6))


def matrix_psi_stress_tangent(C, p: MatrixParams):
    """Matrix energy density (MPa) with stress and tangent at one point."""
    psi_mu, U, S, CC, _ = matrix_batch(np.asarray(C, dtype=float)[None], p)
    return float(psi_mu[0] + U[0]), StressTangent(S[0], CC[0])


def collagen_psi_mass(C, p: CollagenParams):
    """Collagen energy per unit mass and its derivative w.r.t. C (6-vector)."""
    psi_m, dpsi, _, _ = collagen_psim_batch(np.asarray(C, dtype=float)[None], p)
    return float(psi_m[0]), dpsi[0] * p.h6


def collagen_stress(C, p: CollagenParams, rho, drho_dC, drho_dpsim=0.0, d2rho_dpsim2=0.0):
    """Collagen stress S_co = 2 (psi_m drho_dC + rho dpsim_dC) with tangent.

    `drho_dC` is the density sensitivity chained through psi_m, i.e.
    drho_dpsim * dpsim_dC, as produced by the growth update; None stands
    for that chain and a given value must match it.  The tangent is
    consistent with that chain when the scalar sensitivities drho_dpsim and
    d2rho_dpsim2 are supplied; with the defaults it is the frozen-density
    tangent.
    """
    GrowthState(rho=rho)
    psi_m, dpsi, curv, _ = collagen_psim_batch(np.asarray(C, dtype=float)[None], p)
    if drho_dC is not None:
        chain = drho_dpsim * (dpsi[0] * p.h6)
        if not np.allclose(drho_dC, chain, rtol=1e-12, atol=1e-12 * np.max(np.abs(chain))):
            raise StateError("drho_dC must equal drho_dpsim * dpsim_dC")
    S, CC = _collagen_stress_tangent(p, psi_m, dpsi, curv, rho, drho_dpsim,
                                     d2rho_dpsim2)
    return StressTangent(S[0], CC[0])


def textile_psi_stress_tangent(C, p: TextileParams):
    """Textile energy density (MPa) with stress and tangent at one point."""
    psi, S, CC = textile_batch(np.asarray(C, dtype=float)[None], p)
    return float(psi[0]), StressTangent(S[0], CC[0])


def response_batch(C, params: MaterialParams, rho_n, t, dt, pbar=None,
                   tangent=True):
    """Total stress, tangent and updated densities for a batch of points.

    `rho_n` holds the converged densities of the previous time level; with
    dt == 0 densities stay frozen, otherwise the growth update runs inside
    (bio rate at time t; it refuses a negative or non-finite dt) and the
    returned tangent is consistent with it.  `pbar` switches the matrix
    volumetric term to an externally averaged pressure (see
    `matrix_batch`).

    Returns a dict of batch arrays: S, CC, rho, drho_dpsim, psi_m,
    fiber_strain, J, psi_point (pointwise energy density: matrix shear +
    textile + collagen), U_local (pointwise matrix volumetric energy).
    With tangent=False no tangent work is done and CC is None; the other
    arrays are unchanged.
    """
    C = np.asarray(C, dtype=float)
    rho_n = np.asarray(rho_n, dtype=float)
    psi_m, dpsi, curv, E = collagen_psim_batch(C, params.collagen)
    psi_mu, U_local, S, CC, J = matrix_batch(C, params.matrix, pbar=pbar,
                                             tangent=tangent)
    psi_tex, S_tex, CC_tex = textile_batch(C, params.textile, tangent=tangent)

    if dt != 0.0:
        flat = psi_m.reshape(-1)
        rho, D, D2 = update_density_batch(rho_n.reshape(-1), flat, t, dt, params.growth)
        rho = rho.reshape(psi_m.shape)
        D = D.reshape(psi_m.shape)
        D2 = D2.reshape(psi_m.shape)
    else:
        rho = rho_n.copy()
        D = np.zeros_like(rho)
        D2 = np.zeros_like(rho)

    S_co, CC_co = _collagen_stress_tangent(params.collagen, psi_m, dpsi, curv,
                                           rho, D, D2, tangent=tangent)

    return {
        "S": S + S_tex + S_co,
        "CC": CC + CC_tex + CC_co if tangent else None,
        "rho": rho,
        "drho_dpsim": D,
        "psi_m": psi_m,
        "fiber_strain": E,
        "J": J,
        "psi_point": psi_mu + psi_tex + rho * psi_m,
        "U_local": U_local,
    }


def total_response(F, params: MaterialParams, state: GrowthState, dt, t,
                   tangent=True):
    """Coupled response at a material point for a deformation gradient F.

    Runs the density update over the step (t - dt, t] when dt > 0 and
    returns the total stress/tangent pair together with the new growth
    state.  With dt == 0 the density is frozen and the state is passed
    through unchanged.  F may also be a stack (..., 3, 3) of points;
    `state.rho` is then one density for all of them or an array over F's
    leading axes, one per point, and the stress, tangent and the fields of
    the new state are stacks over those axes.  With tangent=False the
    tangent CC is None and no tangent work is done; the stress and the state
    are those of the full evaluation bit for bit.  A deformation whose
    response overflows the float range raises DeformationError.
    """
    F = np.asarray(F, dtype=float)
    lead = F.shape[:-2]
    C = tn.right_cauchy_green(F).reshape(-1, 3, 3)
    rho_n = np.broadcast_to(np.asarray(state.rho, dtype=float), lead).reshape(-1)
    try:
        with np.errstate(over="raise"):
            out = response_batch(C, params, rho_n, t, dt, tangent=tangent)
    except FloatingPointError as exc:
        raise DeformationError("material response overflows at this "
                               "deformation") from exc
    fields = {k: out[k].reshape(lead) for k in ("rho", "drho_dpsim", "psi_m")}
    if not lead:
        fields = {k: float(v) for k, v in fields.items()}
    CC = out["CC"].reshape(lead + (6, 6)) if tangent else None
    return StressTangent(out["S"].reshape(lead + (6,)), CC), GrowthState(**fields)


def cauchy_stress(F, S):
    """Push-forward sigma = J^-1 F S F^T of a PK2 stress 6-vector."""
    F = np.asarray(F, dtype=float)
    J = tn.deformation_inv_det(F)[1]
    Smat = tn.from_voigt(S)
    sig = np.einsum("...ik,...kl,...jl->...ij", F, Smat, F) / J[..., None, None]
    return tn.to_voigt(sig)
