"""Constitutive models: isotropic matrix, dispersed collagen, textile scaffold.

All constituents are formulated in the reference configuration in terms of
the right Cauchy-Green tensor C.  Second Piola-Kirchhoff stresses follow
from S = 2 d psi / d C and tangents from CC = 4 d^2 psi / d C^2; see
`tensors` for the 6-vector and 6x6 conventions.  The kernels evaluate
those derivatives in closed form and not the energies themselves, except
the collagen energy per mass psi_m, which drives the growth.

The collagen energy is carried per unit collagen mass, so the stress term is

    S_co = 2 * (psi_m * d rho / d C + rho * d psi_m / d C)

which couples to the density update of `growth` through the sensitivity
d rho / d psi_m.  Stresses in MPa, densities in ug/mm^3, psi_m in
MPa mm^3/ug.

The batch kernels (`matrix_batch`, `collagen_psim_batch`, `textile_batch`)
are component-major: a symmetric tensor at N points is a (6, N) array of
its 6-vector components, a tangent a (36, N) array of its row-major 6x6
entries and a scalar field an (N,) array, so every array operation runs
along the contiguous point axis.  `response_batch` changes layout for the
FE and the point path: it gathers C and C^-1 from F and F^-1 and
transposes S and CC back to the (..., 6) and (..., 6, 6) of its callers,
once each.  It is the kernels' one caller: the FE assembly calls it, and
the point path through `total_response`.

The answer at a point is the same bits whatever batch it is evaluated in.
No code path depends on N, and no sum over components runs in a loop that
N selects:
- no BLAS product: `@` of a (k, N) operand is a GEMV at N = 1, which
  rounds differently from the GEMM of a larger batch, and OpenBLAS threads
  a large enough GEMM, whose idle workers then spin on the second core;
- a sum of a few component rows is a chain of elementwise adds
  (`_sum_rows`), not a reduction, which at N = 1 sums one contiguous run
  pairwise or in vector lanes;
- every `einsum` has an operand whose last axis before the points is not
  summed, so that at N = 1 numpy loops innermost over that axis and
  accumulates in the order it uses for a batch.
"""

import copy
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import tensors as tn
from .errors import DeformationError, check_range
from .growth import GrowthParams, GrowthState, update_density_batch

_I6 = tn.IDENTITY6[:, None]
_W = tn.VOIGT_WEIGHTS[:, None]
_EYE3 = np.eye(3)
FIBER_STRAIN_MAX = 10.0   # far outside any physical state
#: the collagen constants that no direction table depends on
COLLAGEN_SCALARS = ("k1", "k2", "rho_f")
#: the textile stiffness factors, in the order of `_textile_monomials`
TEXTILE_STIFFNESS = ("k1_1", "k2_1", "k1_2", "k2_2", "k_coup1", "k_coup2",
                     "k_coup_ani")
#: the textile exponents, integers from 2 to `TEXTILE_EXPONENT_MAX`
TEXTILE_EXPONENTS = ("beta1", "beta2", "gamma1", "gamma2", "delta1", "delta2", "xi")
#: the largest textile exponent, far above the published 12: the power
#: table of `textile_batch` holds 5 (max exponent + 1) rows per point, about
#: 10 MB at 32 for the 7 680 Gauss points of the 960-element strip
TEXTILE_EXPONENT_MAX = 32

# C_m = sum_k F_ki F_kj and (C^-1)_m = sum_k Finv_ik Finv_jk for the Voigt
# pair m = (i, j): the two factors as rows of [F, F^-1] flattened row-major,
# indexed (factor, k, C or C^-1, m)
_K = np.arange(3)[:, None]
_CG = np.stack([np.stack([3 * _K + tn.VOIGT_I, 9 + 3 * tn.VOIGT_I + _K], axis=1),
                np.stack([3 * _K + tn.VOIGT_J, 9 + 3 * tn.VOIGT_J + _K], axis=1)])


def _sum_rows(P, out=None):
    """Sum of the 3 or 6 rows of P by elementwise adds: 6 rows are first
    halved by adding rows 3-5 to rows 0-2, then the three are summed in
    order.

    A reduction ufunc or an `einsum` over the rows of one point runs a
    different loop than over the rows of a batch, and rounds differently;
    this does not depend on the point count.
    """
    if len(P) == 6:
        P = P[:3] + P[3:]
    out = np.add(P[0], P[1], out=out)
    out += P[2]
    return out


def _validated_copy(p, changes):
    """A shallow copy of the frozen parameter block p, sharing its tables,
    with the fields in `changes` set and checked by its `_validate`."""
    new = copy.copy(p)
    for name, value in changes.items():
        object.__setattr__(new, name, value)
    new._validate()
    return new


@dataclass(frozen=True)
class MatrixParams:
    """Compressible Neo-Hooke ground matrix; lam and mu in MPa."""

    lam: float
    mu: float

    def __post_init__(self):
        check_range({"mu": self.mu}, 0.0, "positive and finite")
        check_range({"lam": self.lam}, 0.0, "non-negative and finite", closed=True)


@dataclass(frozen=True, eq=False)
class CollagenParams:
    """Dispersed collagen fiber family with Fung-type per-mass energy.

    k1 (MPa), k2 (-) shape the exponential response, kappa in [0, 1/3] is
    the dispersion, `a` the mean fiber direction and rho_f (ug/mm^3) the
    fully mature density the energy is normalized with.  Construction
    builds H, its components h6, the (6, 1) weights hw with
    tr(C H) = sum(hw * c) and the tangent block H (x) H as a (36, 1)
    column, hh.  Only kappa and `a` enter them; `replace` keeps them when
    it changes nothing else.  k1, k2 and rho_f may be arrays, one value
    per point (see `MaterialParams`).
    """

    k1: float
    k2: float
    kappa: float
    a: np.ndarray
    rho_f: float
    H: np.ndarray = field(init=False, repr=False)
    h6: np.ndarray = field(init=False, repr=False)
    hw: np.ndarray = field(init=False, repr=False)
    hh: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._validate()
        object.__setattr__(self, "a", tn.unit_vector(self.a))
        object.__setattr__(self, "H", tn.gen_structural_tensor(self.a, self.kappa))
        object.__setattr__(self, "h6", tn.to_voigt(self.H))
        object.__setattr__(self, "hw", (tn.VOIGT_WEIGHTS * self.h6)[:, None])
        object.__setattr__(self, "hh", tn.outer6(self.h6, self.h6).reshape(36, 1))

    def _validate(self):
        # kappa and `a` are checked as H is built
        check_range({k: getattr(self, k) for k in COLLAGEN_SCALARS}, 0.0,
                    "positive and finite")

    def replace(self, **changes):
        """`dataclasses.replace(self, **changes)`, validated alike.

        Where `changes` holds k1, k2 or rho_f only, the copy keeps this
        instance's direction tables (H, h6, hw, hh); a kappa or `a` change
        rebuilds them.
        """
        if not set(changes) <= set(COLLAGEN_SCALARS):
            return dataclasses.replace(self, **changes)
        return _validated_copy(self, changes)


@dataclass(frozen=True, eq=False)
class TextileParams:
    """Orthotropic polynomial model of the knitted scaffold.

    Stiffness factors in MPa; exponents are integers >= 2 so every term has
    a continuous first derivative at the unloaded state.  n1 and n2 are the
    two yarn directions.  Construction (also by `dataclasses.replace`)
    builds the constants `textile_batch` evaluates with: the constant
    invariant gradients `grad_const` and the maps `inv_lin` (c to I1, I2t,
    I4t) and `grad_lin` (c to dI3t/dC, dI5t/dC); the monomial table of the
    energy's first two partials (`mono_*`, see `_textile_monomials` and
    `_layered`); `curv`, the constant columns of the tangent; and the
    positions among the monomial sums of dpsi (`dpsi_rows`), of the
    coefficients of `curv` (`curv_rows`) and of the second partials by u3
    and u4 (`var_rows`).  Only the coefficients `mono_coef` depend on
    the stiffness factors; `replace` keeps every other table when it
    changes nothing else.  A stiffness factor may be an array, one value
    per point (see `MaterialParams`): `mono_coef` is (M, 1) for scalar
    factors and (M, N) for N points.
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
    grad_const: np.ndarray = field(init=False, repr=False)
    inv_lin: np.ndarray = field(init=False, repr=False)
    grad_lin: np.ndarray = field(init=False, repr=False)
    mono_coef: np.ndarray = field(init=False, repr=False)
    mono_factor: np.ndarray = field(init=False, repr=False)
    mono_term: np.ndarray = field(init=False, repr=False)
    mono_pow: np.ndarray = field(init=False, repr=False)
    mono_layers: tuple = field(init=False, repr=False)
    dpsi_rows: np.ndarray = field(init=False, repr=False)
    curv_rows: np.ndarray = field(init=False, repr=False)
    var_rows: np.ndarray = field(init=False, repr=False)
    curv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._validate()
        # the exponents' range before int() sees them
        check_range({k: getattr(self, k) for k in TEXTILE_EXPONENTS}, 2,
                    f"an integer in [2, {TEXTILE_EXPONENT_MAX}]",
                    high=TEXTILE_EXPONENT_MAX, closed=True, integer=True)
        for name in TEXTILE_EXPONENTS:
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "n1", tn.unit_vector(self.n1))
        object.__setattr__(self, "n2", tn.unit_vector(self.n2))
        object.__setattr__(self, "M1", np.outer(self.n1, self.n1))
        object.__setattr__(self, "M2", np.outer(self.n2, self.n2))
        # dI/dC of I1, I2t and I4t: I, M1, M2
        grad = np.stack([tn.IDENTITY6, tn.to_voigt(self.M1), tn.to_voigt(self.M2)])
        object.__setattr__(self, "grad_const", grad)
        # I1, I2t and I4t as sum_a inv_lin[a, v] c_a
        object.__setattr__(self, "inv_lin", (grad * tn.VOIGT_WEIGHTS).T.copy())
        # dI3t/dC = C M1 + M1 C and dI5t/dC are linear in C: component k
        # of gradient v is sum_b grad_lin[b, v, k] c_b, slice b the image
        # of C = from_voigt(e_b)
        basis = tn.from_voigt(np.eye(6))
        object.__setattr__(self, "grad_lin", np.stack(
            [tn.to_voigt(basis @ M + M @ basis) for M in (self.M1, self.M2)], axis=1))
        factor, term, powers, rows = _textile_monomials(self)
        perm, order, layers = _layered(rows)
        object.__setattr__(self, "mono_factor", factor[perm])
        object.__setattr__(self, "mono_term", term[perm])
        object.__setattr__(self, "mono_pow", powers[:, perm])
        object.__setattr__(self, "mono_layers", layers)
        at = {r: i for i, r in enumerate(order)}   # output row -> its sum
        object.__setattr__(self, "dpsi_rows", np.array([at[r] for r in range(1, 6)]))
        object.__setattr__(self, "var_rows", np.array([at[24], at[30]]))
        # the tangent's constant columns, 4 times: a dyad of two constant
        # gradients, symmetrized, per second partial in I1, I2t and I4t,
        # and the curvatures d2I3t/dC2 and d2I5t/dC2 for dpsi/du_3, dpsi/du_4
        curv = {4: self.M1, 5: self.M2}
        cols, take = [], []
        for i, r in enumerate(order):
            w, v = divmod(r - 6, 5)
            if r in curv:
                M = curv[r]
                col = tn.sym_outer_product(_EYE3, M) + tn.sym_outer_product(M, _EYE3)
            elif r >= 6 and v < 3:
                col = tn.outer6(grad[w], grad[v])
                col = col + col.T if w != v else col
            else:
                continue
            cols.append(4.0 * col.ravel())
            take.append(i)
        # (k, 36), the entries last: see the module docstring on einsum
        object.__setattr__(self, "curv", np.stack(cols))
        object.__setattr__(self, "curv_rows", np.array(take))
        self._set_coef()

    def _validate(self):
        # the exponents are checked once, as the tables are built
        check_range({k: getattr(self, k) for k in TEXTILE_STIFFNESS}, 0.0,
                    "non-negative and finite", closed=True)

    def _set_coef(self):
        # (7, 1) for scalar factors, (7, N) where some hold one per point
        k = np.broadcast_arrays(*(np.asarray(getattr(self, name), dtype=float)
                                  for name in TEXTILE_STIFFNESS))
        k = np.reshape(k, (len(k), -1))
        object.__setattr__(self, "mono_coef",
                           self.mono_factor[:, None] * k[self.mono_term])

    def replace(self, **changes):
        """`dataclasses.replace(self, **changes)`, validated alike.

        Where `changes` holds stiffness factors only, the copy keeps this
        instance's direction and exponent tables and recomputes `mono_coef`
        alone; any other change rebuilds every table.
        """
        if not set(changes) <= set(TEXTILE_STIFFNESS):
            return dataclasses.replace(self, **changes)
        new = _validated_copy(self, changes)
        new._set_coef()
        return new


# u = I - _TEX_SHIFT with I the five invariants
_TEX_SHIFT = np.array([3.0, 1.0, 1.0, 1.0, 1.0])[:, None]


def _textile_monomials(p):
    """Monomial table of the first two partials of the textile energy.

    In the shifted invariants u = (I1 - 3, I2t - 1, I4t - 1, I3t - 1,
    I5t - 1), the three with constant gradients first, the energy is a sum
    of seven monomials f k u_a^ea u_b^eb, with eb = 0 for a term in one
    invariant.  Differentiating by u_a lowers ea by one and multiplies f by
    it, so the partials are monomials of the same form.  Returns the
    factors f, the index k of each monomial's stiffness factor in
    `TEXTILE_STIFFNESS` (its coefficient is f times that factor), the rows
    5 ea + a and 5 eb + b of the two factors in the power table
    u^e_v (2, M), and each monomial's output row (dpsi/du_v 1 + v,
    d2psi/du_w du_v 6 + 5 w + v for w <= v; row 0 would be psi, which is
    differentiated but not tabled), sorted by row; within a row the seven
    terms keep their order.  Only the exponents enter the table.  I3t and
    I5t enter one term each, so no second partial pairs them with another
    invariant.
    """
    terms = [  # (k, a, ea, b, eb), k indexing TEXTILE_STIFFNESS
        (0, 1, p.beta1, 0, 0),
        (1, 3, p.beta2, 0, 0),
        (2, 2, p.gamma1, 0, 0),
        (3, 4, p.gamma2, 0, 0),
        (4, 0, p.delta1, 1, p.delta1),
        (5, 0, p.delta2, 2, p.delta2),
        (6, 1, p.xi, 2, p.xi),
    ]
    level = [(1, k, a, ea, b, eb, 0) for k, a, ea, b, eb in terms]
    table = []
    # the partial by u_v of a monomial in row r lands in row
    # base + 5 (r - prev) + v: psi (row 0) feeds rows 1 + v, and
    # dpsi/du_w (row 1 + w) feeds rows 6 + 5 w + v, kept for w <= v
    for base, prev in ((1, 0), (6, 1)):
        nxt = []
        for f, k, a, ea, b, eb, r in level:
            w = r - prev
            if ea and w <= a:
                nxt.append((f * ea, k, a, ea - 1, b, eb, base + 5 * w + a))
            if eb and w <= b:
                nxt.append((f * eb, k, a, ea, b, eb - 1, base + 5 * w + b))
        level = sorted(nxt, key=lambda m: m[-1])
        table += level
    factor = np.array([m[0] for m in table], dtype=float)
    term = np.array([m[1] for m in table])
    powers = np.array([(5 * ea + a, 5 * eb + b) for _, _, a, ea, b, eb, _ in table]).T
    rows = np.array([m[6] for m in table])
    return factor, term, powers, rows


def _layered(rows):
    """Order of a monomial table that sums its rows with a few slice adds.

    `rows` gives each monomial's output row, in table order.  The sums are
    placed by their number of monomials, most first (ties by row), and the
    j-th monomial of every row forms layer j, sorted the same way, so the
    rows with a j-th monomial are the first ones: layer 0 initializes the
    sums, and layer j >= 1 adds into a leading slice of them, each row
    summing its monomials in table order.  Returns the permutation of the
    table, the output row of each sum, and per layer the slices of the
    sums it adds into and of its monomials in the permuted table.
    """
    rows = rows.tolist()
    count, rank = {}, []
    for r in rows:
        rank.append(count.get(r, 0))
        count[r] = rank[-1] + 1
    order = sorted(count, key=lambda r: (-count[r], r))
    at = {r: i for i, r in enumerate(order)}
    perm = sorted(range(len(rows)), key=lambda i: (rank[i], at[rows[i]]))
    layers, start = [], 0
    for j in range(max(rank) + 1):
        size = rank.count(j)
        layers.append((slice(0, size), slice(start, start + size)))
        start += size
    return np.array(perm), order, tuple(layers)


#: the constants a bundle may hold one per point, by block (see `MaterialParams`)
PER_POINT = {"collagen": COLLAGEN_SCALARS, "textile": TEXTILE_STIFFNESS}


@dataclass(frozen=True)
class MaterialParams:
    """Bundle of all constituent parameters of a material point.

    The collagen k1, k2 and rho_f and the textile stiffness factors
    (`PER_POINT`) may each be an array instead, one value per point of
    the batch the bundle is evaluated on, as a calibration's stack of
    trial constants is: the kernels broadcast them along the point axis,
    the textile's through an (M, N) `mono_coef`, and each point gets the
    bits of the bundle of its own scalars.  Every other constant is one
    for all points.  `at_points` takes such a bundle to some of its
    points.  The FE path passes scalars.
    """

    matrix: MatrixParams
    collagen: CollagenParams
    textile: TextileParams
    growth: GrowthParams


def at_points(params: MaterialParams, idx) -> MaterialParams:
    """The bundle at the points `idx` (an index array or a slice) of a
    batch: each per-point constant of `params` indexed by `idx`.  A bundle
    of scalars is returned as it is."""
    kw = {}
    for block, names in PER_POINT.items():
        old = getattr(params, block)
        fields = {k: getattr(old, k)[idx] for k in names if np.ndim(getattr(old, k))}
        if fields:
            kw[block] = old.replace(**fields)
    return dataclasses.replace(params, **kw) if kw else params


@dataclass(eq=False)
class StressTangent:
    """Second Piola-Kirchhoff stress (6-vector) and 6x6 material tangent."""

    S: np.ndarray
    CC: np.ndarray


def matrix_batch(c, ci, J, p: MatrixParams, pbar=None, tangent=True):
    """Matrix stress and tangent for a batch of C tensors.

    The energy is mu/2 (I1 - 3) - mu ln J + U(J), with the volumetric law
    U(J) = lam/4 (J^2 - 1 - 2 ln J).  Takes the (6, N) components c of C
    and ci of C^-1 with J = sqrt(det C), (N,), from a caller that has
    checked the deformation; nothing is inverted or checked here.  The
    volumetric stress is p J C^-1.  With `pbar=None` p = U'(J) pointwise
    and the tangent has the bulk block J^2 U''(J) C^-1 (x) C^-1.
    Otherwise p = `pbar` (N,), the (element-mean) U'(Jbar), and the caller
    owns the element-level coupling.

    Returns (S (6, N), CC (36, N)); CC is None with tangent=False.
    """
    pv = volumetric_pressure(J, p) if pbar is None else np.asarray(pbar, dtype=float)
    pJ = pv * J

    S = p.mu * (_I6 - ci) + pJ * ci
    if not tangent:
        return S, None
    # CC = 2 (mu - p J) C^-1 (.) C^-1 + w C^-1 (x) C^-1, w = p J plus the
    # bulk term J^2 U''(J) where p is pointwise; C^-1 (.) C^-1 is half the
    # sum of two gathers of ci (x) ci, and the half and the 2 cancel exactly
    outer = (ci[:, None] * ci).reshape(36, -1)
    CC = outer.take(tn.SYM_OUTER[0], axis=0)
    CC += outer.take(tn.SYM_OUTER[1], axis=0)
    CC *= p.mu - pJ
    w = pJ if pbar is not None else pJ + J**2 * volumetric_modulus(J, p)
    CC += ((w * ci)[:, None] * ci).reshape(36, -1)
    return S, CC


def volumetric_pressure(J, p: MatrixParams):
    """U'(J) = lam/2 (J - 1/J), the pressure conjugate to J."""
    J = np.asarray(J, dtype=float)
    return 0.5 * p.lam * (J - 1.0 / J)


def volumetric_modulus(J, p: MatrixParams):
    """U''(J) = lam/2 (1 + 1/J^2)."""
    J = np.asarray(J, dtype=float)
    return 0.5 * p.lam * (1.0 + 1.0 / J**2)


def collagen_psim_batch(c, p: CollagenParams):
    """Per-mass collagen energy and its derivatives by the fiber strain E.

    Takes the (6, N) components c of C; E = tr(C H) - 1 is the Green-type
    strain of the mean fiber stretch.  Tension-only: everything vanishes
    for mean fiber stretches below 1.  E past FIBER_STRAIN_MAX, where the
    exponential would overflow, raises DeformationError.  Returns (psi_m,
    dpsi_m/dE, d2psi_m/dE2, E), each (N,).
    """
    E = _sum_rows(p.hw * c) - 1.0
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
    """Collagen stress (6, N) and growth-consistent tangent (36, N).

    Takes the outputs of `collagen_psim_batch` with the densities rho and
    their sensitivities D = drho/dpsi_m and D2 = d2rho/dpsi_m2; with
    g = dpsi_m/dC = dpsi H and the chain drho/dC = D g the stress is
    S_co = 2 (rho + D psi_m) g, and the tangent one scalar per point times
    H (x) H.  The tangent is None with tangent=False.
    """
    S_co = 2.0 * (rho + D * psi_m) * (dpsi * p.h6[:, None])
    if not tangent:
        return S_co, None
    # a dpsi dpsi, not a dpsi**2: dpsi**2 overflows for fiber strains above
    # about 9.45 (k2 = 4), and a = 0 at frozen density
    a = D2 * psi_m + 2.0 * D
    coef = 4.0 * ((a * dpsi) * dpsi + (D * psi_m + rho) * curv)
    return S_co, coef * p.hh


def _textile_sums(c, lin, p: TextileParams):
    """The monomial sums of the textile energy's partials at the
    (6, N) components c of C, with lin the (2, 6, N) gradients dI3t/dC and
    dI5t/dC: an (R, N) array, its rows in the order `_layered` gives them.
    The power table is freed on return."""
    n = c.shape[1]
    # u^0 .. u^emax, invariant-major so each monomial gathers whole rows; a
    # pass fills u^(k+1) .. u^(k+j) as u^1 .. u^j times u^k, doubling the
    # top power k; emax is the highest power in the table
    emax = int(p.mono_pow.max()) // 5
    upow = np.empty((emax + 1, 5, n))
    upow[0] = 1.0
    u = upow[1]
    # I1, I2t, I4t are linear in C, and I3t, I5t half of dI/dC : C
    np.einsum("av,an->vn", p.inv_lin, c, out=u[:3])
    _sum_rows((lin * (_W * c)).swapaxes(0, 1), out=u[3:])
    u[3:] *= 0.5
    u -= _TEX_SHIFT
    k = 1
    while k < emax:
        j = min(k, emax - k)
        np.multiply(upow[1:j + 1], upow[k], out=upow[k + 1:k + j + 1])
        k += j
    upow = upow.reshape((emax + 1) * 5, n)
    mono = upow.take(p.mono_pow[0], axis=0)
    mono *= p.mono_coef
    mono *= upow.take(p.mono_pow[1], axis=0)
    # layer 0 is one monomial per sum; the others add into leading sums
    d = mono[p.mono_layers[0][1]]
    for sums, layer in p.mono_layers[1:]:
        d[sums] += mono[layer]
    return d


def textile_batch(c, p: TextileParams, tangent=True):
    """Textile stress and tangent for a batch of C tensors.

    Takes the (6, N) components c of C.  The energy is a polynomial in the
    shifted invariants u (see `_textile_monomials`).  With A the (5, 6, N)
    stack of dI/dC, dpsi the first and P the second partials by u (indices
    in the order of u), S = 2 A^T dpsi and CC = 4 (A^T P A +
    dpsi_3 d2I3t/dC2 + dpsi_4 d2I5t/dC2).  All powers of u come from one
    table built by repeated multiplication; the monomials and their sums
    into dpsi and P are tables on `p` (see `_layered`).  Rows 0-2 of A
    are constant, so every term of CC but P_33 and P_44 is a constant
    column of `p.curv` times a partial; those two are per-point dyads of
    the rows linear in C.  Returns (S (6, N), CC (36, N)); CC is None with
    tangent=False, and the second partials are then summed but not used.
    """
    n = c.shape[1]
    # rows of A: dI/dC = I, M1, M2, C M1 + M1 C, C M2 + M2 C
    A = np.empty((5, 6, n))
    A[:3] = p.grad_const[..., None]
    lin = np.einsum("bvk,bn->vkn", p.grad_lin, c, out=A[3:])
    d = _textile_sums(c, lin, p)
    S = np.einsum("vn,van->an", d.take(p.dpsi_rows, axis=0), A)
    S *= 2.0
    if not tangent:
        return S, None
    CC = np.einsum("kc,kn->cn", p.curv, d.take(p.curv_rows, axis=0))
    dyad = (4.0 * d.take(p.var_rows, axis=0))[:, None] * lin
    CC += np.einsum("van,vbn->abn", dyad, lin).reshape(36, n)
    return S, CC


def _cauchy_green(F, Finv, n):
    """The (6, N) components of C = F^T F and C^-1 = F^-1 F^-T, each a sum
    of three products of rows of F and F^-1."""
    X = np.empty((18, n))
    X[:9] = F.reshape(n, 9).T
    X[9:] = Finv.reshape(n, 9).T
    P = X.take(_CG[0], axis=0)
    P *= X.take(_CG[1], axis=0)
    return _sum_rows(P)


def response_batch(F, Finv, J, params: MaterialParams, rho_n, t, dt,
                   pbar=None, tangent=True):
    """Total stress, tangent and updated densities for a batch of points.

    F is a stack (..., 3, 3) of deformation gradients, and Finv and J = det F
    come from the caller's one `tensors.deformation_inv_det(F)`; nothing
    here inverts or checks a deformation again.  The components of
    C = F^T F and C^-1 = F^-1 F^-T are gathered from them, component-major,
    and every kernel runs on those (see the module docstring).  `rho_n`
    holds the converged densities of the previous time level, one per point
    over F's leading axes.  The growth update runs inside
    (`update_density_batch`, bio rate at time t; it refuses a negative or
    non-finite dt and keeps the densities frozen at dt == 0) and the
    returned tangent is consistent with it.  `pbar` switches the matrix
    volumetric term to an externally averaged pressure that broadcasts
    against J (see `matrix_batch`).  A deformation whose response overflows
    the float range raises DeformationError.  The answer at a point does
    not depend on the other points of the batch, bit for bit.

    Returns a dict of arrays over F's leading axes: S, CC, rho, psi_m and
    fiber_strain.  With tangent=False no tangent work is done and CC is
    None; the other arrays are unchanged.
    """
    lead = F.shape[:-2]
    n = F.size // 9
    J = J.reshape(n)
    rho_n = np.ravel(rho_n)
    if pbar is not None:
        pbar = np.broadcast_to(pbar, lead).reshape(n)
    try:
        with np.errstate(over="raise"):
            c, ci = _cauchy_green(F, Finv, n)
            psi_m, dpsi, curv, E = collagen_psim_batch(c, params.collagen)
            # the textile first, so that the tangent buffer it returns is
            # the only (36, N) array alive through its peak; adding the
            # matrix terms into it gives the bits of the reverse order
            S, CC = textile_batch(c, params.textile, tangent=tangent)
            S_mat, CC_mat = matrix_batch(c, ci, J, params.matrix, pbar=pbar,
                                         tangent=tangent)
            rho, D, D2 = update_density_batch(rho_n, psi_m, t, dt, params.growth)
            S_co, CC_co = _collagen_stress_tangent(params.collagen, psi_m, dpsi,
                                                   curv, rho, D, D2,
                                                   tangent=tangent)
            S += S_mat
            S += S_co
            if tangent:
                CC += CC_mat
                CC += CC_co
                CC = np.ascontiguousarray(CC.T).reshape(lead + (6, 6))
    except FloatingPointError as exc:
        raise DeformationError("material response overflows at this "
                               "deformation") from exc
    return {
        "S": np.ascontiguousarray(S.T).reshape(lead + (6,)),
        "CC": CC,
        "rho": rho.reshape(lead),
        "psi_m": psi_m.reshape(lead),
        "fiber_strain": E.reshape(lead),
    }


def total_response(F, params: MaterialParams, state: GrowthState, dt, t,
                   tangent=True):
    """Coupled response at a material point for a deformation gradient F.

    Runs the density update over the step (t - dt, t] when dt > 0 and
    returns the total stress/tangent pair together with the new growth
    state.  With dt == 0 the density is frozen: the new state keeps
    `state.rho` but carries this deformation's psi_m, not the input
    state's.  F may also be a stack (..., 3, 3) of points;
    `state.rho` is then one density for all of them or an array over F's
    leading axes, one per point, and the stress, tangent and the fields of
    the new state are stacks over those axes.  With tangent=False the
    tangent CC is None and no tangent work is done; the stress and the state
    are those of the full evaluation bit for bit.  F is checked once, by
    `tensors.deformation_inv_det`, and a deformation whose response
    overflows the float range raises DeformationError (`response_batch`).
    """
    F = np.asarray(F, dtype=float)
    lead = F.shape[:-2]
    F = F.reshape(-1, 3, 3)
    Finv, J = tn.deformation_inv_det(F)
    rho_n = np.full(lead, state.rho, dtype=float).reshape(-1)
    out = response_batch(F, Finv, J, params, rho_n, t, dt, tangent=tangent)
    fields = {k: out[k].reshape(lead) for k in ("rho", "psi_m")}
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
