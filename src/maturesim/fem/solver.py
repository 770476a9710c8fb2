"""Total-Lagrangian Newton solver and maturation marching.

The model couples the hyperelastic composite response with the collagen
density evolution: every assembly runs the local density update at each
Gauss point for the trial displacements, and the converged densities are
committed only when a time step is accepted.  Near-incompressibility of the
matrix is handled with an element-wise mean dilatation: the volumetric
pressure is evaluated at the volume-averaged Jacobian, which adds a
rank-one element stiffness term.

Pressure loads follow the deformed surface by default, so the global
tangent picks up an (unsymmetric) load-stiffness contribution.

The sparsity pattern of the reduced tangent depends only on the mesh, the
Dirichlet dofs and the follower-load faces, so `FemModel` builds it once at
construction, in CSC form, together with a scatter map from every dense
element and load-block entry to its slot in the CSC `data`.  Each assembly
then fills `data` with one `bincount` and wraps it; nothing is sorted.
The model also builds the strain operator of `el.b_matrices` once, so a
tangent assembly forms B with one batched product.  Its element block is
summed in place: the material block, then the geometric blocks added into
it by `el.geometric_stiffness`, then the mean-dilatation rank-one block.

A residual-only assembly (`tangent=False`) skips every tangent term, from
the constitutive CC blocks and the strain-displacement matrices B to the
scatter, and returns the residual and state fields bit for bit as the full
assembly does: the internal forces come from the first Piola-Kirchhoff
stress and the weighted reference gradients, never from B.  The Newton
solver uses it for line-search trials, so it assembles a tangent only
where it factors one.

Every linear solve, Newton's and the ramp's, goes through one function,
`_solve_reduced`, and no other code factors a matrix.  Given an LU factor
of a nearby matrix it first solves by GMRES preconditioned with that
factor (`_krylov_solve`); otherwise, or when GMRES gives up, it factors
the reduced system with a fill-reducing minimum-degree ordering and no
pivoting, and falls back to scipy's default factorization when that
fails.  The ramp factors every solve afresh.  A maturation march keeps
one factor across its growth steps (`_KeptFactor`): consecutive growth
tangents differ little, so a factor made at one step's start serves the
next steps' Newton solves until GMRES needs many steps with it, and it is
refreshed only between steps.

The one march loop is the generator `march_steps`: it starts from a ramp
end that `ramp_pressure` computed, possibly for another model on the same
mesh and load, checks that start on its own model, then advances the
growth one accepted step at a time and yields each step's record and
state once the step is committed.  `march_maturation` ramps its model and
collects that march in a list.

scipy loads with the first `FemModel`, not with this module: the package,
its point and calibration paths and the commands `fit`, `matpoint`, `grow`
and `--version` use numpy alone and never import it.  The model's
constructor imports `scipy.sparse.linalg`, `assemble` and `ramp_pressure`
import the `scipy.sparse` names they use, and `splu` is this module's own
function, which imports scipy's in its body, so that a stand-in set on the
module before scipy loads stays the one `_solve_reduced` calls.
"""

import copy
import ctypes
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import DeformationError, MeshError, SolverError, check_range
from ..materials import (MaterialParams, cauchy_stress, response_batch,
                         volumetric_modulus, volumetric_pressure)
from ..tensors import deformation_inv_det
from . import elements as el
from .mesh import Mesh, strip_mesh

RESIDUAL_TOL = 1e-8       # N, infinity norm over free dofs
NEWTON_MAXIT = 25
PSEUDO_MAXIT = 600        # damped iterations of the pseudo-transient ramp
LINESEARCH_CUTS = 8
STEP_MIN = 1e-8           # day, growth marching gives up below this
UPHILL_DAMPING = 0.7      # ramp damping factor after an accepted uphill step

# The reduced tangent is structurally symmetric, and symmetric but for the
# follower-load stiffness: minimum degree on A^T + A orders it with less
# fill than scipy's default COLAMD (181 296 against 216 590 L+U entries for
# the first growth step of the 240-element strip), and its diagonal is
# taken as pivot without a search.  A factorization that fails this way is redone with scipy's
# defaults (COLAMD, partial pivoting); see `_solve_reduced`.
LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
              "options": {"SymmetricMode": True}}

# GMRES with a kept factor (see `_krylov_solve`): a solve is done once its
# true residual is this far below Newton's tolerance, and gives up on the
# factor after REFINE_SWEEPS Krylov steps, each of which solves with the
# factor once.  A growth step any of whose solves needed REFRESH_SWEEPS
# steps or gave up has the factor refreshed after it.
REFINE_TOL = 1e-2 * RESIDUAL_TOL
REFINE_SWEEPS = 8
REFRESH_SWEEPS = 6

# glibc's malloc_trim, which hands the free pages of the C heap back to
# the OS; None where the C library has none.  SuperLU reserves about 44 MB
# of address space per factor of the 240-element strip's tangent and
# touches 2 MB of it.  A factor that outlives the allocations around it
# leaves its touched pages inside the heap when it is freed, where glibc
# does not trim them, so with each refresh of the kept factor other
# allocations dirtied more of the heap: the first-round peak RSS of the
# benchmark's strip march spread over 81-92 MB, against 83-86 MB with a
# fresh factor per solve.  Trimming once the old factor is freed keeps it
# at 81-85 MB (2-core VM, glibc 2.36).
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


@dataclass(frozen=True)
class Dirichlet:
    """Prescribed displacement components on a node set.

    `value` is a constant (scalar or 3-vector) or a callable mapping node
    coordinates (m, 3) to displacements (m, 3); only the axes listed in
    `dofs`, each 0, 1 or 2, are constrained.  `FemModel` raises MeshError
    for any other axis.
    """

    node_set: str
    dofs: tuple = (0, 1, 2)
    value: object = 0.0


@dataclass(frozen=True)
class PressureLoad:
    """Uniform pressure on a face set, in MPa.

    Positive pressure pushes against the outward face normal.  Follower
    loads act on the deformed surface and contribute load stiffness; with
    `follower=False` the load is a dead one: `assemble` evaluates its
    traction on the reference geometry at every call, and it adds no
    stiffness.
    """

    face_set: str
    pressure: float
    follower: bool = True


@dataclass(frozen=True)
class StepRecord:
    """One accepted step of a maturation march."""

    time: float
    deflection: float      # max |u_z| over all nodes, mm
    rho_mean: float        # volume-weighted Gauss point mean, ug/mm^3
    rho_max: float
    newton_iters: int      # linear solves, one per Newton iteration
    cutbacks: int = 0      # step halvings before the step was accepted


class FemModel:
    """Mesh, material, boundary conditions and Gauss-point growth state.

    The tangent's CSC pattern, its scatter map and the strain operator of
    B are fixed at construction; `assemble` only computes the values.
    Those arrays and the other mesh-only ones named in `FIXED` are
    read-only, and a deep copy shares them; it copies everything else, the
    densities and strain maxima among it.
    """

    #: arrays fixed at construction, read-only and shared by deep copies
    FIXED = ("dNdX", "wdet", "V0", "wdNdX", "strain_op", "dofmap",
             "_slot", "_indptr", "_indices")

    def __init__(self, mesh: Mesh, params: MaterialParams,
                 dirichlet=(), loads=()):
        # scipy's sparse LU loads as part of building the first model, not
        # with this module, nor later with the first solve
        import scipy.sparse.linalg  # noqa: F401
        self.mesh = mesh
        self.params = params
        self.conn = mesh.hex8
        self.n_dof = 3 * mesh.n_nodes

        self.dNdX, self.wdet, self.V0 = el.reference_gradients(mesh.nodes[self.conn])
        self.wdNdX = el.weighted_gradients(self.dNdX, self.wdet)
        self.strain_op = el.strain_operator(self.dNdX)
        self.dofmap = (3 * self.conn[:, :, None] + np.arange(3)).reshape(-1, 24)

        fixed = np.zeros(self.n_dof, dtype=bool)
        values = np.zeros(self.n_dof)
        for bc in dirichlet:
            if bc.node_set not in mesh.node_sets:
                raise MeshError(f"unknown node set '{bc.node_set}'")
            ids = mesh.node_sets[bc.node_set]
            if callable(bc.value):
                vals = np.asarray(bc.value(mesh.nodes[ids]), dtype=float)
                if vals.shape != (len(ids), 3):
                    raise MeshError("Dirichlet callable must return (m, 3)")
            else:
                vals = np.broadcast_to(np.asarray(bc.value, dtype=float),
                                       (len(ids), 3))
            dofs = np.asarray(bc.dofs)
            check_range({f"Dirichlet dofs on '{bc.node_set}'": dofs}, 0, "0, 1 or 2",
                        high=2, closed=True, integer=True, error=MeshError)
            for ax in dofs.astype(int):
                fixed[3 * ids + ax] = True
                values[3 * ids + ax] = vals[:, ax]
        self.fixed = fixed
        self.fixed_values = values
        self.free_idx = np.flatnonzero(~fixed)
        reduced = np.full(self.n_dof, -1, dtype=int)
        reduced[self.free_idx] = np.arange(len(self.free_idx))
        self._reduced = reduced

        self.loads = []
        blocks = [self.dofmap]
        for load in loads:
            if load.face_set not in mesh.face_sets:
                raise MeshError(f"unknown face set '{load.face_set}'")
            fnodes = mesh.face_nodes(load.face_set)
            fdofs = (3 * fnodes[:, :, None] + np.arange(3)).reshape(-1, 12)
            self.loads.append((load, fnodes, fdofs))
            if load.follower:
                blocks.append(fdofs)
        self._build_pattern(blocks)

        egrid = (len(self.conn), self.wdet.shape[1])
        self.rho = np.zeros(egrid)
        self.hist_strain = np.zeros(egrid)    # running max fiber strain
        # every K shares the CSC pattern too; it is canonical (sorted, no
        # duplicates), so scipy has no reason to write to it
        for name in self.FIXED:
            getattr(self, name).flags.writeable = False

    def __deepcopy__(self, memo):
        """A copy that shares the `FIXED` arrays and owns all the rest."""
        for name in self.FIXED:
            fixed = getattr(self, name)
            memo[id(fixed)] = fixed
        twin = object.__new__(type(self))
        memo[id(self)] = twin
        twin.__dict__.update(copy.deepcopy(self.__dict__, memo))
        return twin

    def _build_pattern(self, blocks):
        """CSC pattern of the reduced tangent and the slot of every entry.

        `blocks` lists the dof maps (m, n) whose dense (m, n, n) blocks
        `assemble` scatters, in that order: the elements, then each follower
        load.  Entry (row, col) of the reduced matrix is keyed col*nf + row,
        so the sorted unique keys are the CSC `indices`/`indptr`, and the
        inverse map gives each block entry its position in `data`.  Entries
        in a fixed row or column get the key nf*nf, which sorts after every
        real one, so they share one trailing slot that is dropped.
        """
        nf = len(self.free_idx)
        keys = []
        for dofs in blocks:
            r = self._reduced[dofs][:, :, None]
            c = self._reduced[dofs][:, None, :]
            keys.append(np.where((r >= 0) & (c >= 0), c * nf + r, nf * nf).ravel())
        uniq, self._slot = np.unique(np.concatenate(keys), return_inverse=True)
        self._indptr = np.searchsorted(uniq, nf * np.arange(nf + 1)).astype(np.int32)
        self._nnz = int(self._indptr[-1])
        self._indices = (uniq[:self._nnz] % nf).astype(np.int32)

    # -- assembly -----------------------------------------------------------

    def assemble(self, u, t, dt, tangent=True):
        """Residual, reduced tangent and state fields at displacements u.

        Returns (R, K, aux): R is the full residual (internal minus external
        forces, reactions at fixed dofs), K the tangent restricted to free
        dofs, and aux the Gauss-point fields needed to commit or postprocess
        the state.  With tangent=False K is None and none of its terms are
        computed; R and aux are the same bits either way.  Raises if an
        element inverts, a fiber strain leaves the range of the collagen law,
        the material response overflows or the density update fails.
        """
        u = np.asarray(u, dtype=float).reshape(-1)
        ue = u.reshape(-1, 3)[self.conn]
        F = el.deformation_gradients(ue, self.dNdX)
        Finv, J = deformation_inv_det(F)
        mat = self.params.matrix
        Jbar = el.mean_dilatation(J, self.wdet, self.V0)
        pbar = volumetric_pressure(Jbar, mat)
        resp = response_batch(F, Finv, J, self.params, self.rho, t, dt,
                              pbar=pbar[:, None], tangent=tangent)
        S6 = resp["S"]

        fint = el.internal_forces(F, S6, self.wdNdX)
        R = np.bincount(self.dofmap.ravel(), weights=fint.ravel(),
                        minlength=self.n_dof)

        fext = np.zeros(self.n_dof)
        load_blocks = []
        for load, fnodes, fdofs in self.loads:
            xf = self.mesh.nodes[fnodes]
            if load.follower:
                xf = xf + u.reshape(-1, 3)[fnodes]
            f, Kl = el.face_pressure(xf, load.pressure, tangent=tangent)
            np.add.at(fext, fdofs.ravel(), f.ravel())
            if load.follower and tangent:
                # R = fint - fext, so the load stiffness enters negated
                load_blocks.append(-Kl.ravel())
        R -= fext

        K = None
        if tangent:
            B = el.b_matrices(F, self.strain_op)
            Ke = el.material_stiffness(B, resp["CC"], self.wdet)
            el.geometric_stiffness(S6, self.dNdX, self.wdet, Ke)
            G = el.volume_gradient(Finv, J, self.dNdX, self.wdet)
            kvol = volumetric_modulus(Jbar, mat) / self.V0
            Ke += kvol[:, None, None] * G[:, :, None] * G[:, None, :]
            data = np.bincount(self._slot,
                               weights=np.concatenate([Ke.ravel()] + load_blocks),
                               minlength=self._nnz + 1)[:self._nnz]
            from scipy.sparse import csc_matrix
            nf = len(self.free_idx)
            K = csc_matrix((data, self._indices, self._indptr), shape=(nf, nf))

        aux = {
            "rho": resp["rho"],
            "fiber_strain": resp["fiber_strain"],
            "S": S6,
            "F": F,
            "residual": R,
            "fext": fext,
        }
        return R, K, aux

    # -- solving ------------------------------------------------------------

    def _try_assemble(self, u, t, dt, tangent=True):
        """Assemble at u and measure its residual: the one test of whether
        an iterate is feasible.

        Returns (rnorm, (R, K, aux)), rnorm the infinity norm of R over the
        free dofs, or (inf, err) when assembling raises the DeformationError
        or SolverError err: an element inverts, a fiber strain leaves the
        collagen law's range or the density update fails.  Every caller that
        treats such an iterate as a rejected trial goes through here.
        """
        try:
            R, K, aux = self.assemble(u, t, dt, tangent=tangent)
        except (DeformationError, SolverError) as err:
            return np.inf, err
        return np.abs(R[self.free_idx]).max(initial=0.0), (R, K, aux)

    def _feasible_start(self, candidates, t, dt, tangent=True):
        """The first of `candidates` that is feasible (see `_try_assemble`)
        once the Dirichlet values are imposed on a copy of it.

        Returns (u, rnorm, (R, K, aux)) of that start, K None without
        `tangent`; where no candidate is feasible, raises the last one's
        error.
        """
        for u in candidates:
            u = np.asarray(u, dtype=float).copy()
            u[self.fixed] = self.fixed_values[self.fixed]
            rnorm, out = self._try_assemble(u, t, dt, tangent=tangent)
            if not isinstance(out, Exception):
                return u, rnorm, out
        raise out

    def solve_step(self, u, t, dt, tol=RESIDUAL_TOL, guess=None, kept=None):
        """Newton solve of one step; returns (u, aux, iterations).

        `u` is the last converged displacement.  Newton starts at `guess`
        when one is given, unless it is infeasible (see `_feasible_start`):
        then it starts at `u`, so a guess outside the feasible range costs
        one assembly, not a cutback; where `u` is infeasible too, its error
        is raised.  Every iteration assembles the tangent once and solves
        with it once through `_solve_reduced`; its line-search trials
        assemble the residual alone, and the tangent is assembled at the
        accepted trial only when another iteration follows.  The iteration
        count is the number of linear solves.  `kept` is the `_KeptFactor`
        of a march, whose factor preconditions the solves; without one
        each solve factors its tangent afresh.  The incoming state
        (previous densities) is left untouched; call `commit(aux)` once
        the step is accepted.
        """
        u, rnorm, (R, K, aux) = self._feasible_start(
            [u] if guess is None else [guess, u], t, dt)
        kept = _KeptFactor() if kept is None else kept
        kept.start_step()
        stalled = 0
        for it in range(NEWTON_MAXIT):
            if rnorm < tol:
                return u, aux, it
            du = kept.solve(K, -R[self.free_idx], iteration=it, residual=rnorm)
            alpha = 1.0
            for _ in range(LINESEARCH_CUTS):
                u_try = u.copy()
                u_try[self.free_idx] += alpha * du
                # an infeasible trial has rn2 = inf and is cut like one
                # that fails to reduce the residual
                rn2, out = self._try_assemble(u_try, t, dt, tangent=False)
                if rn2 < rnorm or rn2 < tol:
                    # without a decent reduction rate Newton is only creeping
                    # along a bending-to-membrane transition; give up early
                    # so the caller can cut the increment
                    stalled = stalled + 1 if rn2 > 0.99 * rnorm else 0
                    u, (R, _, aux), rnorm = u_try, out, rn2
                    break
                alpha *= 0.5
            else:
                raise SolverError("line search failed to reduce the residual",
                                  iteration=it, residual=rnorm)
            if stalled >= 3:
                raise SolverError("Newton stagnated", iteration=it,
                                  residual=rnorm)
            if rnorm >= tol and it + 1 < NEWTON_MAXIT:
                K = self.assemble(u, t, dt)[1]
        if rnorm < tol:
            return u, aux, NEWTON_MAXIT
        raise SolverError("Newton did not converge", residual=rnorm,
                          iterations=NEWTON_MAXIT)

    def commit(self, aux):
        """Accept a converged step: densities and the fiber strain maxima."""
        self.rho = aux["rho"].copy()
        self.hist_strain = np.maximum(self.hist_strain, aux["fiber_strain"])

    # -- postprocessing ------------------------------------------------------

    def record(self, time, u, aux, iters, cutbacks=0):
        uz = np.abs(np.asarray(u).reshape(-1, 3)[:, 2])
        w = self.wdet
        return StepRecord(time=float(time), deflection=float(uz.max()),
                          rho_mean=float((w * aux["rho"]).sum() / w.sum()),
                          rho_max=float(aux["rho"].max()),
                          newton_iters=int(iters), cutbacks=int(cutbacks))

    def element_density(self, rho):
        """Volume-weighted element means of a Gauss density field rho."""
        return (self.wdet * rho).sum(axis=1) / self.V0

    def cell_cauchy(self, aux):
        """Element-mean Cauchy stress 6-vectors from a converged aux."""
        sig = cauchy_stress(aux["F"], aux["S"])
        return (self.wdet[..., None] * sig).sum(axis=1) / self.V0[:, None]


def ramp_pressure(model: FemModel):
    """Bring the loads and prescribed displacements to full scale from u = 0
    with growth frozen; returns (u, aux, iterations).

    The ramp is a pseudo-transient continuation (Kelley & Keyes 1998): a
    damped Newton iteration (K + k I) du = -R with adaptive damping.  Plain
    Newton from the flat state fails on thin clamped sheets loaded into
    the membrane regime, since the flat-state tangent knows nothing of
    membrane stiffening.  The continuation follows implicit viscous
    dynamics toward equilibrium: large damping k follows a relaxation path
    that cannot overshoot, k -> 0 recovers plain Newton.  The residual norm
    is allowed to rise moderately along the way; flat sheets have to climb
    a residual hill before membrane tension takes over, so rejecting every
    uphill step would freeze the flow.  Steps are rejected only when the
    state leaves the feasible range or the residual jumps by more than a
    factor of five, which quadruples the damping.  An accepted step whose
    residual fell scales the damping by that ratio (at most tenfold down),
    and one whose residual rose scales it by UPHILL_DAMPING, after the
    switched evolution relaxation of Mulder & van Leer (1985), so the
    damping keeps shrinking while the sheet climbs its residual hill; held
    there, it would make the ramp crawl.  The damping starts at twice the largest external
    force, or at twice the initial residual when nothing is loaded; a
    start already in equilibrium returns with 0 iterations, and one that
    is infeasible with the prescribed values imposed raises its error (see
    `FemModel._feasible_start`).  A linear solve that fails counts as a
    rejected step.
    """
    u, rnorm, (R, K, aux) = model._feasible_start([np.zeros(model.n_dof)], 0.0, 0.0)
    fmax = np.abs(aux["fext"]).max(initial=0.0)
    k0 = 2.0 * (fmax or rnorm)
    k = k0
    from scipy.sparse import identity
    eye = identity(len(model.free_idx), format="csc")
    best, best_step = rnorm, 0
    for step in range(PSEUDO_MAXIT):
        if rnorm < RESIDUAL_TOL:
            return u, aux, step
        Kd = K if k == 0.0 else K + k * eye
        try:
            du = _solve_reduced(Kd, -R[model.free_idx], iteration=step,
                                residual=rnorm)[0]
        except SolverError:
            rn2 = np.inf
        else:
            u_try = u.copy()
            u_try[model.free_idx] += du
            rn2, out = model._try_assemble(u_try, 0.0, 0.0)
        if not np.isfinite(rn2) or rn2 > 5.0 * rnorm:
            k = max(4.0 * k, 1e-6 * k0)
            if k > 1e9 * k0:
                raise SolverError("pseudo-transient damping diverged",
                                  residual=rnorm)
            continue
        ratio = rn2 / max(rnorm, 1e-300)
        u, (R, K, aux), rnorm = u_try, out, rn2
        k *= max(ratio, 0.1) if ratio < 1.0 else UPHILL_DAMPING
        if k < 1e-8 * k0:
            k = 0.0
        if rnorm < best:
            best, best_step = rnorm, step
        elif step - best_step > 200:
            raise SolverError("pseudo-transient continuation stalled",
                              residual=rnorm)
    raise SolverError("pseudo-transient continuation ran out of steps",
                      residual=rnorm)


def splu(A, **options):
    """scipy's `scipy.sparse.linalg.splu`: an LU factor of the CSC matrix A.

    `_solve_reduced` calls it through this module, so it can be replaced
    here to count or fail factorizations.
    """
    from scipy.sparse.linalg import splu as factor
    return factor(A, **options)


def _solve_reduced(K, rhs, lu=None, **diagnostics):
    """Solve K x = rhs for one reduced tangent; returns (x, lu, steps).

    Given `lu`, a factor of a nearby matrix, solves by GMRES preconditioned
    with it (`_krylov_solve`) and returns `lu` with the number of Krylov
    steps taken.  Without `lu`, or once GMRES gives up, factors K with
    LU_OPTIONS; if that factorization raises or its solve is not finite,
    refactors once with scipy's default `splu`, and returns the factor that
    solved with steps None.  If that fails too, raises SolverError carrying
    `diagnostics`.
    """
    if lu is not None:
        solved = _krylov_solve(K, rhs, lu)
        if solved is not None:
            return solved[0], lu, solved[1]
    for options in (LU_OPTIONS, {}):
        try:
            lu = splu(K, **options)
            x = lu.solve(rhs)
        except RuntimeError:
            continue
        if np.all(np.isfinite(x)):
            return x, lu, None
    raise SolverError("linear solve produced non-finite increment",
                      **diagnostics)


def _krylov_solve(K, rhs, lu):
    """GMRES on K x = rhs, right-preconditioned by the factor `lu` of a
    nearby matrix (Saad & Schultz 1986); returns (x, steps), or None when
    it gives up.

    It starts from x0 = lu^-1 rhs and gives up at once unless x0 halves
    ||rhs||_inf; x0 is accepted, as step 0, when ||rhs - K x0||_inf <=
    REFINE_TOL.  Step j solves with `lu` once, extends the Arnoldi basis by
    K lu^-1 v_j, and finds the x in x0 + lu^-1 span(v_0..v_j) whose
    residual has the least 2-norm.  Once that least 2-norm, which bounds
    the residual's infinity norm, is at most REFINE_TOL, x is formed and
    accepted if its true residual ||rhs - K x||_inf is at most REFINE_TOL
    too.  GMRES gives up after REFINE_SWEEPS steps, on a breakdown and on a
    non-finite iterate.  There are no restarts.
    """
    x0 = lu.solve(rhs)
    r = rhs - K @ x0
    rnorm = np.abs(r).max(initial=0.0)
    if not rnorm <= 0.5 * np.abs(rhs).max(initial=0.0):    # NaN gives up too
        return None
    if rnorm <= REFINE_TOL:
        return x0, 0
    beta = np.linalg.norm(r)
    V, Z = [r / beta], []
    H = np.zeros((REFINE_SWEEPS + 1, REFINE_SWEEPS))
    g = np.zeros(REFINE_SWEEPS + 1)
    g[0] = beta
    for j in range(REFINE_SWEEPS):
        Z.append(lu.solve(V[j]))
        w = K @ Z[j]
        for i, v in enumerate(V):        # modified Gram-Schmidt
            H[i, j] = v @ w
            w -= H[i, j] * v
        H[j + 1, j] = h = np.linalg.norm(w)
        if not np.isfinite(h):
            return None
        y = np.linalg.lstsq(H[:j + 2, :j + 1], g[:j + 2], rcond=None)[0]
        if np.linalg.norm(g[:j + 2] - H[:j + 2, :j + 1] @ y) <= REFINE_TOL:
            # one basis vector at a time: a BLAS product over the whole
            # basis may run threaded
            x = x0.copy()
            for yi, z in zip(y, Z):
                x += yi * z
            if np.abs(rhs - K @ x).max() <= REFINE_TOL:
                return x, j + 1
        if not h > 0.0:         # breakdown: no new direction to search
            return None
        V.append(w / h)
    return None


class _KeptFactor:
    """The one LU factor a maturation march keeps across its growth steps.

    `solve` solves each Newton system of a step by GMRES preconditioned
    with `lu` (see `_solve_reduced`) and notes the step's first system,
    the tangent assembled at its start, and whether any of its solves
    needed REFRESH_SWEEPS Krylov steps or more or factored afresh.
    `refresh`, called between steps once the step is committed, then
    replaces `lu` by a factor of that first tangent.  It frees the old
    factor and trims the C heap (see `_malloc_trim`) before it makes the
    new one.  Made at a step's end, not mid-Newton, the factor does not
    fragment the heap while a step's temporaries are alive.  `FemModel`
    never holds one: models get deep-copied, and a SuperLU factor cannot
    be.
    """

    def __init__(self):
        self.lu = None
        self.start_step()

    def start_step(self):
        self.first = None     # (K, rhs) of the step's first solve
        self.stale = False

    def solve(self, K, rhs, **diagnostics):
        if self.first is None:
            self.first = (K, rhs)
        x, _, steps = _solve_reduced(K, rhs, lu=self.lu, **diagnostics)
        self.stale |= steps is None or steps >= REFRESH_SWEEPS
        return x

    def refresh(self):
        if self.stale:
            K, rhs = self.first
            self.lu = None
            if _malloc_trim is not None:
                _malloc_trim(0)
            try:
                self.lu = _solve_reduced(K, rhs)[1]
            except SolverError:
                pass      # the next step factors afresh and tries again
        self.start_step()


def _extrapolate(past, t):
    """Value at time t of the Lagrange polynomial through the (time, u)
    pairs in `past`: constant through one pair, linear through two,
    quadratic through three."""
    guess = 0.0
    for i, (ti, ui) in enumerate(past):
        w = 1.0
        for j, (tj, _) in enumerate(past):
            if j != i:
                w *= (t - tj) / (ti - tj)
        guess = guess + w * ui
    return guess


def check_march(t_end, dt0, dt_max, dt_ratio):
    """ParameterError for t_end <= 0, which would end the run at the ramp,
    a t_end that is not finite, which no march reaches, and dt0 <= 0,
    dt_max <= 0 and dt_ratio < 1 (NaN among them): a step that is not
    positive, or that shrinks, may never reach t_end.  The march controls'
    one range rule, of `march_steps` and of a config's simulation section.
    """
    check_range({"t_end": t_end}, 0.0, "positive and finite")
    check_range({"dt0": dt0, "dt_max": dt_max}, 0.0, "positive", high=np.inf)
    check_range({"dt_ratio": dt_ratio}, 1.0, "at least 1", high=np.inf, closed=True)


def march_steps(model: FemModel, ramp, t_end, dt0=0.002, dt_max=0.25,
                dt_ratio=1.25):
    """March the growth from the ramp end `ramp` to t_end days, yielding
    (record, u, aux) at the ramp's end and after each accepted growth step.

    This is the one march loop; `march_maturation` collects its records.
    `ramp` is (u, aux, iterations) as `ramp_pressure` returns it, for this
    model or for another on the same mesh and load.  Its aux is not used:
    the march assembles u once at t = 0, dt = 0 on its own model, with the
    Dirichlet values imposed and without the tangent, and commits that
    assembly, so `hist_strain` starts from this model's fiber strains.  A
    u whose shape is not (n_dof,) raises MeshError, an infeasible one its
    error (see `FemModel._feasible_start`), and one whose residual there is
    not below RESIDUAL_TOL SolverError; the first record carries the ramp's
    iterations.  Steps start at dt0 and stretch geometrically by dt_ratio
    up to dt_max; a failed step is retried with half the size.  Each
    step's Newton solve starts from a predictor, the Lagrange polynomial in
    time through the last three accepted states (the ramp's end counts as
    the first; with fewer states the order drops), evaluated at the step's
    end time and recomputed after a cutback.  The Newton solves are
    preconditioned with one kept LU factor, refreshed after a step that
    found it wanting (`_KeptFactor`).  Before each yield the Gauss state is
    committed to the model and the kept factor refreshed, so the model's
    `rho` and `hist_strain` are those of the yielded step; the record is
    the step's StepRecord with the number of cutbacks.  A step halved below
    STEP_MIN raises SolverError with the time, the size it fell to and the
    cutbacks, caused by the last attempt's error.  Before the start is
    checked, the controls must pass `check_march`.
    """
    check_march(t_end, dt0, dt_max, dt_ratio)
    u, _, its = ramp
    if np.shape(u) != (model.n_dof,):
        raise MeshError(f"ramp end of shape {np.shape(u)} on a model of {model.n_dof} dofs")
    u, rnorm, (_, _, aux) = model._feasible_start([u], 0.0, 0.0, tangent=False)
    if not rnorm < RESIDUAL_TOL:
        raise SolverError("ramp end out of equilibrium on this model", residual=rnorm)
    model.commit(aux)
    yield model.record(0.0, u, aux, its), u, aux

    past = deque([(0.0, u)], maxlen=3)
    kept = _KeptFactor()
    t, dt = 0.0, float(dt0)
    while t < t_end - 1e-9:
        step = min(dt, t_end - t)
        cutbacks = 0
        while True:
            try:
                u_new, aux, its = model.solve_step(
                    u, t=t + step, dt=step, guess=_extrapolate(past, t + step),
                    kept=kept)
                break
            except SolverError as exc:
                step *= 0.5
                cutbacks += 1
                if step < STEP_MIN:
                    raise SolverError("time step collapsed during maturation",
                                      time=t, dt=step,
                                      cutbacks=cutbacks) from exc
        u, t = u_new, t + step
        past.append((t, u))
        model.commit(aux)
        kept.refresh()
        yield model.record(t, u, aux, its, cutbacks), u, aux
        dt = min(step * dt_ratio, dt_max)


def march_maturation(model: FemModel, t_end, dt0=0.002, dt_max=0.25,
                     dt_ratio=1.25, on_step=None):
    """Ramp the model's load and run `march_steps` from there to t_end;
    returns (history, u, aux), the list of its StepRecords and the last
    step's state.  `on_step(time, u, aux, model)` runs after each accepted
    step, the ramp's end included, when given.
    """
    history = []
    for rec, u, aux in march_steps(model, ramp_pressure(model), t_end, dt0,
                                   dt_max, dt_ratio):
        history.append(rec)
        if on_step is not None:
            on_step(rec.time, u, aux, model)
    return history, u, aux


def clamped_strip_model(params: MaterialParams, nx=20, ny=6, nz=2,
                        length=20.0, width=6.0, thickness=0.3,
                        pressure=0.002, follower=True):
    """Pressurized strip: both short ends fully clamped, load from below."""
    mesh = strip_mesh(length, width, thickness, nx, ny, nz)
    bcs = [Dirichlet("xmin"), Dirichlet("xmax")]
    loads = [PressureLoad("bottom", pressure, follower=follower)]
    return FemModel(mesh, params, dirichlet=bcs, loads=loads)
