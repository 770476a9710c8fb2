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

A residual-only assembly (`tangent=False`) skips every tangent term, from
the constitutive CC blocks to the scatter, and returns the residual and
state fields bit for bit as the full assembly does.  The Newton solver
uses it for line-search trials, so it assembles a tangent only where it
factors one.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ..errors import DeformationError, MeshError, ParameterError, SolverError
from ..materials import (MaterialParams, cauchy_stress, response_batch,
                         volumetric_energy, volumetric_modulus,
                         volumetric_pressure)
from ..tensors import inv_det3
from . import elements as el
from .mesh import Mesh, strip_mesh

RESIDUAL_TOL = 1e-8       # N, infinity norm over free dofs
NEWTON_MAXIT = 25
PSEUDO_MAXIT = 600        # damped iterations of the pseudo-transient ramp
LINESEARCH_CUTS = 8
STEP_MIN = 1e-8           # day, growth marching gives up below this


@dataclass(frozen=True)
class Dirichlet:
    """Prescribed displacement components on a node set.

    `value` is a constant (scalar or 3-vector) or a callable mapping node
    coordinates (m, 3) to displacements (m, 3); only the axes listed in
    `dofs` are constrained.
    """

    node_set: str
    dofs: tuple = (0, 1, 2)
    value: object = 0.0


@dataclass(frozen=True)
class PressureLoad:
    """Uniform pressure on a face set, in MPa.

    Positive pressure pushes against the outward face normal.  Follower
    loads act on the deformed surface and contribute load stiffness; with
    `follower=False` the traction is evaluated once on the reference
    geometry.
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
    newton_iters: int      # factorizations, one per Newton iteration
    cutbacks: int = 0      # step halvings before the step was accepted


class FemModel:
    """Mesh, material, boundary conditions and Gauss-point growth state.

    The tangent's CSC pattern and scatter map are fixed at construction;
    `assemble` only computes the values.
    """

    def __init__(self, mesh: Mesh, params: MaterialParams,
                 dirichlet=(), loads=()):
        self.mesh = mesh
        self.params = params
        self.conn = mesh.hex8
        self.n_dof = 3 * mesh.n_nodes

        self.dNdX, self.wdet, self.V0 = el.reference_gradients(mesh.nodes[self.conn])
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
            for ax in bc.dofs:
                fixed[3 * ids + ax] = True
                values[3 * ids + ax] = vals[:, ax]
        self.fixed = fixed
        self.fixed_values = values
        self.free = ~fixed
        self.free_idx = np.flatnonzero(self.free)
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
        # every K shares these two arrays; the pattern is canonical (sorted,
        # no duplicates), so scipy has no reason to write to them
        self._indptr.flags.writeable = False
        self._indices.flags.writeable = False

    # -- assembly -----------------------------------------------------------

    def assemble(self, u, t, dt, load_scale=1.0, tangent=True):
        """Residual, reduced tangent and state fields at displacements u.

        Returns (R, K, aux): R is the full residual (internal minus external
        forces, reactions at fixed dofs), K the tangent restricted to free
        dofs, and aux the Gauss-point fields needed to commit or postprocess
        the state.  With tangent=False K is None and none of its terms are
        computed; R and aux are the same bits either way.  Raises if an
        element inverts, a fiber strain leaves the range of the collagen law
        or the density update fails.
        """
        u = np.asarray(u, dtype=float).reshape(-1)
        ue = u.reshape(-1, 3)[self.conn]
        F = el.deformation_gradients(ue, self.dNdX)
        Finv, J = inv_det3(F)
        if np.any(J <= 0.0):
            raise DeformationError("an element inverted during the solve")
        C = F.swapaxes(-1, -2) @ F

        mat = self.params.matrix
        Jbar = el.mean_dilatation(J, self.wdet, self.V0)
        pbar = volumetric_pressure(Jbar, mat)
        resp = response_batch(C.reshape(-1, 3, 3), self.params,
                              self.rho.reshape(-1), t, dt,
                              pbar=np.repeat(pbar, self.wdet.shape[1]),
                              tangent=tangent)
        shape = self.wdet.shape
        S6 = resp["S"].reshape(shape + (6,))

        B = el.b_matrices(F, self.dNdX)
        fint = el.internal_forces(B, S6, self.wdet)
        R = np.bincount(self.dofmap.ravel(), weights=fint.ravel(),
                        minlength=self.n_dof)

        fext = np.zeros(self.n_dof)
        load_blocks = []
        for load, fnodes, fdofs in self.loads:
            xf = self.mesh.nodes[fnodes]
            if load.follower:
                xf = xf + u.reshape(-1, 3)[fnodes]
            f, Kl = el.face_pressure(xf, load.pressure * load_scale,
                                     tangent=tangent)
            np.add.at(fext, fdofs.ravel(), f.ravel())
            if load.follower and tangent:
                # R = fint - fext, so the load stiffness enters negated
                load_blocks.append(-Kl.ravel())
        R -= fext

        K = None
        if tangent:
            CC = resp["CC"].reshape(shape + (6, 6))
            Ke = el.material_stiffness(B, CC, self.wdet) \
                + el.geometric_stiffness(S6, self.dNdX, self.wdet)
            G = el.volume_gradient(Finv, J, self.dNdX, self.wdet)
            kvol = volumetric_modulus(Jbar, mat) / self.V0
            Ke += kvol[:, None, None] * G[:, :, None] * G[:, None, :]
            data = np.bincount(self._slot,
                               weights=np.concatenate([Ke.ravel()] + load_blocks),
                               minlength=self._nnz + 1)[:self._nnz]
            nf = len(self.free_idx)
            K = sp.csc_matrix((data, self._indices, self._indptr), shape=(nf, nf))

        aux = {
            "rho": resp["rho"].reshape(shape),
            "fiber_strain": resp["fiber_strain"].reshape(shape),
            "S": S6,
            "F": F,
            "Jbar": Jbar,
            "psi_point": resp["psi_point"].reshape(shape),
            "residual": R,
            "fext": fext,
        }
        return R, K, aux

    # -- solving ------------------------------------------------------------

    def solve_step(self, u, t, dt, load_scale=1.0, tol=RESIDUAL_TOL,
                   guess=None):
        """Newton solve of one step; returns (u, aux, iterations).

        `u` is the last converged displacement.  Newton starts at `guess`
        when one is given, unless assembling there raises (an element
        inverts or the density update fails): then it starts at `u`, so a
        guess outside the feasible range costs one assembly, not a cutback.
        Every iteration assembles the tangent once, factors it once and
        solves once; its line-search trials assemble the residual alone,
        and the tangent is assembled at the accepted trial only when
        another iteration follows.  The iteration count is the number of
        factorizations.  The incoming state (previous densities) is left
        untouched; call `commit(aux)` once the step is accepted.
        """
        u = np.asarray(u, dtype=float).copy()
        u[self.fixed] = self.fixed_values[self.fixed]
        start = None
        if guess is not None:
            g = np.asarray(guess, dtype=float).copy()
            g[self.fixed] = self.fixed_values[self.fixed]
            try:
                start = g, self.assemble(g, t, dt, load_scale)
            except (DeformationError, SolverError):
                pass
        if start is None:
            start = u, self.assemble(u, t, dt, load_scale)
        u, (R, K, aux) = start
        rnorm = np.abs(R[self.free_idx]).max(initial=0.0)
        stalled = 0
        for it in range(NEWTON_MAXIT):
            if rnorm < tol:
                return u, aux, it
            du = splu(K).solve(-R[self.free_idx])
            if not np.all(np.isfinite(du)):
                raise SolverError("linear solve produced non-finite increment",
                                  iteration=it, residual=rnorm)
            alpha = 1.0
            for _ in range(LINESEARCH_CUTS):
                u_try = u.copy()
                u_try[self.free_idx] += alpha * du
                try:
                    R2, _, aux2 = self.assemble(u_try, t, dt, load_scale,
                                                tangent=False)
                except (DeformationError, SolverError):
                    alpha *= 0.5
                    continue
                rn2 = np.abs(R2[self.free_idx]).max(initial=0.0)
                if rn2 < rnorm or rn2 < tol:
                    # without a decent reduction rate Newton is only creeping
                    # along a bending-to-membrane transition; give up early
                    # so the caller can cut the increment
                    stalled = stalled + 1 if rn2 > 0.99 * rnorm else 0
                    u, R, aux, rnorm = u_try, R2, aux2, rn2
                    break
                alpha *= 0.5
            else:
                raise SolverError("line search failed to reduce the residual",
                                  iteration=it, residual=rnorm)
            if stalled >= 3:
                raise SolverError("Newton stagnated", iteration=it,
                                  residual=rnorm)
            if rnorm >= tol and it + 1 < NEWTON_MAXIT:
                K = self.assemble(u, t, dt, load_scale)[1]
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

    def element_density(self, rho=None):
        """Volume-weighted element means of the Gauss density field."""
        rho = self.rho if rho is None else rho
        return (self.wdet * rho).sum(axis=1) / self.V0

    def element_peak_strain(self):
        """Largest fiber strain each element has seen, max over its points."""
        return self.hist_strain.max(axis=1)

    def total_energy(self, aux):
        """Discrete internal energy matching the assembled forces."""
        pointwise = float((self.wdet * aux["psi_point"]).sum())
        vol = float((self.V0 * volumetric_energy(aux["Jbar"],
                                                 self.params.matrix)).sum())
        return pointwise + vol

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
    factor of five.  The damping starts at twice the largest external
    force, or at twice the initial residual when nothing is loaded; a
    start already in equilibrium returns with 0 iterations.
    """
    u = np.zeros(model.n_dof)
    u[model.fixed] = model.fixed_values[model.fixed]
    R, K, aux = model.assemble(u, 0.0, 0.0)
    rnorm = np.abs(R[model.free_idx]).max(initial=0.0)
    fmax = np.abs(aux["fext"]).max(initial=0.0)
    k0 = 2.0 * (fmax or rnorm)
    k = k0
    eye = sp.identity(len(model.free_idx), format="csc")
    best, best_step = rnorm, 0
    for step in range(PSEUDO_MAXIT):
        if rnorm < RESIDUAL_TOL:
            return u, aux, step
        Kd = K if k == 0.0 else K + k * eye
        du = splu(Kd).solve(-R[model.free_idx])
        u_try = u.copy()
        u_try[model.free_idx] += du
        try:
            R2, K2, aux2 = model.assemble(u_try, 0.0, 0.0)
            rn2 = np.abs(R2[model.free_idx]).max(initial=0.0)
        except (DeformationError, SolverError):
            rn2 = np.inf
        if not np.isfinite(rn2) or rn2 > 5.0 * rnorm:
            k = max(4.0 * k, 1e-6 * k0)
            if k > 1e9 * k0:
                raise SolverError("pseudo-transient damping diverged",
                                  residual=rnorm)
            continue
        ratio = rn2 / max(rnorm, 1e-300)
        u, R, K, aux, rnorm = u_try, R2, K2, aux2, rn2
        if ratio < 1.0:
            k *= max(ratio, 0.1)
            if k < 1e-8 * k0:
                k = 0.0
        if rnorm < best:
            best, best_step = rnorm, step
        elif step - best_step > 200:
            raise SolverError("pseudo-transient continuation stalled",
                              residual=rnorm)
    raise SolverError("pseudo-transient continuation ran out of steps",
                      residual=rnorm)


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


def march_maturation(model: FemModel, t_end, dt0=0.002, dt_max=0.25,
                     dt_ratio=1.25, on_step=None):
    """Ramp the load, then march the growth from 0 to t_end days.

    Steps start at dt0 and stretch geometrically by dt_ratio up to dt_max;
    a failed step is retried with half the size.  Each step's Newton solve
    starts from a predictor, the Lagrange polynomial in time through the
    last three accepted states (the ramp's end counts as the first; with
    fewer states the order drops), evaluated at the step's end time and
    recomputed after a cutback.  Accepted steps commit the Gauss state and
    append a StepRecord with the number of cutbacks; `on_step(time, u, aux,
    model)` runs after each accepted step when given.  Returns (history, u,
    aux).
    Rejects t_end <= 0, which would end the run after the ramp alone, and
    dt0 <= 0, dt_max <= 0 and dt_ratio < 1: a step that is not positive, or
    that shrinks, may never reach t_end.
    """
    if not t_end > 0.0:
        raise ParameterError(f"need t_end > 0, got {t_end}")
    if not (dt0 > 0.0 and dt_max > 0.0 and dt_ratio >= 1.0):
        raise ParameterError("need dt0 > 0, dt_max > 0 and dt_ratio >= 1, got "
                             f"{dt0}, {dt_max}, {dt_ratio}")
    u, aux, its = ramp_pressure(model)
    model.commit(aux)
    history = [model.record(0.0, u, aux, its)]
    if on_step is not None:
        on_step(0.0, u, aux, model)

    past = deque([(0.0, u)], maxlen=3)
    t, dt = 0.0, float(dt0)
    while t < t_end - 1e-9:
        step = min(dt, t_end - t)
        cutbacks = 0
        while True:
            try:
                u_new, aux, its = model.solve_step(
                    u, t=t + step, dt=step, guess=_extrapolate(past, t + step))
                break
            except SolverError:
                step *= 0.5
                cutbacks += 1
                if step < STEP_MIN:
                    raise SolverError("time step collapsed during maturation",
                                      time=t)
        u, t = u_new, t + step
        past.append((t, u))
        model.commit(aux)
        history.append(model.record(t, u, aux, its, cutbacks))
        if on_step is not None:
            on_step(t, u, aux, model)
        dt = min(step * dt_ratio, dt_max)
    return history, u, aux


def clamped_strip_model(params: MaterialParams, nx=20, ny=6, nz=2,
                        length=20.0, width=6.0, thickness=0.3,
                        pressure=0.002, follower=True):
    """Pressurized strip: both short ends fully clamped, load from below."""
    mesh = strip_mesh(length, width, thickness, nx, ny, nz)
    bcs = [Dirichlet("xmin"), Dirichlet("xmax")]
    loads = [PressureLoad("bottom", pressure, follower=follower)]
    return FemModel(mesh, params, dirichlet=bcs, loads=loads)
