"""End-to-end acceptance suite.

One test per acceptance criterion (the strip scenario splits into its four
labeled sub-checks).  Every test prints a single PASS or FAIL line with the
measured figure, so `pytest -s tests/test_acceptance.py` reads as a
checklist; the assert carries the same condition.
"""

import numpy as np
import pytest

from maturesim.calibrate import fit_weibull
from maturesim.fem import (Dirichlet, FemModel, PressureLoad,
                           clamped_strip_model, march_steps, ramp_pressure,
                           strip_mesh)
from maturesim.fem.mesh import Mesh
from maturesim.fem.solver import RESIDUAL_TOL
from maturesim.growth import GrowthState, update_density_batch, weibull_alpha
from maturesim.materials import cauchy_stress, total_response
from maturesim.matpoint import (LoadProgram, solve_mixed_point,
                                unloaded_maturation)
from maturesim.tensors import from_voigt, gen_structural_tensor, to_voigt

from conftest import (make_collagen, make_growth, make_material, make_matrix,
                      make_textile)

from _oracles import (W, collagen_on_C, fd_tangent, matrix_on_C, random_C,
                      random_F, random_rotation, ref_energy, rel_err,
                      response_on_C, textile_on_C)

MATURATION_POINTS = [(0.0, 0.0), (7.0, 0.28486), (14.0, 0.6060),
                     (21.0, 0.8357), (28.0, 1.0)]

# strip scenario: fibers along x, moderate dispersion, active growth
STRIP_MATERIAL = dict(kappa=0.15, psi_crit=2e-5)
STRIP_DAYS = 28.0


def _report(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}  ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_first_increment_density():
    p = make_growth(psi_crit=2e-5)
    rho = update_density_batch(0.0, 0.0, 0.002, 0.002, p)[0][0]
    target = 5.4634e-6  # ug/mm^3 after the first 0.002-day step
    err = abs(rho - target) / target
    _report(1, "first-increment density",
            err < 1e-3, f"rho={rho:.6e} ug/mm^3, rel err {err:.1e}")


def test_criterion_2_maturation_kinetics_fit():
    times = np.array([p[0] for p in MATURATION_POINTS])
    vals = np.array([p[1] for p in MATURATION_POINTS])
    res = fit_weibull(times, vals)
    tau, h = res.params["tau"], res.params["h"]
    ok = 13.7 <= tau <= 14.7 and 1.55 <= h <= 1.75
    _report(2, "kinetics fit windows",
            ok, f"tau={tau:.4f} in [13.7,14.7], h={h:.4f} in [1.55,1.75]")


def test_criterion_3_unloaded_maturation_convergence():
    g = make_growth()
    limit = g.a1 * g.c_cell  # 7.5 ug/mm^3
    _, rho = unloaded_maturation(g, 10.0 * g.tau, 0.05)
    sat_err = abs(rho[-1] - limit) / limit
    # curve error ||rho/(a1 c) - alpha||_inf over 28 days, dt halved twice
    errs = []
    for dt in (0.2, 0.1, 0.05):
        times, r = unloaded_maturation(g, 28.0, dt)
        errs.append(np.abs(r / limit
                           - weibull_alpha(times, g.tau, g.h)).max())
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = sat_err < 5e-3 and 1.8 <= r1 <= 2.2 and 1.8 <= r2 <= 2.2
    _report(3, "unloaded maturation",
            ok, f"rho(10 tau)={rho[-1]:.4f} (rel err {sat_err:.1e} < 5e-3), "
                f"halving ratios {r1:.3f}, {r2:.3f} in [1.8, 2.2]")


def test_criterion_4_collagen_density_linearity():
    cp = make_collagen()
    C = np.diag([1.1 ** 2, 1.0, 1.0])
    rel = (0.6060, 0.8357, 1.0)  # day-14/21/28 relative densities
    base = collagen_on_C(C, cp, cp.rho_f)["S"]
    worst = max(rel_err(collagen_on_C(C, cp, w * cp.rho_f)["S"] / w, base)
                for w in rel)
    # and through the assembled total stress, collagen isolated by baseline
    params = make_material()
    batch = C[None]

    def total(rho):
        return response_on_C(batch, params, np.array([rho]), 0.0, 0.0)["S"][0]

    s0 = total(0.0)
    ref = total(cp.rho_f) - s0
    worst = max(worst, max(rel_err((total(w * cp.rho_f) - s0) / w, ref)
                           for w in rel))
    _report(4, "collagen stress linear in density",
            worst < 1e-14, f"max rel deviation {worst:.2e} < 1e-14")


def test_criterion_5_tangent_consistency():
    rng = np.random.default_rng(57)
    mp, tp = make_matrix(), make_textile()
    cp = make_collagen(kappa=0.15)

    def worst_tangent(stress_fn, tangent_fn, states):
        return max(rel_err(fd_tangent(stress_fn, C), tangent_fn(C))
                   for C in states)

    e_mat = worst_tangent(
        lambda C: matrix_on_C(C, mp)[0],
        lambda C: matrix_on_C(C, mp)[1],
        [random_C(rng, 0.25) for _ in range(100)])
    states = [random_C(rng, 0.2, stretch=0.35) for _ in range(50)]
    states += [random_C(rng, 0.2, stretch=-0.35) for _ in range(50)]
    e_col = worst_tangent(
        lambda C: collagen_on_C(C, cp, 5.0)["S"],
        lambda C: collagen_on_C(C, cp, 5.0)["CC"],
        states)
    e_tex = worst_tangent(
        lambda C: textile_on_C(C, tp)[0],
        lambda C: textile_on_C(C, tp)[1],
        [random_C(rng, 0.25) for _ in range(100)])

    params = make_material(**STRIP_MATERIAL)
    rho_n, t, dt = np.array([2.0]), 5.0, 0.1

    def coupled(C):
        return response_on_C(C[None], params, rho_n, t, dt)

    e_cpl = worst_tangent(lambda C: coupled(C)["S"][0],
                          lambda C: coupled(C)["CC"][0],
                          [random_C(rng, 0.2, stretch=0.3)
                           for _ in range(100)])

    g = make_growth(psi_crit=2e-5)
    e_sens = 0.0
    for _ in range(100):
        rho0 = rng.uniform(0.0, 25.0)
        psi = rng.uniform(3e-5, 2e-3)
        dts = rng.uniform(0.01, 0.3)
        tt = rng.uniform(0.5, 25.0)
        _, D, _ = update_density_batch(rho0, psi, tt, dts, g)
        h = 1e-6 * psi
        fd = (update_density_batch(rho0, psi + h, tt, dts, g)[0][0]
              - update_density_batch(rho0, psi - h, tt, dts, g)[0][0]) / (2.0 * h)
        e_sens = max(e_sens, abs(D[0] - fd) / max(abs(fd), 1e-12))

    worst = max(e_mat, e_col, e_tex, e_cpl)
    ok = worst < 1e-5 and e_sens < 1e-6
    _report(5, "tangent consistency (100 states each)",
            ok, f"matrix {e_mat:.1e}, collagen {e_col:.1e}, "
                f"textile {e_tex:.1e}, coupled {e_cpl:.1e} (tol 1e-5); "
                f"drho/dpsi_m {e_sens:.1e} (tol 1e-6)")


def test_criterion_6_property_suite():
    rng = np.random.default_rng(91)
    params = make_material(**STRIP_MATERIAL)
    details = []

    # frame indifference of the total energy density, and of the stresses
    # the package computes: S(QF) = S(F) and sigma(QF) = Q sigma(F) Q^T
    e_frame = e_stress = 0.0
    state = GrowthState(rho=3.0)
    for _ in range(20):
        F = random_F(rng, 0.3, stretch=0.2)
        Q = random_rotation(rng)
        psis = [float(ref_energy(G.T @ G, params, 3.0)) for G in (F, Q @ F)]
        e_frame = max(e_frame, abs(psis[1] - psis[0]) / abs(psis[0]))
        S, S_rot = (total_response(G, params, state, 0.0, 0.0)[0].S
                    for G in (F, Q @ F))
        sig = to_voigt(Q @ from_voigt(cauchy_stress(F, S)) @ Q.T)
        e_stress = max(e_stress, rel_err(S_rot, S),
                       rel_err(cauchy_stress(Q @ F, S_rot), sig))
    ok = e_frame < 1e-10 and e_stress < 1e-10
    details.append(f"frame indifference {e_frame:.1e}, S and sigma "
                   f"{e_stress:.1e} < 1e-10")

    # collagen carries no compressive stress and no energy
    cp = params.collagen
    tension_only = True
    for _ in range(50):
        C = random_C(rng, 0.15, stretch=-0.35)
        out = collagen_on_C(C, cp, 6.0)
        tension_only &= (out["psi_m"] == 0.0 and not out["S"].any()
                         and not out["CC"].any())
    ok &= tension_only
    details.append(f"tension-only {'ok' if tension_only else 'violated'}")

    # structural tensor: unit trace, symmetric positive semi-definite
    e_tr = 0.0
    for kappa in (0.0, 0.1, 1.0 / 6.0, 0.2, 1.0 / 3.0):
        for _ in range(10):
            a = rng.standard_normal(3)
            H = gen_structural_tensor(a / np.linalg.norm(a), kappa)
            e_tr = max(e_tr, abs(np.trace(H) - 1.0),
                       np.abs(H - H.T).max(),
                       max(0.0, -float(np.linalg.eigvalsh(H)[0])))
    ok &= e_tr < 1e-14
    details.append(f"trace(H)=1 dev {e_tr:.1e}")

    # density never decreases, whatever the loading history does
    monotone = True
    g = params.growth
    for _ in range(30):
        rho, t = 0.0, 0.0
        for _ in range(60):
            dt = rng.uniform(0.001, 0.5)
            t += dt
            psi = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-5, -2)
            new = update_density_batch(rho, psi, t, dt, g)[0][0]
            monotone &= new >= rho - 1e-15
            rho = new
    ok &= monotone
    details.append(f"monotone rho {'ok' if monotone else 'violated'}")

    # growth frozen: response is a pure function of the current state
    stretch_x = [1.0, 1.15]
    direct = LoadProgram(times=[0.0, 1.0],
                         controls=(stretch_x, [1.0, 0.97], "free"),
                         steps_per_interval=7, grow=False)
    detour = LoadProgram(times=[0.0, 1.0, 2.0],
                         controls=([1.0, 1.3, 1.15], [1.0, 1.05, 0.97],
                                   "free"),
                         steps_per_interval=11, grow=False)
    init = GrowthState(rho=3.0)
    ra = solve_mixed_point(direct, make_material(**STRIP_MATERIAL), init)[-1]
    rb = solve_mixed_point(detour, make_material(**STRIP_MATERIAL), init)[-1]
    e_path = max(rel_err(ra.F, rb.F), rel_err(ra.S, rb.S))
    ok &= e_path < 1e-9
    details.append(f"path independence {e_path:.1e} < 1e-9")

    # and zero net work around a closed strain loop
    theta = np.linspace(0.0, 2.0 * np.pi, 4001)
    Fs = np.tile(np.eye(3), (theta.size, 1, 1))
    Fs[:, 0, 0] = 1.0 + 0.12 * np.sin(theta)
    Fs[:, 0, 1] = 0.06 * (1.0 - np.cos(theta))
    Cs = np.einsum("nki,nkj->nij", Fs, Fs)
    Es = 0.5 * (Cs - np.eye(3))
    Ev = to_voigt(Es)
    mid = 0.5 * (Cs[:-1] + Cs[1:])
    S = response_on_C(mid, params, np.full(mid.shape[0], 3.0),
                      0.0, 0.0)["S"]
    dE = Ev[1:] - Ev[:-1]
    inc = np.einsum("nk,k,nk->n", S, W, dE)
    loop = abs(inc.sum()) / np.abs(inc).sum()
    ok &= loop < 1e-6
    details.append(f"closed-loop work {loop:.1e} < 1e-6")

    _report(6, "property suite", ok, "; ".join(details))


def test_criterion_7_fem_verification():
    params = make_material()

    # patch test: distorted interior node, affine boundary displacement
    mesh = strip_mesh(2.0, 2.0, 2.0, 2, 2, 2)
    nodes = mesh.nodes.copy()
    interior = np.flatnonzero(
        np.all((nodes > 1e-9) & (nodes < 2.0 - 1e-9), axis=1))
    rng = np.random.default_rng(31)
    nodes[interior] += rng.uniform(-0.25, 0.25, size=(len(interior), 3))
    mesh = Mesh(nodes=nodes, hex8=mesh.hex8, node_sets=mesh.node_sets,
                face_sets=mesh.face_sets)
    mesh.node_sets["boundary"] = np.unique(np.concatenate(
        [mesh.node_sets[k] for k in ("xmin", "xmax", "ymin", "ymax",
                                     "zmin", "zmax")]))
    A = np.array([[0.04, 0.015, 0.0],
                  [0.01, -0.02, 0.005],
                  [0.0, 0.008, 0.03]])
    model = FemModel(mesh, params,
                     dirichlet=[Dirichlet("boundary",
                                          value=lambda X: X @ A.T)])
    u, aux, _ = model.solve_step(np.zeros(model.n_dof), t=0.0, dt=0.0,
                                 tol=1e-10)
    u_exact = mesh.nodes @ A.T
    e_patch = np.abs(u.reshape(-1, 3) - u_exact).max() / np.abs(u_exact).max()
    S = aux["S"].reshape(-1, 6)
    e_patch = max(e_patch, np.abs(S - S[0]).max() / np.abs(S).max())

    # one brick with free lateral faces against the material-point solver
    mesh1 = strip_mesh(1.0, 1.0, 1.0, 1, 1, 1)
    stretch, t_end = 1.12, 0.2
    model1 = FemModel(mesh1, params, dirichlet=[
        Dirichlet("xmin", dofs=(0,)),
        Dirichlet("xmax", dofs=(0,), value=np.array([stretch - 1.0, 0, 0])),
        Dirichlet("ymin", dofs=(1,)),
        Dirichlet("zmin", dofs=(2,)),
    ])
    _, aux1, _ = model1.solve_step(np.zeros(model1.n_dof), t=t_end, dt=t_end,
                                   tol=1e-12)
    rec = solve_mixed_point(
        LoadProgram(times=[0.0, t_end],
                    controls=([1.0, stretch], "free", "free"),
                    steps_per_interval=1), params)[-1]
    e_single = max(np.abs(aux1["F"] - rec.F).max(),
                   np.abs(aux1["S"] - rec.S).max(),
                   np.abs(aux1["rho"] - rec.rho).max())

    # assembled tangent vs central differences on an 8-element mesh
    modelk = FemModel(strip_mesh(2.0, 1.5, 1.0, 2, 2, 2),
                      make_material(kappa=0.1, psi_crit=2e-5),
                      dirichlet=[Dirichlet("xmin"), Dirichlet("xmax")],
                      loads=[PressureLoad("bottom", 0.003)])
    rngk = np.random.default_rng(41)
    modelk.rho = rngk.uniform(0.5, 4.0, size=modelk.rho.shape)
    u = np.zeros(modelk.n_dof)
    u[modelk.free_idx] = 0.02 * rngk.standard_normal(len(modelk.free_idx))
    t, dt, h = 0.5, 0.1, 1e-6
    _, K, _ = modelk.assemble(u, t, dt)
    K = K.toarray()
    fd = np.empty_like(K)
    for col, dof in enumerate(modelk.free_idx):
        up, um = u.copy(), u.copy()
        up[dof] += h
        um[dof] -= h
        fd[:, col] = (modelk.assemble(up, t, dt)[0]
                      - modelk.assemble(um, t, dt)[0])[modelk.free_idx] \
            / (2.0 * h)
    e_glob = rel_err(fd, K)

    ok = e_patch < 1e-8 and e_single < 1e-10 and e_glob < 1e-5
    _report(7, "FEM verification",
            ok, f"patch {e_patch:.1e} < 1e-8, single-element vs point "
                f"{e_single:.1e} < 1e-10, global tangent {e_glob:.1e} < 1e-5")


# ---------------------------------------------------------------------------
# strip scenario: 20 x 6 x 0.3 mm, clamped short ends, 2 kPa follower
# pressure from below, fibers along x.  Runs are cached per module; the
# parameter-study variants use a coarser step ceiling to keep the runtime
# in minutes, always compared against a base run with identical stepping.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def strip_runs():
    # growth is frozen during the ramp (rho = 0), so the material variants
    # on one mesh ramp to the same end: each mesh ramps once, and every
    # march checks that ramp end on its own model before it starts
    cache, ramps = {}, {}

    def run(tag, dt_max=0.5, nx=20, ny=6, nz=2, **material_kw):
        if tag not in cache:
            params = make_material(**{**STRIP_MATERIAL, **material_kw})
            model = clamped_strip_model(params, nx=nx, ny=ny, nz=nz)
            mesh = (nx, ny, nz)
            if mesh not in ramps:
                ramps[mesh] = ramp_pressure(model)
            history = []
            for rec, u, aux in march_steps(model, ramps[mesh], STRIP_DAYS,
                                           dt_max=dt_max):
                history.append(rec)
            cache[tag] = (model, history, u, aux)
        return cache[tag]

    run.ramps = ramps
    return run


@pytest.mark.slow
def test_criterion_8a_deflection_monotone(strip_runs):
    _, history, _, _ = strip_runs("base_fine", dt_max=0.25)
    after = [(r.time, r.deflection) for r in history if r.time >= 1.0]
    drops = np.diff([w for _, w in after])
    worst = float(drops.max(initial=-np.inf))
    ok = worst <= 1e-10
    _report("8a", "deflection non-increasing after day 1",
            ok, f"day1 {after[0][1]:.4f} mm -> day28 {after[-1][1]:.4f} mm, "
                f"max rise {worst:.1e} mm")


@pytest.mark.slow
def test_criterion_8b_mesh_convergence(strip_runs):
    _, coarse, _, _ = strip_runs("base_fine", dt_max=0.25)
    _, fine, _, _ = strip_runs("mesh960", dt_max=0.25, nx=40, ny=12, nz=2)
    w240, w960 = coarse[-1].deflection, fine[-1].deflection
    diff = abs(w240 - w960) / w960
    ok = diff < 0.05
    _report("8b", "mesh convergence 240 vs 960 elements",
            ok, f"{w240:.4f} vs {w960:.4f} mm, rel diff {diff:.3f} < 0.05")


@pytest.mark.slow
def test_criterion_8c_density_follows_fiber_strain(strip_runs):
    model, _, _, _ = strip_runs("base_fine", dt_max=0.25)
    dens = model.element_density(model.rho)
    peak = model.hist_strain.max(axis=1)
    hot = int(np.argmax(dens))
    band = float(np.quantile(peak, 0.9))
    rank = float((peak <= peak[hot]).mean())
    ok = peak[hot] >= band
    _report("8c", "densest element sits in the top fiber-strain decile",
            ok, f"element {hot}: peak strain {peak[hot]:.4f} >= "
                f"90th percentile {band:.4f} (rank {rank:.3f})")


@pytest.mark.slow
def test_criterion_8d_parameter_orderings(strip_runs):
    def mean_at_28(tag, **kw):
        _, history, _, _ = strip_runs(tag, **kw)
        return history[-1].rho_mean

    def max_at_28(tag, **kw):
        _, history, _, _ = strip_runs(tag, **kw)
        return history[-1].rho_max

    base = mean_at_28("base")
    orderings = {
        "a1": (mean_at_28("a1_lo", a1=1e-4), base, mean_at_28("a1_hi", a1=1e-3)),
        "a2": (mean_at_28("a2_lo", a2=2.5e-7), base, mean_at_28("a2_hi", a2=1e-6)),
        "1/psi_crit": (mean_at_28("psi_hi", psi_crit=4e-5), base,
                       mean_at_28("psi_lo", psi_crit=1e-5)),
        "1/kappa": (mean_at_28("kap_hi", kappa=0.20), base,
                    mean_at_28("kap_lo", kappa=0.10)),
        "rho_th (saturation)": (max_at_28("rth_lo", rho_th=5.0),
                                max_at_28("base"),
                                max_at_28("rth_hi", rho_th=20.0)),
    }
    ok = True
    parts = []
    for name, (lo, mid, hi) in orderings.items():
        good = lo < mid < hi
        ok &= good
        parts.append(f"{name}: {lo:.3f} < {mid:.3f} < {hi:.3f}"
                     + ("" if good else " VIOLATED"))
    _report("8d", "day-28 density orderings", ok, "; ".join(parts))


@pytest.mark.slow
def test_quarter_strip_matches_full_strip(strip_runs):
    # the strip, its load and its material are mirror symmetric about
    # x = L/2 and y = W/2, so a quarter strip whose cut faces keep their
    # normal displacement at zero solves the same problem, the coupled
    # growth march included
    params = make_material(**STRIP_MATERIAL)
    _, full, _, _ = strip_runs("base_fine", dt_max=0.25)
    model = FemModel(strip_mesh(10.0, 3.0, 0.3, 10, 3, 2), params,
                     dirichlet=[Dirichlet("xmin"), Dirichlet("xmax", dofs=(0,)),
                                Dirichlet("ymax", dofs=(1,))],
                     loads=[PressureLoad("bottom", 0.002)])
    ramp = ramp_pressure(model)

    def ramp_end_deflection(model, u):
        # a ramp stops anywhere below RESIDUAL_TOL, and the two ramps
        # differ there by 1.8e-9 relative: the full strip's stops at
        # 9.3e-10 N, the quarter's at 5.9e-13 N.  Newton takes each end on
        # to a residual below a thousandth of the tolerance first
        u, _, _ = model.solve_step(u, t=0.0, dt=0.0, tol=1e-3 * RESIDUAL_TOL)
        return np.abs(u.reshape(-1, 3)[:, 2]).max()

    ends = (ramp_end_deflection(model, ramp[0]),
            ramp_end_deflection(clamped_strip_model(params),
                                strip_runs.ramps[20, 6, 2][0]))
    quarter = [rec for rec, _, _ in march_steps(model, ramp, STRIP_DAYS,
                                                dt_max=0.25)]
    pairs = {"ramp-end deflection": ends,
             **{name: (getattr(quarter[-1], name), getattr(full[-1], name))
                for name in ("deflection", "rho_mean", "rho_max")}}
    diffs = {name: abs(q - f) / abs(f) for name, (q, f) in pairs.items()}
    newton = [sum(r.newton_iters for r in run[1:]) for run in (quarter, full)]
    assert max(diffs.values()) < 1e-9, diffs
    assert len(quarter) == len(full) and newton[0] == newton[1], \
        (len(quarter), len(full), newton)
