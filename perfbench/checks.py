"""Correctness checks on the outputs of the benchmark workloads.

Every check compares a result with a computation made here, apart from the
program (a closed-form sum, an exact surface integral, a mirror image), or
with a property the method must have.  None compares against stored output.
Checks take plain arrays, so the self-test can feed them wrong results.
"""

from collections import namedtuple

import numpy as np

Check = namedtuple("Check", "name ok detail")

# relative mirror mismatch allowed; symmetric inputs give about 1e-14
SYMMETRY_RTOL = 1e-8
# rounding slack on bounds that hold exactly in exact arithmetic
ROUND_RTOL = 1e-12
# the paper's windows for the Weibull fit of the maturation points
TAU_WINDOW = (13.7, 14.7)
H_WINDOW = (1.55, 1.75)

# parent hexahedron corners in mesh order: bottom face counter-clockwise
# seen from +z, then the top face in the same order
_HEX_CORNERS = np.array([
    [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
    [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1]], dtype=float)


def gauss_coordinates(nodes, conn, gauss_points):
    """Reference positions (E, G, 3) of the Gauss points of hex8 elements."""
    xi = np.asarray(gauss_points, dtype=float)
    N = np.prod(1.0 + xi[:, None, :] * _HEX_CORNERS[None], axis=-1) / 8.0
    return np.einsum("ga,eai->egi", N, np.asarray(nodes)[conn])


def mirror_permutation(points, axis, center):
    """perm with points[perm[i]] the mirror image of points[i] about the plane.

    Raises ValueError when the point cloud is not mirror symmetric.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    image = points.copy()
    image[:, axis] = 2.0 * center - image[:, axis]
    scale = 1e-7 * max(float(np.ptp(points)), 1.0)
    a = np.round(points / scale)
    b = np.round(image / scale)
    ia = np.lexsort(a.T[::-1])
    ib = np.lexsort(b.T[::-1])
    if not np.array_equal(a[ia], b[ib]):
        raise ValueError("point set is not mirror symmetric")
    perm = np.empty(len(points), dtype=int)
    perm[ib] = ia
    return perm


def mirror_symmetry(name, points, values, axis, center):
    """values equal at each point and its mirror image, to SYMMETRY_RTOL."""
    values = np.asarray(values, dtype=float).reshape(-1)
    perm = mirror_permutation(points, axis, center)
    gap = float(np.max(np.abs(values - values[perm]), initial=0.0))
    scale = float(np.max(np.abs(values), initial=0.0))
    ok = gap <= SYMMETRY_RTOL * scale
    return Check(name, ok, f"mirror gap {gap:.2e} vs scale {scale:.4g}")


def free_residual(R_free, tol):
    worst = float(np.max(np.abs(R_free), initial=0.0))
    return Check("free-dof residual", worst < tol,
                 f"{worst:.2e} N < {tol:.0e} N")


def pressure_resultant(face_xyz, pressure):
    """Total follower-pressure force -p * sum 1/2 d1 x d2 over quad faces.

    Corners (a, b, c, d) run so that (b - a) x (d - a) points outward; the
    diagonal form is the exact vector area of a bilinear quad.
    """
    xf = np.asarray(face_xyz, dtype=float)
    area = 0.5 * np.cross(xf[:, 2] - xf[:, 0], xf[:, 3] - xf[:, 1]).sum(axis=0)
    return -pressure * area


def reaction_balance(R, fixed, face_xyz, pressure, n_free, tol):
    """Reactions at the fixed dofs cancel the pressure resultant.

    Internal forces sum to zero, so sum(R over fixed) = -F_p - sum(R over
    free), and the free part is bounded by n_free * tol.
    """
    R = np.asarray(R, dtype=float).reshape(-1, 3)
    mask = np.asarray(fixed, dtype=bool).reshape(-1, 3)
    reaction = np.where(mask, R, 0.0).sum(axis=0)
    load = pressure_resultant(face_xyz, pressure)
    gap = float(np.max(np.abs(reaction + load)))
    limit = n_free * tol + 1e-9 * float(np.max(np.abs(load)))
    return Check("reactions balance pressure", gap <= limit,
                 f"|sum R_fixed + F_p| {gap:.2e} N <= {limit:.2e} N, "
                 f"F_p = {np.array2string(load, precision=6)} N")


def deflection_monotone(times, deflections, after=1.0):
    """Deflection non-increasing from day `after` on."""
    times = np.asarray(times, dtype=float)
    w = np.asarray(deflections, dtype=float)[times >= after]
    rise = float(np.max(np.diff(w), initial=-np.inf))
    return Check("deflection non-increasing after day 1", rise <= 1e-10,
                 f"max rise {rise:.2e} mm")


def bio_rate(t, growth):
    """a1 * c_cell * d alpha/dt of the Weibull course, evaluated here."""
    x = np.asarray(t, dtype=float) / growth.tau
    return (growth.a1 * growth.c_cell * (growth.h / growth.tau)
            * np.exp(-x ** growth.h) * x ** (growth.h - 1.0))


def bio_only_density(times, growth):
    """Backward-Euler bio-only density sum_n dt * rate(t_{n+1}) at each time.

    `times` starts at 0; the mechanical term only adds to this.
    """
    t = np.asarray(times, dtype=float)
    return np.concatenate([[0.0], np.cumsum(np.diff(t) * bio_rate(t[1:], growth))])


def density_floor(name, rho, floor):
    """Every density at least the bio-only floor (same shape or scalar)."""
    rho = np.asarray(rho, dtype=float)
    floor = np.broadcast_to(np.asarray(floor, dtype=float), rho.shape)
    margin = float(np.min(rho - floor * (1.0 - ROUND_RTOL), initial=np.inf))
    return Check(name, margin >= 0.0,
                 f"min(rho - floor) {margin:.3e} ug/mm^3 >= 0, "
                 f"floor up to {float(np.max(floor, initial=0.0)):.6g}")


def round_trip(found, truth, rtol=0.02):
    """Fitted parameters within rtol of the values the data came from."""
    errs = {k: abs(found[k] - v) / abs(v) for k, v in truth.items()}
    worst = max(errs.values())
    return Check("round trip", worst <= rtol,
                 ", ".join(f"{k}={found[k]:.6g} ({e:.1e})" for k, e in errs.items())
                 + f" within {rtol}")


def within_bounds(found, bounds):
    ok = all(lo <= found[k] <= hi for k, (lo, hi) in bounds.items())
    return Check("inside bounds", ok,
                 ", ".join(f"{k}={found[k]:.6g} in [{lo}, {hi}]"
                           for k, (lo, hi) in bounds.items()))


def series_rms(rms, limit=1e-4):
    worst = max(rms.values())
    return Check("per-series rms", worst < limit,
                 f"max rms {worst:.2e} MPa < {limit:.0e}")


def weibull_windows(tau, h):
    ok = TAU_WINDOW[0] <= tau <= TAU_WINDOW[1] and H_WINDOW[0] <= h <= H_WINDOW[1]
    return Check("Weibull windows", ok,
                 f"tau={tau:.4f} in {list(TAU_WINDOW)}, h={h:.4f} in {list(H_WINDOW)}")


def free_axis_stress(name, sigmas, free_axes, tol):
    """Cauchy stress on the traction-free axes vanishes at every record."""
    sig = np.asarray(sigmas, dtype=float).reshape(-1, 6)[:, list(free_axes)]
    worst = float(np.max(np.abs(sig), initial=0.0))
    return Check(name, worst <= tol, f"max |sigma_free| {worst:.2e} MPa <= {tol:.0e}")
