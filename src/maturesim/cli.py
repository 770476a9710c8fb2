"""Command line front end.

Subcommands:
  strip-mesh   write a structured clamped-strip mesh as JSON
  grow         unloaded maturation curve (density vs time) as CSV
  matpoint     homogeneous mixed stretch/stress protocol as CSV
  fit          maturation-kinetics fit from measured points
  fem          pressurized clamped-strip maturation run

Exit codes: 0 success, 1 bad usage or configuration, 2 solver failure.
"""

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from . import __version__
from ._files import atomic_open, csv_row, write_json
from .calibrate import fit_weibull
from .config import (DEFAULTS, RunConfig, load_config, parse_config, read_json,
                     save_config)
from .errors import (ConfigError, DeformationError, FitError, MeshError,
                     ParameterError, SolverError, StateError, check_range)
from .fem import clamped_strip_model, march_steps, ramp_pressure, save_mesh, strip_mesh
from .growth import weibull_alpha
from .matpoint import (LoadProgram, records_to_csv, solve_mixed_point,
                       unloaded_maturation)
from .vtkio import write_vtk

log = logging.getLogger("maturesim")

USAGE_ERROR = 1
SOLVER_ERROR = 2
_AXES = {"x": 0, "y": 1, "z": 2}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="maturesim",
        description="Simulate and calibrate collagen maturation in "
                    "textile-reinforced implants.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress output")
    # accept -q after the subcommand too, without clobbering a leading -q
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-q", "--quiet", action="store_true",
                        default=argparse.SUPPRESS,
                        help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    mesh = add_parser("strip-mesh", help="write a strip mesh as JSON")
    for key in ("length", "width", "thickness", "nx", "ny", "nz"):
        default = DEFAULTS["strip"][key]
        mesh.add_argument(f"--{key}", type=type(default), default=default)
    mesh.add_argument("--out", required=True, metavar="FILE")

    grow = add_parser("grow", help="unloaded density-vs-time curve")
    grow.add_argument("--config", metavar="FILE")
    grow.add_argument("--out", required=True, metavar="DIR")
    grow.add_argument("--dt", type=float, default=0.01,
                      help="time step in days (default 0.01)")

    point = add_parser("matpoint",
                           help="homogeneous stretch protocol with growth")
    point.add_argument("--config", metavar="FILE")
    point.add_argument("--out", required=True, metavar="DIR")
    point.add_argument("--stretch", type=float, default=1.1,
                       help="final stretch on the loaded axis")
    point.add_argument("--axis", choices=sorted(_AXES), default="x")
    point.add_argument("--ratio", type=float, default=None,
                       help="biaxial: transverse strain per axial strain")
    point.add_argument("--steps", type=int, default=100)
    point.add_argument("--no-grow", action="store_true",
                       help="freeze the density (pure hyperelastic ramp)")

    fit = add_parser("fit", help="fit maturation kinetics to data")
    fit.add_argument("--data", required=True, metavar="FILE",
                     help='JSON {"times": [...], "values": [...]}')
    fit.add_argument("--out", required=True, metavar="DIR")

    fem = add_parser("fem", help="clamped pressurized strip maturation")
    fem.add_argument("--config", metavar="FILE")
    fem.add_argument("--out", required=True, metavar="DIR")
    fem.add_argument("--vtk-every", type=int, default=0, metavar="N",
                     help="also write a snapshot every N accepted steps")
    return parser


def _load(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return parse_config({})


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _cmd_strip_mesh(args):
    mesh = strip_mesh(args.length, args.width, args.thickness,
                      args.nx, args.ny, args.nz)
    save_mesh(mesh, args.out)
    log.info("wrote %s (%d nodes, %d elements)", args.out,
             mesh.n_nodes, mesh.n_elems)
    return 0


def _cmd_grow(args):
    cfg = _load(args)
    g = cfg.material.growth
    times, rhos = unloaded_maturation(g, cfg.simulation.t_end, args.dt)
    out = _outdir(args)
    path = os.path.join(out, "growth.csv")
    with atomic_open(path) as fh:
        fh.write("time,alpha,rho\n0,0,0\n")
        for t, r in zip(times, rhos):
            fh.write(csv_row((t, weibull_alpha(t, g.tau, g.h), r)))
    save_config(cfg, os.path.join(out, "config.json"))
    log.info("wrote %s (%d steps, final density %.4f)", path, len(times),
             rhos[-1])
    return 0


def _cmd_matpoint(args):
    cfg = _load(args)
    check_range({"--stretch": args.stretch}, 0.0, "positive and finite")
    axis = _AXES[args.axis]
    knots = np.array([1.0, args.stretch])
    controls = ["free", "free", "free"]
    controls[axis] = knots
    if args.ratio is not None:
        check_range({"--ratio": args.ratio}, -sys.float_info.max, "finite", closed=True)
        # a transverse stretch past the float range is refused by LoadProgram
        with np.errstate(over="ignore"):
            controls[(axis + 1) % 3] = 1.0 + args.ratio * (knots - 1.0)
    program = LoadProgram(times=np.array([0.0, cfg.simulation.t_end]),
                          controls=tuple(controls),
                          steps_per_interval=args.steps,
                          grow=not args.no_grow)
    records = solve_mixed_point(program, cfg.material)
    out = _outdir(args)
    path = os.path.join(out, "matpoint.csv")
    with atomic_open(path) as fh:
        fh.write(records_to_csv(records))
    save_config(cfg, os.path.join(out, "config.json"))
    last = records[-1]
    log.info("wrote %s (final stretch %.4f, density %.4f)", path,
             last.F[axis, axis], last.rho)
    return 0


def _cmd_fit(args):
    data = read_json(args.data, "data")
    if not isinstance(data, dict) or "times" not in data or \
            "values" not in data:
        raise ConfigError("need 'times' and 'values' arrays", args.data)
    unknown = set(data) - {"times", "values", "weights"}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", args.data)
    result = fit_weibull(data["times"], data["values"], data.get("weights"))
    out = _outdir(args)
    report = {"tau": result.params["tau"], "h": result.params["h"],
              "objective": result.objective,
              "n_evals": result.nm.n_evals,
              "converged": result.nm.converged}
    path = os.path.join(out, "fit.json")
    write_json(report, path)
    log.info("wrote %s (tau %.4f, h %.4f)", path, report["tau"], report["h"])
    return 0


def _write_state(out, tag, model, u, aux):
    sig = model.cell_cauchy(aux)
    names = ("sigma_xx", "sigma_yy", "sigma_zz",
             "sigma_xy", "sigma_xz", "sigma_yz")
    cell = {"rho": model.element_density(aux["rho"])}
    cell.update({n: sig[:, i] for i, n in enumerate(names)})
    write_vtk(os.path.join(out, tag + ".vtk"), model.mesh,
              point_vectors={"displacement": np.asarray(u).reshape(-1, 3)},
              cell_scalars=cell)


def _cmd_fem(args):
    cfg = _load(args)
    check_range({"--vtk-every": args.vtk_every}, 0, "at least 0", high=np.inf,
                closed=True)
    model = clamped_strip_model(cfg.material, **dataclasses.asdict(cfg.strip))
    out = _outdir(args)
    save_config(cfg, os.path.join(out, "config.json"))
    path = os.path.join(out, "history.csv")
    cutbacks, failure = 0, None
    with atomic_open(path) as fh:
        fh.write("time,deflection,rho_mean,rho_max,newton_iters,cutbacks\n")
        try:
            for k, (last, u, aux) in enumerate(march_steps(
                    model, ramp_pressure(model), **dataclasses.asdict(cfg.simulation))):
                level = logging.INFO if k % 20 == 0 else logging.DEBUG
                log.log(level, "t=%7.3f  deflection=%.4f  rho_mean=%.4f",
                        last.time, last.deflection, last.rho_mean)
                fh.write(csv_row(dataclasses.astuple(last)))
                cutbacks += last.cutbacks
                if args.vtk_every and k % args.vtk_every == 0:
                    _write_state(out, f"state_{k:04d}", model, u, aux)
        except (SolverError, DeformationError) as exc:
            failure = exc     # history.csv keeps the steps accepted so far
    if failure is not None:
        raise failure
    _write_state(out, "final", model, u, aux)
    summary = {"t_end": last.time, "deflection": last.deflection,
               "rho_mean": last.rho_mean, "rho_max": last.rho_max,
               "n_steps": k, "cutbacks": cutbacks}
    write_json(summary, os.path.join(out, "summary.json"))
    log.info("wrote %s (day %.1f deflection %.4f mm, mean density %.4f)",
             path, last.time, last.deflection, last.rho_mean)
    return 0


_COMMANDS = {
    "strip-mesh": _cmd_strip_mesh,
    "grow": _cmd_grow,
    "matpoint": _cmd_matpoint,
    "fit": _cmd_fit,
    "fem": _cmd_fem,
}


def _failure_report(exc):
    """The message of exc and of each exception chained as its cause, one
    line each, with the diagnostics of those that carry them."""
    lines = []
    while exc is not None:
        details = ", ".join(f"{k}={v}" for k, v in
                            getattr(exc, "diagnostics", {}).items())
        lines.append(f"{exc} ({details})" if details else str(exc))
        exc = exc.__cause__
    return "\n  caused by: ".join(lines)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 0 for --help/--version
        return 0 if exc.code == 0 else USAGE_ERROR
    logging.basicConfig(format="%(message)s", force=True,
                        level=logging.WARNING if args.quiet else logging.INFO)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ParameterError, MeshError, FitError) as exc:
        log.error("error: %s", exc)
        return USAGE_ERROR
    except (SolverError, DeformationError, StateError) as exc:
        log.error("solver failure: %s", _failure_report(exc))
        return SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
