"""Finite element lane: brick meshes, element kernels and the solver."""

from .mesh import (FACE_CORNERS, Mesh, load_mesh, mesh_from_dict,
                   mesh_to_dict, save_mesh, strip_mesh)
from .solver import (Dirichlet, FemModel, PressureLoad, StepRecord,
                     clamped_strip_model, march_maturation, march_steps,
                     ramp_pressure)

__all__ = [
    "FACE_CORNERS", "Mesh", "load_mesh", "mesh_from_dict", "mesh_to_dict",
    "save_mesh", "strip_mesh", "Dirichlet", "FemModel", "PressureLoad",
    "StepRecord", "clamped_strip_model", "march_maturation", "march_steps",
    "ramp_pressure",
]
