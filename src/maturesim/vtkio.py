"""Legacy ASCII VTK output for hexahedral meshes and result fields.

Writes are atomic (`_files.atomic_open`), as are all of the package's
result files.
"""

import numpy as np

from ._files import atomic_open
from .errors import MeshError

HEX_CELL_TYPE = 12


def _fmt(values):
    return " ".join(f"{v:.9g}" for v in values)


def write_vtk(path, mesh, point_vectors=None, cell_scalars=None):
    """Write an unstructured-grid snapshot of a brick mesh.

    `point_vectors` maps field names to (n_nodes, 3) arrays (displacements
    and the like); `cell_scalars` maps names to (n_elems,) arrays.  Field
    names must be single tokens, the legacy format cannot quote them.
    """
    point_vectors = dict(point_vectors or {})
    cell_scalars = dict(cell_scalars or {})
    n, e = mesh.n_nodes, mesh.n_elems
    for kind, fields, shape in (("point", point_vectors, (n, 3)),
                                ("cell", cell_scalars, (e,))):
        for name, arr in fields.items():
            if " " in name:
                raise MeshError(f"field name '{name}' contains spaces")
            if np.shape(arr) != shape:
                raise MeshError(f"{kind} field '{name}' must be {shape}")

    lines = ["# vtk DataFile Version 3.0", "maturesim result", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double"]
    lines.extend(_fmt(row) for row in mesh.nodes)
    lines.append(f"CELLS {e} {9 * e}")
    lines.extend("8 " + " ".join(str(i) for i in conn) for conn in mesh.hex8)
    lines.append(f"CELL_TYPES {e}")
    lines.extend([str(HEX_CELL_TYPE)] * e)
    if point_vectors:
        lines.append(f"POINT_DATA {n}")
        for name, arr in point_vectors.items():
            lines.append(f"VECTORS {name} double")
            lines.extend(_fmt(row) for row in np.asarray(arr, dtype=float))
    if cell_scalars:
        lines.append(f"CELL_DATA {e}")
        for name, arr in cell_scalars.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.9g}" for v in np.asarray(arr, dtype=float))
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
