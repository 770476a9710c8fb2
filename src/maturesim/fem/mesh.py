"""Hexahedral meshes, boundary sets and the clamped-strip generator.

Connectivity uses the standard 8-node brick corner order: the four corners
of the bottom face counter-clockwise (seen from +z), then the top face in
the same order.  Faces are addressed by (element, local face id); the local
corner order of each face is chosen so that (b - a) x (d - a) points out of
the element for corners (a, b, c, d).
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .._files import atomic_open
from ..errors import MeshError, check_range

# local face id -> corner slots, outward orientation
FACE_CORNERS = np.array([
    [0, 3, 2, 1],  # 0: zmin
    [4, 5, 6, 7],  # 1: zmax
    [0, 1, 5, 4],  # 2: ymin
    [3, 7, 6, 2],  # 3: ymax
    [0, 4, 7, 3],  # 4: xmin
    [1, 2, 6, 5],  # 5: xmax
])

# most elements of a strip: the solver holds a dense 24 x 24 block per
# element, 4.6 GB of tangent blocks at this size
_MAX_ELEMS = 10**6


@dataclass
class Mesh:
    """Reference geometry plus named node and face sets."""

    nodes: np.ndarray                      # (n_nodes, 3), mm
    hex8: np.ndarray                       # (n_elems, 8) corner indices
    node_sets: dict = field(default_factory=dict)   # name -> (m,) node ids
    face_sets: dict = field(default_factory=dict)   # name -> (m, 2) [elem, face]

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        self.hex8 = np.ascontiguousarray(self.hex8, dtype=int)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise MeshError(f"nodes must be (n, 3), got {self.nodes.shape}")
        if not np.all(np.isfinite(self.nodes)):
            raise MeshError("node coordinates must be finite")
        if self.hex8.ndim != 2 or self.hex8.shape[1] != 8:
            raise MeshError(f"hex8 must be (n, 8), got {self.hex8.shape}")
        n = len(self.nodes)
        if self.hex8.size and (self.hex8.min() < 0 or self.hex8.max() >= n):
            raise MeshError("hex8 references nodes outside the mesh")
        corners = np.sort(self.hex8, axis=1)
        repeats = np.any(corners[:, 1:] == corners[:, :-1], axis=1)
        if repeats.any():
            raise MeshError(f"element {int(np.argmax(repeats))} repeats a corner node")
        self.node_sets = {k: np.ascontiguousarray(v, dtype=int)
                          for k, v in self.node_sets.items()}
        for name, ids in self.node_sets.items():
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise MeshError(f"node set '{name}' is out of range")
        self.face_sets = {k: np.ascontiguousarray(v, dtype=int).reshape(-1, 2)
                          for k, v in self.face_sets.items()}
        for name, faces in self.face_sets.items():
            if faces.size == 0:
                continue
            if faces[:, 0].min() < 0 or faces[:, 0].max() >= len(self.hex8):
                raise MeshError(f"face set '{name}' references a missing element")
            if faces[:, 1].min() < 0 or faces[:, 1].max() > 5:
                raise MeshError(f"face set '{name}' uses a local face id "
                                "outside 0..5")

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elems(self):
        return len(self.hex8)

    def face_nodes(self, set_name):
        """Global corner ids (m, 4) of every face in a face set."""
        faces = self.face_sets[set_name]
        return self.hex8[faces[:, 0][:, None], FACE_CORNERS[faces[:, 1]]]


def strip_mesh(length, width, thickness, nx, ny, nz):
    """Structured grid over [0,l] x [0,w] x [0,t] with boundary sets.

    Node sets xmin/xmax/ymin/ymax/zmin/zmax collect the boundary planes;
    face sets 'bottom' (z = 0) and 'top' (z = t) carry pressure loads.
    The sizes must be positive and finite, the element counts whole numbers
    of at least 1 and at most 10**6 elements in all; MeshError if not.
    """
    check_range({"length": length, "width": width, "thickness": thickness}, 0.0,
                "positive and finite", error=MeshError)
    check_range({"nx": nx, "ny": ny, "nz": nz}, 1, "a whole number of at least 1",
                closed=True, integer=True, error=MeshError)
    nx, ny, nz = int(nx), int(ny), int(nz)
    check_range({"nx * ny * nz": nx * ny * nz}, 1, f"at most {_MAX_ELEMS}",
                high=_MAX_ELEMS, closed=True, error=MeshError)

    xs = np.linspace(0.0, float(length), nx + 1)
    ys = np.linspace(0.0, float(width), ny + 1)
    zs = np.linspace(0.0, float(thickness), nz + 1)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    ids = np.arange(len(nodes)).reshape(nx + 1, ny + 1, nz + 1)
    lo, hi = slice(None, -1), slice(1, None)
    # corner slots 0-3 on the lower z layer, 4-7 on the upper, each ccw
    conn = np.stack([ids[a, b, c].ravel() for c in (lo, hi)
                     for a, b in ((lo, lo), (hi, lo), (hi, hi), (lo, hi))], axis=1)
    elems = np.arange(nx * ny * nz).reshape(nx, ny, nz)
    node_sets = {
        "xmin": ids[0].ravel(), "xmax": ids[-1].ravel(),
        "ymin": ids[:, 0].ravel(), "ymax": ids[:, -1].ravel(),
        "zmin": ids[:, :, 0].ravel(), "zmax": ids[:, :, -1].ravel(),
    }
    face_sets = {name: np.stack([elems[:, :, k].ravel(), np.full(nx * ny, face)], axis=1)
                 for name, k, face in (("bottom", 0, 0), ("top", -1, 1))}
    return Mesh(nodes=nodes, hex8=conn, node_sets=node_sets, face_sets=face_sets)


def mesh_to_dict(mesh: Mesh):
    return {
        "nodes": mesh.nodes.tolist(),
        "hex8": mesh.hex8.tolist(),
        "node_sets": {k: v.tolist() for k, v in mesh.node_sets.items()},
        "face_sets": {k: v.tolist() for k, v in mesh.face_sets.items()},
    }


def mesh_from_dict(data):
    try:
        return Mesh(nodes=np.asarray(data["nodes"], dtype=float),
                    hex8=np.asarray(data["hex8"], dtype=int),
                    node_sets=data.get("node_sets", {}),
                    face_sets=data.get("face_sets", {}))
    except KeyError as exc:
        raise MeshError(f"mesh dictionary is missing key {exc}") from exc


def save_mesh(mesh: Mesh, path):
    with atomic_open(path) as fh:
        json.dump(mesh_to_dict(mesh), fh)
        fh.write("\n")


def load_mesh(path) -> Mesh:
    with open(path, "r", encoding="utf-8") as fh:
        return mesh_from_dict(json.load(fh))
