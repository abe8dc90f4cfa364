"""Triangulated closed oriented surfaces with explicit side gluings.

A surface is stored as a list of corner-labeled triangles plus a perfect
matching on triangle sides.  Side ``e`` of triangle ``t`` is the directed
edge from corner ``e`` to corner ``(e + 1) % 3``; a matched pair of sides
is traversed in opposite directions, so the whole complex is oriented by
construction.  Nothing assumes the triangulation is simplicial: loops
(both endpoints the same vertex) and multiple edges between one vertex
pair are legal, which is what surgery on small flat tori produces.

Vertex labels name marked points.  Validation checks that the corner
identification forced by the gluings agrees with the labels, so a label
always means one point of the surface.

Storage is flat integer arrays, halfedge style.  Side ``e`` of triangle
``t`` is slot ``s = 3 t + e`` (corner ``c`` of ``t`` shares the numbering).
``triangles`` (F, 3) holds the corner labels, ``twin[s]`` the slot glued to
``s``, ``edge_of[s]`` the edge id under ``s``; per edge, ``edge_side`` holds
its first side and ``edge_ends`` (E, 2) the labels read off that side, tail
first.  A flip rewrites two triangles, six slots and five edge rows in
place; a copy copies the arrays.  ``triangles``, ``slot_edge_array`` and
``edge_endpoints_array`` return read-only views of the storage, so no
caller can corrupt the complex; a view follows later flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DisconnectedSurface,
    InconsistentVertexLabels,
    MeshError,
    NonSimplicial,
    OrientationMismatch,
    SelfFlip,
    UnmatchedSlot,
    UnusedVertex,
)

Slot = tuple[int, int]


@dataclass(frozen=True)
class EdgeHandle:
    """Stable reference to one edge of the complex.

    ``sides`` are the two glued (triangle, side) slots; ``endpoints`` are
    the vertex labels read off the first side, tail first.
    """

    id: int
    endpoints: tuple[int, int]
    sides: tuple[Slot, Slot]

    @property
    def is_loop(self) -> bool:
        return self.endpoints[0] == self.endpoints[1]


def _next_slot(s):
    """Slot of the next side of the same triangle (scalar or array)."""
    return s - s % 3 + (s + 1) % 3


def _prev_slot(s):
    """Slot of the previous side of the same triangle: the side arriving at corner s."""
    return s - s % 3 + (s + 2) % 3


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


class DeltaComplex:
    """Closed oriented triangulated surface with marked vertices.

    Use :func:`build_complex` or :func:`infer_gluings` instead of the raw
    constructor; they run the full validation pass.  The constructor takes
    the corner labels, ``twin`` (slot numbers, -1 where a side is unglued)
    and ``edge_side`` (the first side of each edge, whose order fixes the
    edge ids) and derives the rest; it raises :class:`UnmatchedSlot` only
    where they name a slot the derivation cannot index.
    """

    def __init__(
        self,
        num_vertices: int,
        triangles: Sequence[Sequence[int]],
        twin: Sequence[int],
        edge_side: Sequence[int],
    ):
        self.num_vertices = int(num_vertices)
        self._tri = np.array(triangles, dtype=np.int64).reshape(-1, 3)
        self._twin = np.array(twin, dtype=np.int64)
        self._edge_side = first = np.array(edge_side, dtype=np.int64)
        slots = self._tri.size
        if (
            self._twin.shape != (slots,)
            or first.ndim != 1
            or np.any((first < 0) | (first >= slots))
            or np.any((self._twin[first] < 0) | (self._twin[first] >= slots))
        ):
            raise UnmatchedSlot(
                f"twin needs {slots} entries and every edge a first side glued to a side"
                f" in [0, {slots})"
            )
        ids = np.arange(first.size)
        self._edge_of = np.full(self._twin.size, -1, dtype=np.int64)
        self._edge_of[self._edge_side] = ids
        self._edge_of[self._twin[self._edge_side]] = ids
        corners = self._tri.ravel()
        self._edge_ends = np.stack(
            [corners[self._edge_side], corners[_next_slot(self._edge_side)]], axis=1
        )
        self.version = 0

    # -- size and lookup ----------------------------------------------------

    @property
    def num_triangles(self) -> int:
        return self._tri.shape[0]

    @property
    def num_edges(self) -> int:
        return self._edge_side.size

    @property
    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_triangles

    @property
    def triangles(self) -> np.ndarray:
        """Corner labels, shape (F, 3), read-only."""
        return _read_only(self._tri)

    def _slot_index(self, slot: Slot) -> int:
        t, e = slot
        if not (0 <= t < self.num_triangles and 0 <= e < 3):
            raise KeyError(slot)
        return 3 * t + e

    def slot_edge(self, slot: Slot) -> int:
        return self._edge_of.item(self._slot_index(slot))

    def edge(self, edge_id: int) -> EdgeHandle:
        s1 = self._edge_side.item(edge_id)
        s2 = self._twin.item(s1)
        ends = (self._edge_ends.item(edge_id, 0), self._edge_ends.item(edge_id, 1))
        return EdgeHandle(edge_id, ends, (divmod(s1, 3), divmod(s2, 3)))

    # -- index arrays (read-only views of the storage) ------------------------

    def edge_sides_array(self) -> np.ndarray:
        """Slots of the two sides of each edge, first side first, shape (E, 2)."""
        return np.stack([self._edge_side, self._twin[self._edge_side]], axis=1)

    def slot_edge_array(self) -> np.ndarray:
        """Edge id under each (triangle, side) slot, shape (F, 3)."""
        return _read_only(self._edge_of.reshape(-1, 3))

    def edge_endpoints_array(self) -> np.ndarray:
        """Vertex labels by edge id, shape (E, 2)."""
        return _read_only(self._edge_ends)

    # -- mutation ------------------------------------------------------------

    def flip(self, edge_id: int) -> None:
        """Replace the two triangles sharing ``edge_id`` by the opposite pair.

        With the shared edge written i -> j, triangles (i, j, k) and
        (j, i, l) become (l, j, k) and (k, i, l); the four outer edges keep
        their ids and the flipped edge keeps its own id with new endpoints
        (k, l).  Purely combinatorial; lengths are the caller's business.
        """
        twin, edge_of, edge_side = self._twin, self._edge_of, self._edge_side
        t1, e1 = divmod(edge_side.item(edge_id), 3)
        t2, e2 = divmod(twin.item(3 * t1 + e1), 3)
        if t1 == t2:
            raise SelfFlip(
                f"edge {edge_id} has both sides on triangle {t1}; flip undefined"
            )
        tri1, tri2 = self._tri[[t1, t2]].tolist()
        i, j, k = tri1[e1], tri1[(e1 + 1) % 3], tri1[(e1 + 2) % 3]
        l = tri2[(e2 + 2) % 3]

        # where each outer side lands: j -> k, k -> i, i -> l, l -> j
        remap = {
            3 * t1 + (e1 + 1) % 3: 3 * t1 + 1,
            3 * t1 + (e1 + 2) % 3: 3 * t2,
            3 * t2 + (e2 + 1) % 3: 3 * t2 + 1,
            3 * t2 + (e2 + 2) % 3: 3 * t1,
        }
        partners = {s: twin.item(s) for s in remap}
        outer_edges = {s: edge_of.item(s) for s in remap}
        # keyed by edge id: an outer edge with both sides on the two flipped
        # triangles has its row remapped once, not once per side
        first_sides = {eid: edge_side.item(eid) for eid in outer_edges.values()}

        for s, new_s in remap.items():
            new_p = remap.get(partners[s], partners[s])
            twin[new_s] = new_p
            twin[new_p] = new_s
            edge_of[new_s] = outer_edges[s]
        for eid, s in first_sides.items():
            edge_side[eid] = remap.get(s, s)

        d1, d2 = 3 * t1 + 2, 3 * t2 + 2
        twin[d1], twin[d2] = d2, d1
        edge_of[d1] = edge_of[d2] = edge_id
        edge_side[edge_id] = d1
        self._edge_ends[edge_id] = (k, l)
        self._tri[t1] = (l, j, k)
        self._tri[t2] = (k, i, l)

        self.version += 1

    def copy(self) -> "DeltaComplex":
        dup = DeltaComplex.__new__(DeltaComplex)
        dup.__dict__.update(
            (k, v.copy() if isinstance(v, np.ndarray) else v) for k, v in vars(self).items()
        )
        return dup

    # -- validation ------------------------------------------------------------

    def check(self) -> None:
        """Re-run the structural invariants; raises on any violation."""
        _check_labels(self.num_vertices, self._tri.ravel().tolist())
        _validate(self)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DeltaComplex(V={self.num_vertices}, E={self.num_edges},"
            f" F={self.num_triangles}, chi={self.euler_characteristic})"
        )


def _check_labels(n: int, corners: Sequence[int]) -> None:
    """Flat corner labels as Python ints, so ids beyond int64 fail here too."""
    if n <= 0:
        raise MeshError("num_vertices must be positive")
    if not corners:
        raise MeshError("no triangles")
    if min(corners) < 0 or max(corners) >= n:
        s = next(s for s, c in enumerate(corners) if not 0 <= c < n)
        raise MeshError(f"triangle {s // 3} references vertex {corners[s]} outside [0, {n})")


def _validate(mesh: DeltaComplex) -> None:
    """Everything but the label range, which ``_check_labels`` covers."""
    n = mesh.num_vertices
    corners = mesh._tri.ravel()
    labels = corners.tolist()
    if n > corners.size:
        raise UnusedVertex(f"{n} vertex labels but only {corners.size} corners to use them")
    missing = np.setdiff1d(np.arange(n), corners)
    if missing.size:
        raise UnusedVertex(f"vertex labels never used: {missing.tolist()}")

    num_slots = corners.size
    glued = mesh._twin.tolist()
    lonely = [divmod(s, 3) for s, p in enumerate(glued) if not 0 <= p < num_slots]
    if lonely:
        raise UnmatchedSlot(f"sides missing from the gluing: {lonely[:4]}")
    for s, p in enumerate(glued):
        if s == p:
            raise UnmatchedSlot(f"slot {divmod(s, 3)} glued to itself")
        if glued[p] != s:
            raise UnmatchedSlot(f"gluing is not an involution at {divmod(s, 3)} <-> {divmod(p, 3)}")
        a, b = labels[s], labels[_next_slot(s)]
        b2, a2 = labels[p], labels[_next_slot(p)]
        if (a, b) != (a2, b2):
            raise OrientationMismatch(
                f"slots {divmod(s, 3)} ({a}->{b}) and {divmod(p, 3)} ({b2}->{a2} reversed)"
                " disagree on labels"
            )

    # edge table consistent with the gluing
    edge_of = mesh._edge_of.tolist()
    if -1 in edge_of:
        raise UnmatchedSlot("edge table does not cover every side")
    rows = zip(mesh._edge_side.tolist(), mesh._edge_ends.tolist())
    for eid, (s, ends) in enumerate(rows):
        if edge_of[s] != eid or edge_of[glued[s]] != eid or ends != [labels[s], labels[_next_slot(s)]]:
            raise MeshError(f"edge table row {eid} disagrees with the gluing")

    # corner orbits around vertices must match the labels one-to-one; each
    # orbit starts at the first corner, in (triangle, corner) order, that
    # no earlier orbit visited.  Glued sides agree on labels (checked
    # above), so every corner of an orbit carries the label of its start.
    visited = bytearray(num_slots)
    orbit_labels: set[int] = set()
    for start in range(num_slots):
        if visited[start]:
            continue
        label = labels[start]
        cur = start
        while True:
            visited[cur] = 1
            cur = glued[_prev_slot(cur)]
            if cur == start:
                break
        if label in orbit_labels:
            raise InconsistentVertexLabels(
                f"vertex label {label} names two distinct points of the surface"
            )
        orbit_labels.add(label)

    # connectivity through shared edges
    seen = {0}
    stack = [0]
    while stack:
        t = stack.pop()
        for s in range(3 * t, 3 * t + 3):
            t2 = glued[s] // 3
            if t2 not in seen:
                seen.add(t2)
                stack.append(t2)
    if len(seen) != mesh.num_triangles:
        raise DisconnectedSurface(
            f"only {len(seen)} of {mesh.num_triangles} triangles reachable from triangle 0"
        )

    if mesh.euler_characteristic % 2 != 0:
        raise MeshError(
            f"Euler characteristic {mesh.euler_characteristic} is odd; not a closed surface"
        )


def _as_slot(pair) -> Slot:
    return int(pair[0]), int(pair[1])


def build_complex(
    num_vertices: int,
    triangles: Sequence[Sequence[int]],
    gluings: Iterable[tuple[Slot, Slot]],
) -> DeltaComplex:
    """Assemble and validate a closed surface from explicit side gluings.

    Edge ids follow the order of ``gluings``; the arrays in a decorated
    metric are aligned with these ids.
    """
    tris = [tuple(int(c) for c in tri) for tri in triangles]
    for t, tri in enumerate(tris):
        if len(tri) != 3:
            raise MeshError(f"triangle {t} does not have three corners")
    twin = [-1] * (3 * len(tris))
    edge_side = []
    for pair in gluings:
        s1, s2 = _as_slot(pair[0]), _as_slot(pair[1])
        for s in (s1, s2):
            if not (0 <= s[0] < len(tris)) or not (0 <= s[1] < 3):
                raise UnmatchedSlot(f"gluing references slot {s} outside the complex")
            if twin[3 * s[0] + s[1]] >= 0:
                raise UnmatchedSlot(f"slot {s} appears in more than one gluing")
        if s1 == s2:
            raise UnmatchedSlot(f"slot {s1} glued to itself")
        a, b = 3 * s1[0] + s1[1], 3 * s2[0] + s2[1]
        twin[a], twin[b] = b, a
        edge_side.append(a)
    _check_labels(int(num_vertices), [c for tri in tris for c in tri])
    mesh = DeltaComplex(int(num_vertices), tris, twin, edge_side)
    _validate(mesh)
    return mesh


def infer_gluings(num_vertices: int, triangles: Sequence[Sequence[int]]) -> DeltaComplex:
    """Build a complex from triangles alone; works only on simplicial data.

    Every unordered vertex pair must appear on exactly two sides.  The
    one-vertex torus and other self-glued configurations need explicit
    gluings and are rejected with :class:`NonSimplicial`.
    """
    tris = [tuple(int(c) for c in tri) for tri in triangles]
    by_pair: dict[tuple[int, int], list[Slot]] = {}
    order: list[tuple[int, int]] = []
    for t, tri in enumerate(tris):
        for e in range(3):
            a, b = tri[e], tri[(e + 1) % 3]
            key = (min(a, b), max(a, b))
            if key not in by_pair:
                by_pair[key] = []
                order.append(key)
            by_pair[key].append((t, e))
    gluings = []
    for key in order:
        slots = by_pair[key]
        if len(slots) != 2:
            raise NonSimplicial(
                f"vertex pair {key} appears on {len(slots)} sides; gluings must be explicit"
            )
        gluings.append((slots[0], slots[1]))
    return build_complex(num_vertices, tris, gluings)
