"""Triangulated closed oriented surfaces with explicit side gluings.

A surface is stored as a list of corner-labeled triangles plus a perfect
matching on triangle sides.  Side ``e`` of triangle ``t`` is the directed
edge from corner ``e`` to corner ``(e + 1) % 3``; a matched pair of sides
is traversed in opposite directions, so the whole complex is oriented by
construction.  Nothing assumes the triangulation is simplicial: loops
(both endpoints the same vertex) and multiple edges between one vertex
pair are legal, which is what surgery on small flat tori produces.

Vertex labels name marked points.  Construction is whole-array passes with
no Python loop per triangle or side: ``build_complex`` converts triangles
and gluings (nested lists or integer arrays) once and checks them,
including that the corner orbits the gluing forces match the labels
one-to-one (pointer doubling), so a label always means one point of the
surface, and that the faces are connected (hooking and pointer jumping).
``infer_gluings`` pairs the sides by one sort of their vertex pairs.  Python
walks the input only to name the first bad triangle; a non-integer vertex
id or slot is rejected, never truncated.

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

from typing import Sequence

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


# row r, column e: the offset from side e of a triangle to its side (e + r) % 3
_TURN = np.array([[0, 0, 0], [1, 1, -2], [2, -1, -1]])


def _quads(twin: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Faces (2, B) of the sides ``first`` and of their twins, and their slots (2, 3, B).

    Each face's slots start at that side: the side, the next side, the previous side.
    """
    sides = np.concatenate([first, twin[first]]).reshape(2, -1)
    t = sides // 3
    return t, sides[:, None] + _TURN.take(sides - 3 * t, axis=1).swapaxes(0, 1)


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

    ``version`` counts flips.  ``text_blocks`` is None, or the dpm-1 text
    of the ``triangles`` and ``gluings`` blocks that this complex was
    parsed from, by block name, as far as they were read from the text;
    ``formats.emit_dpm`` writes those blocks as read.  A copy keeps it, and
    a flip sets it to None.
    """

    def __init__(
        self,
        num_vertices: int,
        triangles: Sequence[Sequence[int]],
        twin: Sequence[int],
        edge_side: Sequence[int],
    ):
        self.num_vertices = int(num_vertices)
        self._tri = np.array(triangles, dtype=np.int64, order="C").reshape(-1, 3)
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
        heads = self._tri[:, [1, 2, 0]].ravel()  # the head label of each side
        self._edge_ends = np.stack([self._tri.ravel()[first], heads[first]], axis=1)
        self.version = 0
        self.text_blocks: dict[str, str] | None = None

    # -- size and edge ids --------------------------------------------------

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

    def _edge_ids(self, edges) -> np.ndarray:
        """``edges`` (one id or a sequence) as int64, or MeshError naming the first bad id."""
        ids = np.asarray(edges)
        if ids.size and ids.dtype.kind not in "iu":
            raise MeshError(f"edge ids must be integers, not {ids.dtype}")
        outside = (ids < 0) | (ids >= self.num_edges)
        if outside.any():
            raise MeshError(f"edge id {ids[outside].flat[0]} outside [0, {self.num_edges})")
        return ids.astype(np.int64)

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

    def flip_many(self, edges: Sequence[int] | int) -> None:
        """Replace the two triangles sharing each edge of ``edges`` (one id or
        several) by the opposite pair.

        With a shared edge written i -> j, triangles (i, j, k) and
        (j, i, l) become (l, j, k) and (k, i, l); the four outer edges keep
        their ids and the flipped edge keeps its own id with new endpoints
        (k, l).  Purely combinatorial; lengths are the caller's business.
        No two of the edges may share a triangle, so each quad is rewritten
        on its own: 2B triangles, 6B slots and 5B edge rows, by fancy
        assignment.  An outer edge may still border two of the quads; its
        two sides are remapped together.  Raises MeshError for an id that
        is not an integer in range, a repeated id or two edges sharing a
        triangle, and SelfFlip for an edge with both sides on one triangle.
        A flip drops ``text_blocks``.
        """
        twin, edge_of, edge_side = self._twin, self._edge_of, self._edge_side
        ids = self._edge_ids(edges).reshape(-1)
        t, slots = _quads(twin, edge_side[ids])
        lone = np.flatnonzero(t[0] == t[1])
        if lone.size:
            raise SelfFlip(
                f"edge {ids[lone[0]]} has both sides on triangle {t[0, lone[0]]}; flip undefined"
            )
        if np.bincount(t.ravel(), minlength=1).max() > 1:  # name the first pair in face order
            faces = t.T.ravel()
            order = np.argsort(faces, kind="stable")
            shared = np.flatnonzero(faces[order][1:] == faces[order][:-1])
            a, b = ids[order[shared[0] : shared[0] + 2] // 2].tolist()
            raise MeshError(
                f"edge {a} appears twice in one flip" if a == b
                else f"edges {a} and {b} share triangle {faces[order[shared[0]]]}; flipped"
                " edges must not share a triangle"
            )
        corners = self._tri.reshape(-1)  # a view: the constructor stores C order
        k, l = corners[slots[:, 2]]

        # where each outer side lands, keeping its tail: j -> k, k -> i, i -> l, l -> j
        old = slots[:, 1:].reshape(4, -1)
        b1, b2 = 3 * t  # the first slot of each face
        new = np.concatenate([b1 + 1, b2, b2 + 1, b1]).reshape(4, -1)
        remap = np.arange(twin.size)
        remap[old] = new
        partners, outer = remap[twin[old]], edge_of[old]
        twin[new], twin[partners] = partners, new
        edge_of[new] = outer
        # an outer edge with both sides in the quads is written twice, with one value
        edge_side[outer] = remap[edge_side[outer]]
        corners[new] = corners[old]

        # the new diagonal: k -> l on (l, j, k), l -> k on (k, i, l)
        d1, d2 = b1 + 2, b2 + 2
        twin[d1], twin[d2] = d2, d1
        edge_of[d1] = edge_of[d2] = ids
        edge_side[ids] = d1
        corners[d1], corners[d2] = k, l
        self._edge_ends[ids] = np.stack([k, l], axis=1)

        self.version += 1
        self.text_blocks = None

    flip = flip_many  # one edge id or several

    def copy(self) -> "DeltaComplex":
        dup = DeltaComplex.__new__(DeltaComplex)
        dup.__dict__.update(
            (k, v.copy() if isinstance(v, np.ndarray) else v) for k, v in vars(self).items()
        )
        return dup

    # -- validation ------------------------------------------------------------

    def check(self) -> None:
        """Re-run the structural invariants; raises on any violation."""
        _check_labels(self.num_vertices, self._tri)
        _validate(self)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DeltaComplex(V={self.num_vertices}, E={self.num_edges},"
            f" F={self.num_triangles}, chi={self.euler_characteristic})"
        )


def _check_labels(n: int, triangles: Sequence[Sequence[int]]) -> np.ndarray:
    """Corner labels of three-corner triangles as an (F, 3) int64 array.

    One conversion and whole-array checks; the input is walked in Python only
    to name the first bad triangle, by its own value, so that ids beyond int64
    (which the conversion turns into floats or objects) are named exactly.
    """
    try:
        tris = np.array(triangles)
    except ValueError:  # ragged rows
        tris = None
    if len(triangles) and (tris is None or tris.shape[1:] != (3,)):
        short = next((t for t, tri in enumerate(triangles) if len(tri) != 3), None)
        if short is None:
            raise MeshError("vertex ids must be integers")
        raise MeshError(f"triangle {short} does not have three corners")
    if n <= 0:
        raise MeshError("num_vertices must be positive")
    if not len(triangles):
        raise MeshError("no triangles")
    if n > tris.size:
        raise UnusedVertex(f"{n} vertex labels but only {tris.size} corners to use them")
    outside = (tris < 0) | (tris >= n)
    if outside.any():
        t, e = divmod(int(np.argmax(outside)), 3)
        raise MeshError(f"triangle {t} references vertex {triangles[t][e]} outside [0, {n})")
    if tris.dtype.kind not in "iu":
        raise MeshError(f"vertex ids must be integers, not {tris.dtype}")
    labels = tris.astype(np.int64, copy=False)  # in range and n <= 3F
    missing = np.flatnonzero(np.bincount(labels.ravel(), minlength=n) == 0)
    if missing.size:
        raise UnusedVertex(f"vertex labels never used: {missing.tolist()}")
    return labels


def _validate(mesh: DeltaComplex) -> None:
    """Everything but the labels, which ``_check_labels`` covers; on arrays, in slot order."""
    labels, twin = mesh._tri.ravel(), mesh._twin
    s = np.arange(twin.size)
    lonely = [divmod(x, 3) for x in np.flatnonzero((twin < 0) | (twin >= twin.size)).tolist()]
    if lonely:
        raise UnmatchedSlot(f"sides missing from the gluing: {lonely[:4]}")
    unpaired = np.flatnonzero((twin == s) | (twin[twin] != s)).tolist()
    if unpaired:
        a, p = unpaired[0], twin.item(unpaired[0])
        raise UnmatchedSlot(
            f"slot {divmod(a, 3)} glued to itself" if a == p
            else f"gluing is not an involution at {divmod(a, 3)} <-> {divmod(p, 3)}"
        )
    head = mesh._tri[:, [1, 2, 0]].ravel()  # the head label of each side
    twisted = np.flatnonzero((labels != head[twin]) | (head != labels[twin])).tolist()
    if twisted:
        a, p = twisted[0], twin.item(twisted[0])
        raise OrientationMismatch(
            f"slots {divmod(a, 3)} ({labels[a]}->{head[a]}) and {divmod(p, 3)}"
            f" ({labels[p]}->{head[p]} reversed) disagree on labels"
        )

    # edge table consistent with the gluing: the edge under each side, tail and head
    if np.any(mesh._edge_of < 0):
        raise UnmatchedSlot("edge table does not cover every side")
    first, ids, ends = mesh._edge_side, np.arange(mesh.num_edges), mesh._edge_ends
    rows = np.flatnonzero(
        (mesh._edge_of[first] != ids) | (mesh._edge_of[twin[first]] != ids)
        | (labels[first] != ends[:, 0]) | (head[first] != ends[:, 1])
    )
    if rows.size:
        raise MeshError(f"edge table row {rows[0]} disagrees with the gluing")

    # corner orbits must match the labels one-to-one; pointer doubling marks each
    # orbit by its least corner, and glued sides agree on labels (checked above)
    rep, step = s, twin.reshape(-1, 3)[:, [2, 0, 1]].ravel()  # the twin of each previous side
    for _ in range(_orbit_rounds(labels)):
        rep, step = np.minimum(rep, rep[step]), step[step]
    orbits = np.bincount(labels[rep == s], minlength=mesh.num_vertices)
    if orbits.max() > 1:
        raise InconsistentVertexLabels(
            f"vertex label {np.argmax(orbits > 1)} names two distinct points of the surface"
        )

    # connectivity through shared edges: hook each face's root onto the least
    # root across its sides, jump pointers until every face points at a root,
    # and repeat until no side joins two roots
    across = (twin // 3).reshape(-1, 3).T.copy()  # (3, F): a minimum over sides reads rows
    root = np.arange(mesh.num_triangles)
    while True:
        low = np.minimum(root, root[across].min(axis=0))
        if np.array_equal(low, root):
            break
        np.minimum.at(root, root.copy(), low)  # indices copied: the call writes root
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    reached = np.count_nonzero(root == root[0])
    if reached != mesh.num_triangles:
        raise DisconnectedSurface(
            f"only {reached} of {mesh.num_triangles} triangles reachable from triangle 0"
        )

    if mesh.euler_characteristic % 2 != 0:
        raise MeshError(
            f"Euler characteristic {mesh.euler_characteristic} is odd; not a closed surface"
        )


def _orbit_rounds(labels: np.ndarray) -> int:
    """Pointer-doubling rounds that cover every corner orbit: 2**rounds corners.

    A corner orbit keeps one label once glued sides agree on labels, so no
    orbit is longer than the number of corners its label has.
    """
    return int(np.bincount(labels).max()).bit_length()


def build_complex(
    num_vertices: int,
    triangles: Sequence[Sequence[int]],
    gluings: Sequence[tuple[Slot, Slot]],
) -> DeltaComplex:
    """Assemble and validate a closed surface from explicit side gluings.

    ``triangles`` (F, 3) and ``gluings`` (E, 2, 2) are nested sequences or
    integer arrays.  Edge ids follow the order of ``gluings``; the arrays in
    a decorated metric are aligned with these ids.
    """
    labels = _check_labels(int(num_vertices), triangles)
    try:  # a non-integer entry or a ragged pair fails the conversion
        pairs = np.array(gluings, dtype=None if len(gluings) else np.int64)
        pairs = pairs.astype(np.int64, casting="safe", copy=False).reshape(len(gluings), 2, 2)
    except (TypeError, ValueError):
        raise UnmatchedSlot("gluings must be pairs of (triangle, side) slots of integers") from None
    tri, side = pairs[..., 0], pairs[..., 1]
    outside = (tri < 0) | (tri >= len(labels)) | (side < 0) | (side >= 3)
    if outside.any():
        slot = tuple(pairs.reshape(-1, 2)[np.argmax(outside)].tolist())
        raise UnmatchedSlot(f"gluing references slot {slot} outside the complex")
    slots = 3 * tri + side
    uses = np.bincount(slots.ravel(), minlength=labels.size)
    if uses.max() > 1:
        raise UnmatchedSlot(f"slot {divmod(int(np.argmax(uses > 1)), 3)} is glued more than once")
    twin = np.full(labels.size, -1)
    twin[slots] = slots[:, ::-1]
    mesh = DeltaComplex(num_vertices, labels, twin, slots[:, 0])
    _validate(mesh)
    return mesh


def infer_gluings(num_vertices: int, triangles: Sequence[Sequence[int]]) -> DeltaComplex:
    """Build a complex from triangles alone; works only on simplicial data.

    Every unordered vertex pair must appear on exactly two sides.  The
    one-vertex torus and other self-glued configurations need explicit
    gluings and are rejected with :class:`NonSimplicial`.  Edge ids follow
    the first side of each pair in slot order.
    """
    # a short triangle or a fractional label such as 2.9 raises here,
    # before the side pairing indexes the corners or truncates the label
    n = int(num_vertices)
    labels = _check_labels(n, triangles)
    tails, heads = labels.ravel(), labels[:, [1, 2, 0]].ravel()
    lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
    _, pair_of, uses = np.unique(lo * n + hi, return_inverse=True, return_counts=True)
    # the first side of a bad pair in slot order is that of the first bad pair met
    lone = np.flatnonzero(uses[pair_of] != 2)
    if lone.size:
        s = lone[0]
        raise NonSimplicial(
            f"vertex pair {(lo.item(s), hi.item(s))} appears on {uses[pair_of[s]]} sides;"
            " gluings must be explicit"
        )
    sides = np.argsort(pair_of, kind="stable").reshape(-1, 2)
    sides = sides[np.argsort(sides[:, 0])]
    return build_complex(num_vertices, labels, np.stack(np.divmod(sides, 3), axis=-1))
