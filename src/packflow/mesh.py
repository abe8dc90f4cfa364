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

Storage is integer arrays in the layout the per-state kernels gather
with, side-major, halfedge style.  Side ``e`` of triangle ``t`` (and corner
``e``, which shares the numbering) is slot ``e F + t``: row ``e``, column
``t`` of a (3, F) array, so that side e of every face is one contiguous
row.  That is the one integer name of a slot; a person reads the pair
``(t, e)``, in gluings and in error messages.  ``_tri`` (3, F) holds the
corner labels, ``_edge_of`` (3, F) the edge id under each slot and
``_twin`` (3F,) the slot glued to each slot; per edge, ``_sides`` (2, E)
holds its first side and the side glued to it, and ``_ends`` (2, E) the
labels read off the first side, tail row first.  A flip rewrites two
triangles, six slots and five edge columns in place; a copy copies the
arrays.

Callers read the storage through read-only views, so no caller can
corrupt the complex, and a view follows later flips: ``triangles``,
``slot_edge_array`` and ``edge_endpoints_array`` (F, 3), (F, 3) and
(E, 2), and, for the kernels, ``corners``, ``edge_of``, ``ends`` and
``sides`` as stored.  ``gluings`` gives each edge's two sides as (t, e)
pairs, the form ``build_complex`` takes and dpm-1 writes.  Outside this
module a slot is only a flat index into a side-major (3, F) array;
``at_faces`` reads a per-face value at a slot and ``quads`` names the
slots around an edge, so no other module decodes the numbering.
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


# row r, column e: the offset, in rows, from side e of a triangle to its side (e + r) % 3
_TURN = np.array([[0, 0, 0], [1, 1, -2], [2, -1, -1]])


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


class DeltaComplex:
    """Closed oriented triangulated surface with marked vertices.

    Use :func:`build_complex` or :func:`infer_gluings` instead of the raw
    constructor; they run the full validation pass.  The constructor takes
    the corner labels (F, 3) and two arrays of stored slots ``e F + t``:
    ``twin`` (3F,), the slot glued to each slot (-1 where a side is
    unglued), and ``edge_side``, the first side of each edge, whose order
    fixes the edge ids.  It keeps ``twin`` as given and derives the rest of
    the storage (see the module docstring); it raises
    :class:`UnmatchedSlot` only where they name a slot the derivation
    cannot index.

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
        tri = np.array(triangles, dtype=np.int64).reshape(-1, 3)
        twin = np.array(twin, dtype=np.int64)
        first = np.array(edge_side, dtype=np.int64)
        slots = tri.size
        if (
            twin.shape != (slots,)
            or first.ndim != 1
            or np.any((first < 0) | (first >= slots))
            or np.any((twin[first] < 0) | (twin[first] >= slots))
        ):
            raise UnmatchedSlot(
                f"twin needs {slots} entries and every edge a first side glued to a side"
                f" in [0, {slots})"
            )
        self.num_vertices = int(num_vertices)
        self._tri = np.ascontiguousarray(tri.T)
        self._twin = twin
        self._sides = sides = np.stack([first, twin[first]])
        self._edge_of = np.full(self._tri.shape, -1, dtype=np.int64)
        self._edge_of.reshape(-1)[sides] = np.arange(sides.shape[1])
        heads = self._tri.take([1, 2, 0], axis=0)  # the head label of each side
        self._ends = np.stack([self._tri.take(sides[0]), heads.take(sides[0])])
        self.version = 0
        self.text_blocks: dict[str, str] | None = None

    # -- size and edge ids --------------------------------------------------

    @property
    def num_triangles(self) -> int:
        return self._tri.shape[1]

    @property
    def num_edges(self) -> int:
        return self._sides.shape[1]

    @property
    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_triangles

    @property
    def triangles(self) -> np.ndarray:
        """Corner labels, shape (F, 3), read-only."""
        return _read_only(self._tri.T)

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

    def gluings(self) -> np.ndarray:
        """(t, e) of the two sides of each edge, first side first, shape (E, 2, 2)."""
        e, t = np.divmod(self._sides.T, self.num_triangles)
        return np.stack([t, e], axis=-1)

    def slot_edge_array(self) -> np.ndarray:
        """Edge id under each (triangle, side) slot, shape (F, 3)."""
        return _read_only(self._edge_of.T)

    def edge_endpoints_array(self) -> np.ndarray:
        """Vertex labels by edge id, shape (E, 2)."""
        return _read_only(self._ends.T)

    # -- side-major views, the layout the per-state kernels gather with ---------
    # A side-major array is (3, F), row e holding side or corner e of every face;
    # ``sides`` and ``quads`` hold slots, flat indices into any such array.

    @property
    def corners(self) -> np.ndarray:
        """Corner labels, side-major (3, F), read-only."""
        return _read_only(self._tri)

    @property
    def edge_of(self) -> np.ndarray:
        """Edge id under each side, side-major (3, F), read-only."""
        return _read_only(self._edge_of)

    @property
    def ends(self) -> np.ndarray:
        """Tail and head labels of each edge, rows of shape (2, E), read-only."""
        return _read_only(self._ends)

    @property
    def sides(self) -> np.ndarray:
        """Slots of each edge's first side and of the side glued to it, (2, E), read-only."""
        return _read_only(self._sides)

    def at_faces(self, values: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """``values`` (F,), one per face, read at the face of each of ``slots``."""
        return values.take(slots, mode="wrap")  # slot e F + t wraps to t

    def quads(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Faces (2, B) over the first and second sides of ``edges`` (ids), and their
        slots (2, 3, B); each face's slots start at that side: the side, the next side,
        the previous side."""
        sides, f = self._sides[:, edges], self.num_triangles
        e = sides // f
        return sides - f * e, sides[:, None] + (f * _TURN).take(e, axis=1).swapaxes(0, 1)

    # -- mutation ------------------------------------------------------------

    def flip_many(self, edges: Sequence[int] | int) -> None:
        """Replace the two triangles sharing each edge of ``edges`` (one id or
        several) by the opposite pair.

        With a shared edge written i -> j, triangles (i, j, k) and
        (j, i, l) become (l, j, k) and (k, i, l); the four outer edges keep
        their ids and the flipped edge keeps its own id with new endpoints
        (k, l).  Purely combinatorial; lengths are the caller's business.
        No two of the edges may share a triangle, so each quad is rewritten
        on its own: 2B triangles, 6B slots and 5B edge columns, by fancy
        assignment.  An outer edge may still border two of the quads; its
        two sides are remapped together.  Raises MeshError for an id that
        is not an integer in range, a repeated id or two edges sharing a
        triangle, and SelfFlip for an edge with both sides on one triangle.
        A flip drops ``text_blocks``.
        """
        twin, sides = self._twin, self._sides
        f = self.num_triangles
        ids = self._edge_ids(edges).reshape(-1)
        t, slots = self.quads(ids)
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
        corners, edge_of = self._tri.reshape(-1), self._edge_of.reshape(-1)  # views
        k, l = ends = corners[slots[:, 2]]

        # where each outer side lands, keeping its tail: j -> k, k -> i, i -> l, l -> j
        old = slots[:, 1:].reshape(4, -1)
        b1, b2 = t  # side 0 of each face
        new = np.concatenate([b1 + f, b2, b2 + f, b1]).reshape(4, -1)
        remap = np.arange(twin.size)
        remap[old] = new
        partners, outer = remap[twin[old]], edge_of[old]
        twin[new], twin[partners] = partners, new
        edge_of[new] = outer
        # an outer edge with both sides in the quads is written twice, with one value
        sides[:, outer] = remap[sides[:, outer]]
        corners[new] = corners[old]

        # the new diagonal: k -> l on (l, j, k), l -> k on (k, i, l)
        d1, d2 = b1 + 2 * f, b2 + 2 * f
        twin[d1], twin[d2] = d2, d1
        edge_of[d1] = edge_of[d2] = ids
        sides[0, ids], sides[1, ids] = d1, d2
        corners[d1], corners[d2] = k, l
        self._ends[:, ids] = ends

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
        _check_labels(self.num_vertices, self._tri.T)
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
    """Everything but the labels, which ``_check_labels`` covers; on the storage's arrays.
    A fault names the first slot at fault in stored order, as (t, e) (``_named``)."""
    f, twin = mesh.num_triangles, mesh._twin
    s = np.arange(twin.size)
    lonely = np.flatnonzero((twin < 0) | (twin >= twin.size))
    if lonely.size:
        raise UnmatchedSlot(f"sides missing from the gluing: {_named(lonely[:4], f)}")
    unpaired = np.flatnonzero((twin == s) | (twin[twin] != s))
    if unpaired.size:
        a = unpaired[0]
        named, glued = _named([a, twin[a]], f)
        raise UnmatchedSlot(
            f"slot {named} glued to itself" if named == glued
            else f"gluing is not an involution at {named} <-> {glued}"
        )
    labels = mesh._tri.ravel()
    head = mesh._tri.take([1, 2, 0], axis=0).ravel()  # the head label of each side
    twisted = np.flatnonzero((labels != head[twin]) | (head != labels[twin]))
    if twisted.size:
        a = twisted[0]
        p = twin[a]
        named, glued = _named([a, p], f)
        raise OrientationMismatch(
            f"slots {named} ({labels[a]}->{head[a]}) and {glued}"
            f" ({labels[p]}->{head[p]} reversed) disagree on labels"
        )

    # edge table consistent with the gluing: the edge under each side, tail and head
    edge_of = mesh._edge_of.ravel()
    if np.any(edge_of < 0):
        raise UnmatchedSlot("edge table does not cover every side")
    (first, second), (tails, heads) = mesh._sides, mesh._ends
    ids = np.arange(mesh.num_edges)
    rows = np.flatnonzero(
        (edge_of[first] != ids) | (edge_of[second] != ids) | (second != twin[first])
        | (labels[first] != tails) | (head[first] != heads)
    )
    if rows.size:
        raise MeshError(f"edge table row {rows[0]} disagrees with the gluing")

    # corner orbits must match the labels one-to-one; pointer doubling marks each
    # orbit by its least corner, and glued sides agree on labels (checked above);
    # step is the twin of each previous side
    rep, step = s, twin.reshape(3, f).take([2, 0, 1], axis=0).ravel()
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
    across = (twin - f * (twin // f)).reshape(3, f)  # (3, F): a minimum over sides reads rows
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


def _named(slots, f: int) -> list[tuple[int, int]]:
    """The (t, e) of each of ``slots``, as a person reads them."""
    return [(a % f, a // f) for a in np.asarray(slots).tolist()]


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
    f, tri, side = len(labels), pairs[..., 0], pairs[..., 1]
    outside = (tri < 0) | (tri >= f) | (side < 0) | (side >= 3)
    if outside.any():
        slot = tuple(pairs.reshape(-1, 2)[np.argmax(outside)].tolist())
        raise UnmatchedSlot(f"gluing references slot {slot} outside the complex")
    slots = side * f + tri
    uses = np.bincount(slots.ravel(), minlength=labels.size)
    if uses.max() > 1:
        raise UnmatchedSlot(f"slot {_named([np.argmax(uses > 1)], f)[0]} is glued more than once")
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
