from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from packflow import (
    DeltaComplex,
    DisconnectedSurface,
    FlipProducesDegenerate,
    InconsistentVertexLabels,
    MeshError,
    NonSimplicial,
    OrientationMismatch,
    SelfFlip,
    UnmatchedSlot,
    UnusedVertex,
    build_complex,
    curvature,
    flip_metric,
    infer_gluings,
    preset_complex,
    preset_metric,
    triangle_angles,
    triangle_areas,
)
from packflow import mesh as mesh_module
from packflow.formats import parse_dpm
from packflow.oracles import RandomMetricSpec, random_metric

MESH_DIR = Path(__file__).resolve().parents[1] / "meshes"

TETRA_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]

SPHERE2_FACES = [(0, 1, 2), (2, 1, 0)]
SPHERE2_GLUINGS = [((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 2), (1, 2))]


def test_tetrahedron_counts():
    mesh = infer_gluings(4, TETRA_FACES)
    assert mesh.num_vertices == 4
    assert mesh.num_edges == 6
    assert mesh.num_triangles == 4
    assert mesh.euler_characteristic == 2
    mesh.check()


def _degrees(mesh: DeltaComplex) -> np.ndarray:
    """Corners per vertex label; validation makes each label one corner orbit."""
    return np.bincount(mesh.triangles.ravel(), minlength=mesh.num_vertices)


def test_tetrahedron_stars_are_cyclic_and_degree_three():
    mesh = infer_gluings(4, TETRA_FACES)
    mesh.check()
    assert _degrees(mesh).tolist() == [3, 3, 3, 3]


def test_preset_counts_match_hand_counts():
    octa = preset_complex("octahedron")
    assert (octa.num_vertices, octa.num_edges, octa.num_triangles) == (6, 12, 8)
    assert octa.euler_characteristic == 2
    assert set(_degrees(octa).tolist()) == {4}

    ico = preset_complex("icosahedron")
    assert (ico.num_vertices, ico.num_edges, ico.num_triangles) == (12, 30, 20)
    assert ico.euler_characteristic == 2
    assert set(_degrees(ico).tolist()) == {5}

    torus = preset_complex("torus_grid", n=3)
    assert (torus.num_vertices, torus.num_edges, torus.num_triangles) == (9, 27, 18)
    assert torus.euler_characteristic == 0
    assert set(_degrees(torus).tolist()) == {6}


def test_one_vertex_torus_is_all_loops():
    mesh = preset_complex("one_vertex_torus")
    assert mesh.num_vertices == 1
    assert mesh.num_edges == 3
    assert mesh.euler_characteristic == 0
    ends = mesh.edge_endpoints_array()
    assert np.array_equal(ends[:, 0], ends[:, 1])
    assert _degrees(mesh).tolist() == [6]


def test_infer_gluings_matches_explicit_build():
    inferred = infer_gluings(3, SPHERE2_FACES)
    explicit = build_complex(3, SPHERE2_FACES, SPHERE2_GLUINGS)
    assert np.array_equal(inferred.triangles, explicit.triangles)
    assert inferred.num_edges == explicit.num_edges
    ends_a = set(map(tuple, inferred.edge_endpoints_array().tolist()))
    ends_b = set(map(tuple, explicit.edge_endpoints_array().tolist()))
    assert ends_a == ends_b


def test_infer_gluings_rejects_self_glued_data():
    # the one-vertex torus has every pair (0, 0) on six sides
    with pytest.raises(NonSimplicial):
        infer_gluings(1, [(0, 0, 0), (0, 0, 0)])


def test_infer_gluings_rejects_a_non_integer_label():
    # int() would truncate 2.9 to the valid label 2; build_complex rejects it too
    with pytest.raises(MeshError, match="^vertex ids must be integers, not float64$"):
        infer_gluings(3, [(0, 1, 2.9), (2, 1, 0)])


def test_infer_gluings_names_a_short_triangle():
    # the side pairing would index a missing third corner; the corner
    # check that build_complex makes runs first
    with pytest.raises(MeshError, match="^triangle 0 does not have three corners$"):
        infer_gluings(3, [(0, 1), (1, 0, 2), (2, 1, 0)])


def test_edge_ids_follow_gluing_order():
    mesh = build_complex(3, SPHERE2_FACES, SPHERE2_GLUINGS)
    assert mesh.edge_endpoints_array().tolist() == [[0, 1], [1, 2], [2, 0]]


def test_build_rejects_missing_side():
    with pytest.raises(UnmatchedSlot):
        build_complex(3, SPHERE2_FACES, SPHERE2_GLUINGS[:2])


def test_build_rejects_duplicate_slot():
    bad = SPHERE2_GLUINGS + [((0, 0), (1, 2))]
    with pytest.raises(UnmatchedSlot):
        build_complex(3, SPHERE2_FACES, bad)


def test_build_rejects_orientation_mismatch():
    # gluing (0,0)=(0->1) onto (1,0)=(2->1) does not reverse the labels
    bad = [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))]
    with pytest.raises((OrientationMismatch, UnmatchedSlot)):
        build_complex(3, SPHERE2_FACES, bad)


def test_build_rejects_unused_vertex():
    with pytest.raises(UnusedVertex):
        build_complex(4, SPHERE2_FACES, SPHERE2_GLUINGS)
    # a count beyond the corners is refused before anything of size n exists
    for n in (10**30, 10**12, 7):
        with pytest.raises(UnusedVertex, match=f"^{n} vertex labels but only 6 corners"):
            build_complex(n, SPHERE2_FACES, SPHERE2_GLUINGS)


def test_build_rejects_disconnected_surface():
    faces = SPHERE2_FACES + [(3, 4, 5), (5, 4, 3)]
    gluings = SPHERE2_GLUINGS + [
        ((2, 0), (3, 1)),
        ((2, 1), (3, 0)),
        ((2, 2), (3, 2)),
    ]
    with pytest.raises(DisconnectedSurface):
        build_complex(6, faces, gluings)


def test_build_rejects_split_vertex_label():
    # both triangles of the doubled triangle relabeled so that corner orbits
    # around the equator carry two different labels
    faces = [(0, 1, 2), (2, 1, 3)]
    gluings = SPHERE2_GLUINGS
    with pytest.raises((InconsistentVertexLabels, OrientationMismatch)):
        build_complex(4, faces, gluings)


def test_build_rejects_one_label_on_two_points():
    # the octahedron with label 5 renamed 0: the gluings and orientations
    # are the preset's own, so only the label check can refuse it, and the
    # two antipodal points now share label 0
    octahedron = preset_complex("octahedron")
    faces = np.where(octahedron.triangles == 5, 0, octahedron.triangles).tolist()
    gluings = octahedron.gluings().tolist()
    with pytest.raises(InconsistentVertexLabels) as info:
        build_complex(5, faces, gluings)
    assert type(info.value) is InconsistentVertexLabels
    assert str(info.value) == "vertex label 0 names two distinct points of the surface"


def _bipyramid17() -> DeltaComplex:
    """The bundled 17-gon bipyramid: apexes 17 and 18 have a 17-corner orbit each."""
    return parse_dpm((MESH_DIR / "bipyramid17.dpm").read_text()).mesh


def test_build_rejects_one_label_on_both_apexes_of_a_bipyramid():
    # label 18 renamed 17: every gluing and orientation is the bipyramid's
    # own, so only the orbit check can refuse the two 17-corner orbits
    # that now share a label
    bipyramid = _bipyramid17()
    faces = np.where(bipyramid.triangles == 18, 17, bipyramid.triangles).tolist()
    with pytest.raises(InconsistentVertexLabels) as info:
        build_complex(18, faces, bipyramid.gluings().tolist())
    assert str(info.value) == "vertex label 17 names two distinct points of the surface"


def test_the_orbit_bound_has_no_round_to_spare_on_a_bipyramid(monkeypatch):
    # 17 corners around an apex need 5 pointer-doubling rounds (2**4 = 16
    # corners fall one short), so a bound one round lower splits each
    # apex's orbit in two and refuses the valid complex
    bipyramid = _bipyramid17()
    faces, gluings = bipyramid.triangles.tolist(), bipyramid.gluings().tolist()
    rounds = mesh_module._orbit_rounds
    assert rounds(bipyramid.triangles.ravel()) == 5
    build_complex(19, faces, gluings).check()
    monkeypatch.setattr(mesh_module, "_orbit_rounds", lambda labels: rounds(labels) - 1)
    with pytest.raises(InconsistentVertexLabels, match="^vertex label 17 names two distinct"):
        build_complex(19, faces, gluings)


def test_flip_moves_diagonal_and_keeps_counts():
    mesh = infer_gluings(4, TETRA_FACES)
    before = (mesh.num_vertices, mesh.num_edges, mesh.num_triangles)
    i, j = mesh.edge_endpoints_array()[0].tolist()
    t1, t2 = mesh.gluings()[0, :, 0].tolist()
    assert mesh.flip(0) is None
    mesh.check()
    assert (mesh.num_vertices, mesh.num_edges, mesh.num_triangles) == before
    k, l = mesh.edge_endpoints_array()[0].tolist()
    assert {k, l} == {0, 1, 2, 3} - {i, j}
    # (i, j, k) and (j, i, l) became (l, j, k) and (k, i, l), glued along k -> l
    assert mesh.triangles[[t1, t2]].tolist() == [[l, j, k], [k, i, l]]
    assert mesh.gluings()[0].tolist() == [[t1, 2], [t2, 2]]
    assert mesh.version == 1


def test_flip_twice_restores_endpoints():
    mesh = preset_complex("torus_grid", n=3)
    for edge_id in (0, 5, 11):
        dup = mesh.copy()
        first = dup.edge_endpoints_array()[edge_id].tolist()
        dup.flip(edge_id)
        dup.check()
        dup.flip(edge_id)
        dup.check()
        assert set(dup.edge_endpoints_array()[edge_id].tolist()) == set(first)


def test_flip_preserves_other_edge_endpoints():
    mesh = infer_gluings(4, TETRA_FACES)
    before = mesh.edge_endpoints_array().tolist()
    mesh.flip(2)
    after = mesh.edge_endpoints_array().tolist()
    changed = [e for e in range(6) if set(before[e]) != set(after[e])]
    assert changed == [2]


def test_flip_on_one_vertex_torus_stays_valid():
    mesh = preset_complex("one_vertex_torus")
    for edge_id in range(3):
        dup = mesh.copy()
        dup.flip(edge_id)
        dup.check()
        assert dup.edge_endpoints_array()[edge_id].tolist() == [0, 0]
        assert _degrees(dup).tolist() == [6]


def _self_glued() -> DeltaComplex:
    # assembled through the raw constructor, which skips validation: an edge
    # whose two sides sit on a single triangle has no flip quadrilateral.
    # Slot e F + t (here 2 e + t) is side e of triangle t; the gluings are
    # (0,0)-(0,1), (0,2)-(1,0) and (1,1)-(1,2), one edge each, in that order.
    twin = [2, 4, 0, 5, 1, 3]
    edge_side = [0, 4, 3]
    return DeltaComplex(1, [(0, 0, 0), (0, 0, 0)], twin, edge_side)


def test_self_flip_is_rejected():
    mesh = _self_glued()
    assert mesh.gluings().tolist() == [[[0, 0], [0, 1]], [[0, 2], [1, 0]], [[1, 1], [1, 2]]]
    with pytest.raises(SelfFlip):
        mesh.flip(0)


def test_flip_many_names_the_first_self_glued_edge():
    mesh = _self_glued()
    with pytest.raises(SelfFlip, match="^edge 2 has both sides on triangle 1;"):
        mesh.flip_many([2, 0])
    assert mesh.version == 0


def test_edge_ids_outside_the_range_are_mesh_errors():
    # a negative id must not wrap to the last edge, and one past the end
    # must not leak an IndexError
    metric = random_metric(FLIP_SPECS["torus_grid"], 0)
    mesh = metric.mesh
    before, lengths = _index_arrays(mesh), metric.base_lengths.copy()
    for edge_id in (-1, mesh.num_edges):
        match = rf"^edge id {edge_id} outside \[0, {mesh.num_edges}\)$"
        with pytest.raises(MeshError, match=match):
            mesh.flip(edge_id)
        with pytest.raises(MeshError, match=match):
            flip_metric(metric, edge_id)
        with pytest.raises(MeshError, match=match):
            metric.rebase_edge(edge_id, 1.0)
    for mine, theirs in zip(_index_arrays(mesh), before):
        assert np.array_equal(mine, theirs)
    assert np.array_equal(metric.base_lengths, lengths)
    assert mesh.version == 0
    mesh.check()


def test_a_float_edge_id_is_a_mesh_error():
    metric = preset_metric("torus_grid", n=3)
    mesh, lengths = metric.mesh, metric.base_lengths.copy()
    calls = (mesh.flip, lambda e: mesh.flip_many([0, e]), lambda e: metric.rebase_edge(e, 1.0))
    for call in calls:
        with pytest.raises(MeshError, match="^edge ids must be integers, not float64$"):
            call(1.5)
    assert np.array_equal(metric.base_lengths, lengths)
    assert mesh.version == 0


# edge sets that flip_many refuses, by the first triangle's edges a, b and E edges
BAD_EDGE_SETS = {
    "out of range": (lambda a, b, E: [a, E], r"^edge id {E} outside \[0, {E}\)$"),
    "negative": (lambda a, b, E: [a, -1], r"^edge id -1 outside \[0, {E}\)$"),
    "duplicate": (lambda a, b, E: [a, a], r"^edge {a} appears twice in one flip$"),
    "face-sharing": (lambda a, b, E: [b, a], r"^edges {b} and {a} share triangle 0;"),
}


@pytest.mark.parametrize("case", sorted(BAD_EDGE_SETS))
def test_flip_many_rejects_a_bad_edge_set_before_any_write(case):
    mesh = preset_complex("torus_grid", n=3)
    before = _index_arrays(mesh)
    a, b, _ = mesh.slot_edge_array()[0].tolist()
    edges, match = BAD_EDGE_SETS[case]
    with pytest.raises(MeshError, match=match.format(a=a, b=b, E=mesh.num_edges)):
        mesh.flip_many(edges(a, b, mesh.num_edges))
    for mine, theirs in zip(_index_arrays(mesh), before):
        assert np.array_equal(mine, theirs)
    assert mesh.version == 0


def _face_count_message(mesh: DeltaComplex, edges: list[int]) -> str:
    # per edge in order, its two faces, first side first: the least face used
    # twice is named, by the edges of its first two uses
    faces = mesh.gluings()[edges, :, 0].ravel().tolist()
    face = min(f for f in faces if faces.count(f) > 1)
    a, b = [edges[m // 2] for m, f in enumerate(faces) if f == face][:2]
    if a == b:
        return f"edge {a} appears twice in one flip"
    return f"edges {a} and {b} share triangle {face}; flipped edges must not share a triangle"


def _two_face_sharing_pairs(mesh: DeltaComplex) -> tuple[int, int, int, int]:
    # (a, b) share triangle 0 and (x, y) a later triangle; no face of x or y
    # is a face of a or b
    faces, by_slot = mesh.gluings()[..., 0], mesh.slot_edge_array()
    a, b, _ = by_slot[0].tolist()
    used = set(faces[[a, b]].ravel().tolist())
    for t in range(mesh.num_triangles - 1, 0, -1):
        x, y, _ = by_slot[t].tolist()
        if not used & set(faces[[x, y]].ravel().tolist()):
            return a, b, x, y
    raise AssertionError("no second pair")


@pytest.mark.parametrize("preset, n", [("torus_grid", 3), ("icosahedron", None)])
def test_flip_many_names_the_least_shared_face_of_an_edge_set(preset, n):
    # the face count refuses the set; the message names the least face used
    # twice, whatever the order of the pairs or a repeated id elsewhere
    a, b, x, y = _two_face_sharing_pairs(preset_complex(preset, n=n))
    sets = [[a, b, x, y], [x, y, a, b], [a, x, b, y], [x, y, a, a], [a, b, x, x], [x, x, b, a]]
    kinds = set()
    for edges in sets:
        metric = preset_metric(preset, n=n)
        mesh, lengths = metric.mesh, metric.base_lengths.copy()
        before = _index_arrays(mesh)
        message = _face_count_message(mesh, edges)
        kinds.add(message.split()[0])
        for flip in (mesh.flip_many, lambda edges: flip_metric(metric, edges)):
            with pytest.raises(MeshError) as caught:
                flip(edges)
            assert str(caught.value) == message
            for mine, theirs in zip(_index_arrays(mesh), before):
                assert np.array_equal(mine, theirs)
            assert mesh.version == 0
            assert np.array_equal(metric.base_lengths, lengths)
    assert kinds == {"edge", "edges"}  # a repeated id is named, and so is a shared face


def test_a_complex_built_from_column_major_triangles_flips_like_any_other():
    # flips write the corner labels through a flat view of the storage, so
    # an (F, 3) Fortran-order input must not leave the storage in that order
    mesh = preset_complex("torus_grid", n=3)
    column_major = build_complex(9, np.asfortranarray(mesh.triangles), mesh.gluings())
    for complex_ in (mesh, column_major):
        complex_.flip_many([0, 13])
        complex_.check()
    for mine, theirs in zip(_index_arrays(column_major), _index_arrays(mesh)):
        assert np.array_equal(mine, theirs)


def test_copy_is_independent():
    mesh = infer_gluings(4, TETRA_FACES)
    dup = mesh.copy()
    dup.flip(0)
    assert mesh.edge_endpoints_array()[0].tolist() == [0, 1]
    assert mesh.version == 0
    assert dup.version == 1
    mesh.check()
    dup.check()


def test_cached_arrays_refresh_after_flip():
    mesh = infer_gluings(4, TETRA_FACES)
    tri0 = mesh.triangles.copy()
    mesh.flip(0)
    tri1 = mesh.triangles
    assert (tri0 != tri1).any()
    assert mesh.slot_edge_array().shape == (4, 3)
    assert mesh.edge_endpoints_array().shape == (6, 2)


def test_rejects_odd_euler_characteristic():
    # a Moebius-style fold: single triangle data cannot close up orientably
    with pytest.raises(MeshError):
        build_complex(1, [(0, 0, 0)], [((0, 0), (0, 1))])


def test_index_arrays_are_read_only():
    mesh = preset_complex("torus_grid", n=3)
    for arr in (
        mesh.triangles,
        mesh.slot_edge_array(),
        mesh.edge_endpoints_array(),
    ):
        with pytest.raises(ValueError):
            arr[0, 0] = 7
    mesh.check()


# -- random flip sequences ------------------------------------------------------

FLIP_SPECS = {
    "torus_grid": RandomMetricSpec(preset="torus_grid", n=4),
    "one_vertex_torus": RandomMetricSpec(preset="one_vertex_torus"),
    "icosahedron": RandomMetricSpec(preset="icosahedron"),
}


# Round-off in the new diagonal grows as the flipped triangles thin out
# (relative area error ~ 1e-16 / min_angle^2), so the 1e-12 isometry bound
# is only asserted on flips whose quad keeps every angle above this, before
# and after the flip; thinner quads are held to that round-off model.
ISOMETRY_MIN_ANGLE = 0.05


def _quad_min_angle(before, after, edge_id: int) -> float:
    """The least angle of the quad of ``edge_id``, before and after its flip.

    flip_metric refuses every flip whose new diagonal leaves the quad, so
    every accepted flip is an isometry, up to round-off that grows as the
    quad's triangles (rewritten in place, so at the same indices) thin out.
    """
    faces = before.mesh.gluings()[edge_id, :, 0]
    return float(min(triangle_angles(before)[faces].min(), triangle_angles(after)[faces].min()))


def _index_arrays(mesh: DeltaComplex) -> list[np.ndarray]:
    return [
        np.array(mesh.triangles),
        np.array(mesh.slot_edge_array()),
        np.array(mesh.edge_endpoints_array()),
        mesh.gluings(),
    ]


FLIP_MANY_MESHES = {
    **{f"torus_grid n={n}": preset_complex("torus_grid", n=n) for n in (4, 5, 6)},
    "icosahedron": preset_complex("icosahedron"),
    "one_vertex_torus": preset_complex("one_vertex_torus"),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(FLIP_MANY_MESHES)),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
)
def test_flip_many_equals_the_same_flips_one_at_a_time(name, picks):
    # the picked edges, skipping any that shares a triangle with one taken before
    mesh = FLIP_MANY_MESHES[name]
    edges, used = [], set()
    for pick in picks:
        faces = set(mesh.gluings()[pick % mesh.num_edges, :, 0].tolist())
        if not faces & used:
            edges.append(pick % mesh.num_edges)
            used |= faces
    together, one_by_one = mesh.copy(), mesh.copy()
    together.flip_many(edges)
    for edge_id in edges:
        one_by_one.flip(edge_id)
    together.check()
    for mine, theirs in zip(_index_arrays(together), _index_arrays(one_by_one)):
        assert np.array_equal(mine, theirs)


@settings(max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(sorted(FLIP_SPECS)),
    seed=st.integers(0, 2**16),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
)
# the flip back out of a quad with a 5.2e-5 rad angle: a curvature gap of 1.07e-12
@example(preset="icosahedron", seed=1479, picks=[55, 341654, 341654])
def test_random_flip_sequences_keep_the_complex_consistent(preset, seed, picks):
    metric = random_metric(FLIP_SPECS[preset], seed)
    mesh0 = metric.mesh.copy()
    before = _index_arrays(mesh0)
    for pick in picks:
        edge_id = pick % metric.mesh.num_edges
        trial = metric.copy()
        try:
            flip_metric(trial, edge_id)
        except (SelfFlip, FlipProducesDegenerate):
            continue
        mesh = trial.mesh
        mesh.check()
        fresh = build_complex(
            mesh.num_vertices,
            mesh.triangles,
            mesh.gluings().tolist(),
        )
        for mine, theirs in zip(_index_arrays(mesh), _index_arrays(fresh)):
            assert np.array_equal(mine, theirs)
        for mine, theirs in zip(_index_arrays(mesh0), before):
            assert np.array_equal(mine, theirs)
        assert mesh0.version == 0
        min_angle = _quad_min_angle(metric, trial, edge_id)
        gap = np.max(np.abs(curvature(trial) - curvature(metric)))
        assert gap <= max(1e-12, 1e-16 / min_angle**2), (gap, min_angle)  # 1e-12 when well shaped
        if min_angle > ISOMETRY_MIN_ANGLE:
            assert math.isclose(
                float(np.sum(triangle_areas(trial))),
                float(np.sum(triangle_areas(metric))),
                rel_tol=1e-12,
            )
        metric = trial


# -- fuzzed gluings through the raw constructor -----------------------------------


def _raw_arrays(mesh: DeltaComplex) -> tuple[list[int], list[int]]:
    # the constructor's arrays, in stored slot names e F + t
    first, second = mesh.sides.tolist()
    twin = [-1] * (3 * mesh.num_triangles)
    for a, b in zip(first, second):
        twin[a], twin[b] = b, a
    return twin, first


FUZZ_MESHES = {
    "tetrahedron": infer_gluings(4, TETRA_FACES),
    "sphere2": build_complex(3, SPHERE2_FACES, SPHERE2_GLUINGS),
    "one_vertex_torus": preset_complex("one_vertex_torus"),
    "torus_grid": preset_complex("torus_grid", n=3),
}


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(FUZZ_MESHES)),
    data=st.data(),
)
def test_fuzzed_gluings_raise_only_mesh_errors(name, data):
    mesh = FUZZ_MESHES[name]
    twin, edge_side = _raw_arrays(mesh)
    slots = len(twin)
    value = st.integers(-2, slots + 1)
    # a few entries of the valid arrays rewritten, or arrays of any length
    if data.draw(st.booleans(), label="mutate"):
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            which = data.draw(st.sampled_from(["twin", "edge_side"]), label="which")
            target = twin if which == "twin" else edge_side
            target[data.draw(st.integers(0, len(target) - 1), label="index")] = data.draw(value)
    else:
        twin = data.draw(st.lists(value, max_size=slots + 2), label="twin")
        edge_side = data.draw(st.lists(value, max_size=slots // 2 + 2), label="edge_side")
    try:
        DeltaComplex(mesh.num_vertices, mesh.triangles, twin, edge_side).check()
    except MeshError:
        pass


def _rebuilds_itself(mesh: DeltaComplex) -> None:
    fresh = build_complex(mesh.num_vertices, mesh.triangles, mesh.gluings())
    fresh.check()
    for view in ("corners", "edge_of", "ends", "sides"):
        assert np.array_equal(getattr(fresh, view), getattr(mesh, view)), view


@pytest.mark.parametrize("name", sorted(FUZZ_MESHES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gluings_invert_build_complex_through_flip_rounds(name, seed):
    # the (t, e) pairs of a complex rebuild it slot for slot, before and after
    # rounds of random face-disjoint flips
    rng = np.random.default_rng(seed)
    mesh = FUZZ_MESHES[name].copy()
    _rebuilds_itself(mesh)
    for _ in range(4):
        edges, used = [], set()
        for edge in rng.permutation(mesh.num_edges)[: rng.integers(1, mesh.num_edges + 1)]:
            faces = set(mesh.gluings()[edge, :, 0].tolist())
            if len(faces) == 2 and not faces & used:
                edges.append(edge)
                used |= faces
        mesh.flip_many(edges)
        _rebuilds_itself(mesh)


# -- malformed gluing lists through build_complex -----------------------------------

GLUING_FAULTS = ["triangle", "side", "value", "fraction", "duplicate", "self", "ragged", "vertex"]


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(FUZZ_MESHES)),
    fault=st.sampled_from(GLUING_FAULTS),
    data=st.data(),
)
def test_malformed_gluings_raise_mesh_errors(name, fault, data):
    # one fault planted in the valid (triangles, gluings) of a mesh; a
    # fractional entry is one that int() would truncate back to a valid id
    mesh = FUZZ_MESHES[name]
    triangles = mesh.triangles.tolist()
    gluings = mesh.gluings().tolist()
    i = data.draw(st.integers(0, mesh.num_edges - 1), label="gluing")
    k = data.draw(st.integers(0, 1), label="side")
    slot = gluings[i][k]
    if fault == "triangle":
        slot[0] = data.draw(st.sampled_from([-2, -1, mesh.num_triangles, mesh.num_triangles + 1]))
    elif fault == "side":
        # side 3 of triangle t would alias side 0 of triangle t + 1
        slot[1] = data.draw(st.sampled_from([-1, 3, 4]))
    elif fault == "value":
        slot[data.draw(st.integers(0, 1))] = data.draw(st.sampled_from([1.7, 2**63, 10**30]))
    elif fault == "fraction":
        slot[data.draw(st.integers(0, 1))] += 0.5
    elif fault == "duplicate":
        gluings[(i + 1) % mesh.num_edges][0] = list(slot)
    elif fault == "self":
        gluings[i][1 - k] = list(slot)
    elif fault == "ragged":
        if data.draw(st.booleans()):
            slot.append(0)
        else:
            slot.pop()
    else:
        row = data.draw(st.integers(0, mesh.num_triangles - 1))
        triangles[row][data.draw(st.integers(0, 2))] += 0.9
    with pytest.raises(MeshError):
        build_complex(mesh.num_vertices, triangles, gluings)


# -- whole-array construction against per-side and per-face loop references ---------

def _preset_data(name: str, n: int = 3) -> tuple[int, list, list]:
    """Vertex count, triangles and gluings of a preset (``n`` sizes torus_grid), as lists."""
    mesh = preset_complex(name, n=n)
    gluings = mesh.gluings().tolist()
    return mesh.num_vertices, mesh.triangles.tolist(), gluings


def _shuffled(triangles: list, gluings: list, rng) -> tuple[list, list]:
    """The same complex with its face ids permuted."""
    new_id = rng.permutation(len(triangles)).tolist()
    moved = [None] * len(triangles)
    for t, tri in enumerate(triangles):
        moved[new_id[t]] = tri
    return moved, [[[new_id[t], e] for t, e in pair] for pair in gluings]


def _disjoint_union(names, rng) -> tuple[int, list, list]:
    """The presets side by side with their labels offset and face ids interleaved."""
    vertices, triangles, gluings = 0, [], []
    for name in names:
        n, tris, pairs = _preset_data(name)
        faces = len(triangles)
        triangles += [[c + vertices for c in tri] for tri in tris]
        gluings += [[[t + faces, e] for t, e in pair] for pair in pairs]
        vertices += n
    return (vertices, *_shuffled(triangles, gluings, rng))


def _bfs_reached(num_faces: int, gluings: list) -> int:
    """Faces reachable from face 0 across glued sides, breadth first."""
    across = [[] for _ in range(num_faces)]
    for (t1, _), (t2, _) in gluings:
        across[t1].append(t2)
        across[t2].append(t1)
    seen, queue = {0}, [0]
    for t in queue:
        for u in across[t]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen)


@pytest.mark.parametrize(
    "names",
    [
        ("tetrahedron", "icosahedron"),
        ("icosahedron", "tetrahedron"),
        ("torus_grid", "octahedron", "one_vertex_torus"),
        ("icosahedron", "icosahedron", "tetrahedron"),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_disjoint_unions_are_disconnected_with_the_reached_count_of_a_bfs(names, seed):
    n, triangles, gluings = _disjoint_union(names, np.random.default_rng(seed))
    reached = _bfs_reached(len(triangles), gluings)
    assert reached < len(triangles)
    message = f"^only {reached} of {len(triangles)} triangles reachable from triangle 0$"
    with pytest.raises(DisconnectedSurface, match=message):
        build_complex(n, triangles, gluings)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_shuffled_torus_is_connected(seed):
    n, triangles, gluings = _preset_data("torus_grid", n=16)
    triangles, gluings = _shuffled(triangles, gluings, np.random.default_rng(seed))
    mesh = build_complex(n, triangles, gluings)
    assert mesh.num_triangles == 2 * 16 * 16


def _loop_gluings(triangles: list) -> list:
    """Gluings by a per-side dict walk: each unordered vertex pair's two sides, in
    the order the pairs are first met; NonSimplicial as infer_gluings words it."""
    by_pair: dict[tuple[int, int], list] = {}
    for t, tri in enumerate(triangles):
        for e in range(3):
            a, b = tri[e], tri[(e + 1) % 3]
            by_pair.setdefault((min(a, b), max(a, b)), []).append((t, e))
    for key, slots in by_pair.items():
        if len(slots) != 2:
            raise NonSimplicial(
                f"vertex pair {key} appears on {len(slots)} sides; gluings must be explicit"
            )
    return list(by_pair.values())


def _storage(mesh: DeltaComplex) -> list[np.ndarray]:
    return [mesh._tri, mesh._twin, mesh._sides]


@pytest.mark.parametrize("name", ["tetrahedron", "octahedron", "icosahedron", "torus_grid"])
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_infer_gluings_matches_the_loop_reference(name, seed):
    n, triangles, _ = _preset_data(name, n=7)
    if seed is not None:
        order = np.random.default_rng(seed).permutation(len(triangles))
        triangles = [triangles[t] for t in order]
    inferred = infer_gluings(n, triangles)
    explicit = build_complex(n, triangles, _loop_gluings(triangles))
    for mine, theirs in zip(_storage(inferred), _storage(explicit)):
        assert np.array_equal(mine, theirs)


@pytest.mark.parametrize(
    "n, triangles",
    [
        (1, [(0, 0, 0), (0, 0, 0)]),
        # two tetrahedra sharing the face (0, 1, 2): its three pairs sit on four sides
        (5, TETRA_FACES + [(0, 2, 1), (4, 1, 2), (4, 2, 0), (4, 0, 1)]),
        # the pair (0, 1) on one side only comes after the pair (1, 2) on three
        (4, [(1, 2, 3), (2, 1, 3), (1, 2, 0), (0, 1, 3)]),
    ],
)
def test_infer_gluings_names_the_first_bad_pair_as_the_loop_reference(n, triangles):
    with pytest.raises(NonSimplicial) as expected:
        _loop_gluings(triangles)
    with pytest.raises(NonSimplicial) as err:
        infer_gluings(n, triangles)
    assert str(err.value) == str(expected.value)
