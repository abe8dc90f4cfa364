"""Triangle angles and areas, orthogonal circles, and the Delaunay quantities.

The frozen numbers below are worked out by hand on two configurations:

* the 3-4-5 right triangle with unit radii (as the two faces of a
  one-vertex torus, where the angles are wanted), and
* the equilateral triangle of side sqrt(6) carrying three unit circles at
  pairwise inversive distance 2, whose orthogonal circle is the unit
  circle centered at the triangle midpoint (center (sqrt6/2, sqrt2/2),
  power 1, all three signed distances sqrt2/2, all half-chords 1/sqrt2).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from packflow import (
    DecoratedMetric,
    DegenerateTriangle,
    apply_p_laplacian,
    curvature,
    flip_metric,
    jacobian,
    preset_complex,
    preset_metric,
    triangle_angles,
    triangle_areas,
    validate_triangles,
)
from packflow import geometry
from packflow.geometry import delaunay_terms, face_circles
from packflow.metric import triangle_side_lengths
from packflow.oracles import (
    ImaginaryChord,
    RandomMetricSpec,
    _oracle_layout,
    edge_half_chord,
    oracle_angles_via_layout,
    oracle_face_circle,
    random_metric,
)


def _single_face(metric, t: int) -> dict:
    """Everything about face ``t``, built from the per-face primitives and
    the coordinate oracle alone."""
    sides = triangle_side_lengths(metric)[t]
    radii = metric.effective_radii[metric.mesh.triangles[t]]
    center, power, distances = oracle_face_circle(sides, radii)
    chords = np.array(
        [edge_half_chord(sides[e], radii[e], radii[(e + 1) % 3]) for e in range(3)]
    )
    return {
        "lengths": sides,
        "angles": oracle_angles_via_layout(*sides),
        "center": center,
        "power": float(power),
        "distances": distances,
        "half_chords": chords,
        "chord_angles": np.arctan2(chords, distances),
    }


def _edge_half_chords(metric) -> np.ndarray:
    ends = metric.mesh.edge_endpoints_array()
    r = metric.effective_radii
    return edge_half_chord(metric.effective_lengths, r[ends[:, 0]], r[ends[:, 1]])


def _one_vertex_torus(sides) -> DecoratedMetric:
    """Both faces of the one-vertex torus have side e (corner e to e + 1) of length sides[e]."""
    return DecoratedMetric(preset_complex("one_vertex_torus"), np.array(sides), np.ones(1))


def test_inner_angles_of_right_triangle():
    angles = triangle_angles(_one_vertex_torus([3.0, 4.0, 5.0]))
    a0, a1, a2 = angles[0]
    assert math.isclose(a1, math.pi / 2.0, rel_tol=1e-15)
    assert math.isclose(a0 + a1 + a2, math.pi, rel_tol=1e-15)
    assert math.isclose(math.sin(a0), 4.0 / 5.0, rel_tol=1e-14)


def test_inner_angles_accept_arrays():
    # one (faces, 3) array per metric, whatever the face shapes
    angles = triangle_angles(_one_vertex_torus([3.0, 4.0, 5.0]))
    assert angles.shape == (2, 3)
    assert np.array_equal(angles[0], angles[1])
    angles = triangle_angles(preset_metric("tetrahedron"))
    assert angles.shape == (4, 3)
    assert math.isclose(angles[1, 0], math.pi / 3.0, rel_tol=1e-14)


def test_triangle_angles_reject_impossible_sides():
    with pytest.raises(DegenerateTriangle, match=r"^triangle 0 has margin"):
        triangle_angles(_one_vertex_torus([1.0, 1.0, 3.0]))


def test_radical_center_unit_circles_is_circumcenter():
    center, power, _ = oracle_face_circle([3.0, 4.0, 5.0], np.ones(3))
    # equal radii make the equal-power point the circumcenter, here the
    # hypotenuse midpoint at distance 2.5, so power = 2.5^2 - 1
    assert center == pytest.approx([1.5, 2.0])
    assert math.isclose(power, 5.25, rel_tol=1e-13)


def test_equilateral_orthogonal_circle_frozen():
    metric = preset_metric("tetrahedron")
    geo = _single_face(metric, 0)
    s6, s2 = math.sqrt(6.0), math.sqrt(2.0)
    assert geo["lengths"] == pytest.approx([s6, s6, s6])
    assert geo["center"] == pytest.approx([s6 / 2.0, s2 / 2.0])
    assert math.isclose(geo["power"], 1.0, rel_tol=1e-12)
    assert geo["distances"] == pytest.approx(np.full(3, s2 / 2.0))
    distances, powers = face_circles(metric)
    assert np.allclose(powers, 1.0, rtol=1e-12, atol=0)
    assert distances == pytest.approx(np.full((4, 3), s2 / 2.0))
    assert geo["half_chords"] == pytest.approx(np.full(3, 1.0 / s2))
    assert geo["chord_angles"] == pytest.approx(np.full(3, math.pi / 4.0))
    assert geo["angles"] == pytest.approx(np.full(3, math.pi / 3.0))
    assert np.allclose(triangle_angles(metric), math.pi / 3.0, rtol=1e-14, atol=0)


def test_half_chord_from_edge_data_alone():
    # r = (1, 1), I = 2, l = sqrt(6): m = l/2, half-chord^2 = 6/4 - 1 = 1/2
    val = edge_half_chord(math.sqrt(6.0), 1.0, 1.0)
    assert math.isclose(val, 1.0 / math.sqrt(2.0), rel_tol=1e-14)
    # closed form r_a r_b sqrt(I^2 - 1) / l on a random draw
    rng = np.random.default_rng(5)
    for _ in range(100):
        ra, rb = rng.uniform(0.5, 2.0, 2)
        inv = rng.uniform(1.05, 3.0)
        l = math.sqrt(ra * ra + rb * rb + 2.0 * inv * ra * rb)
        expect = ra * rb * math.sqrt(inv * inv - 1.0) / l
        assert math.isclose(edge_half_chord(l, ra, rb), expect, rel_tol=1e-12)


def test_half_chord_imaginary_when_circles_cross():
    # I = 0.5 < 1: the circles intersect and no orthogonal chord exists
    l = math.sqrt(1.0 + 1.0 + 2.0 * 0.5)
    with pytest.raises(ImaginaryChord):
        edge_half_chord(l, 1.0, 1.0)


def test_cotan_weight_equilateral():
    # two faces, each distance sqrt2/2, chord 1/sqrt2: weight 2 = 2 cot(pi/4)
    metric = preset_metric("tetrahedron")
    dsum, _ = delaunay_terms(metric)
    weights = dsum / _edge_half_chords(metric)
    assert np.allclose(weights, 2.0, rtol=1e-14, atol=0)


def test_distance_chord_power_identity():
    # d^2 + half_chord^2 = power, per side, on every face of random metrics
    checked = 0
    for spec in (
        RandomMetricSpec(inversive_range=(1.2, 3.0)),
        RandomMetricSpec(preset="icosahedron", radius_range=(0.6, 1.5), u_range=0.3),
        RandomMetricSpec(preset="torus_grid", n=3, u_range=0.5),
    ):
        for seed in range(10):
            metric = random_metric(spec, seed)
            distances, powers = face_circles(metric)
            sides = triangle_side_lengths(metric)
            radii = metric.effective_radii[metric.mesh.triangles]
            chords = edge_half_chord(sides, radii, np.roll(radii, -1, axis=1))
            for t in range(len(powers)):
                for e in range(3):
                    assert math.isclose(
                        distances[t, e] ** 2 + chords[t, e] ** 2, powers[t], rel_tol=1e-10
                    )
                checked += 1
    assert checked > 100


def test_face_batches_agree_with_single_face():
    metric = preset_metric("icosahedron", radius=0.9, inversive=1.8)
    metric.set_conformal_factors(np.linspace(-0.1, 0.1, 12))
    distances, powers = face_circles(metric)
    angles = triangle_angles(metric)
    for t in (0, 7, 19):
        geo = _single_face(metric, t)
        assert math.isclose(powers[t], geo["power"], rel_tol=1e-12)
        assert distances[t] == pytest.approx(geo["distances"])
        assert angles[t] == pytest.approx(geo["angles"])


def _same_bits(mine, reference) -> bool:
    mine, reference = np.asarray(mine), np.asarray(reference)
    return mine.shape == reference.shape and mine.tobytes() == reference.tobytes()


KERNEL_MESHES = [("tetrahedron", None), ("icosahedron", None), ("one_vertex_torus", None),
                 ("torus_grid", 5)]


@pytest.mark.parametrize("preset,n", KERNEL_MESHES)
@pytest.mark.parametrize("seed", range(3))
def test_the_face_kernel_reads_only_its_own_faces(preset, n, seed):
    # a face's row of (angles, distances, powers) has the same bits whether
    # the kernel runs on the whole mesh or on any subset holding that face:
    # an index array in random order, a boolean mask or a single face
    metric = random_metric(RandomMetricSpec(preset=preset, n=n, u_range=0.3), seed)
    l = triangle_side_lengths(metric).T
    r = metric.effective_radii[metric.mesh.triangles.T]
    whole = geometry._faces(l, r)
    memo = (triangle_angles(metric), *face_circles(metric))
    assert all(_same_bits(a, b) for a, b in zip(whole, memo))
    rng = np.random.default_rng(seed)
    f = metric.mesh.num_triangles
    subsets = [
        rng.permutation(f)[: rng.integers(1, f + 1)],
        rng.random(f) < 0.5,
        int(rng.integers(f)),
        np.array([f - 1]),
    ]
    for subset in subsets:
        for mine, reference in zip(geometry._faces(l[:, subset], r[:, subset]), whole):
            assert _same_bits(mine, reference[subset]), subset


def _sorted_heron(sides: np.ndarray) -> np.ndarray:
    """Stable Heron on the sides sorted by ``np.sort``, a >= b >= c."""
    sides = np.sort(sides, axis=1)
    a, b, c = sides[:, 2], sides[:, 1], sides[:, 0]
    sq = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    return 0.25 * np.sqrt(np.maximum(sq, 0.0))


@pytest.mark.parametrize("preset,n", KERNEL_MESHES)
def test_triangle_areas_match_sorted_heron_bit_for_bit(preset, n):
    # the sides are ordered by maximum and minimum, which select the values
    # a sort selects; ties (the equilateral preset, integer sides) included
    for metric in (preset_metric(preset, n=n), random_metric(RandomMetricSpec(preset, n), 7)):
        areas = triangle_areas(metric)
        assert _same_bits(areas, _sorted_heron(triangle_side_lengths(metric)))
    sides = np.random.default_rng(3).integers(1, 4, size=(500, 3)).astype(float)
    assert _same_bits(geometry._heron(*sides.T), _sorted_heron(sides))


def test_angle_sum_is_pi_per_face():
    metric = preset_metric("octahedron", radius=1.1, inversive=2.2)
    angles = triangle_angles(metric)
    assert np.allclose(np.sum(angles, axis=1), math.pi, rtol=0, atol=1e-12)


def test_areas_match_coordinate_shoelace():
    metric = preset_metric("torus_grid", n=3, radius=0.8)
    metric.set_conformal_factors(np.linspace(-0.2, 0.2, 9))
    areas = triangle_areas(metric)
    sides = triangle_side_lengths(metric)
    layouts = np.array([_oracle_layout(*face) for face in sides])
    v1 = layouts[:, 1] - layouts[:, 0]
    v2 = layouts[:, 2] - layouts[:, 0]
    shoelace = 0.5 * np.abs(v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
    assert np.allclose(areas, shoelace, rtol=1e-12)


def test_edge_distance_sums_on_uniform_tetrahedron():
    metric = preset_metric("tetrahedron")
    terms, eps = delaunay_terms(metric)
    assert np.allclose(terms, math.sqrt(2.0), rtol=1e-12)
    # d1 + d2 is exactly the sum of the edge's two sides
    distances = face_circles(metric)[0].ravel()
    s1, s2 = metric.mesh.edge_sides_array().T
    assert np.array_equal(terms, distances[s1] + distances[s2])
    assert np.all(eps > 0.0)
    assert np.all(terms > eps)


def test_delaunay_terms_follow_the_metric_state():
    # delaunay_terms, curvature and the margins are computed once per
    # state: a repeat call hands out the same read-only arrays, and new
    # scale factors, a flip with or without its rebase, or a rebased edge
    # start a fresh computation that matches one on an uncached copy
    quantities = {
        "delaunay_terms": delaunay_terms,
        "curvature": lambda m: (curvature(m),),
        "margins": lambda m: (validate_triangles(m).margins,),
    }
    changes = {
        "set_conformal_factors": lambda m: m.set_conformal_factors(
            np.array(m.conformal_factors) + np.linspace(0, 0.05, 9)
        ),
        "flip_metric": lambda m: flip_metric(m, 0),
        "bare flip": lambda m: m.mesh.flip(0),
        "rebase_edge": lambda m: m.rebase_edge(0, 1.01 * m.effective_lengths[0]),
    }
    for qname, quantity in quantities.items():
        metric = random_metric(RandomMetricSpec(preset="torus_grid", n=3, delaunay=True), 4)
        first = quantity(metric)
        assert all(a is b for a, b in zip(quantity(metric), first)), qname
        with pytest.raises(ValueError):
            first[0][0] = 1.0
        for cname, change in changes.items():
            before = quantity(metric)
            change(metric)
            after = quantity(metric)
            assert not np.array_equal(after[0], before[0]), (qname, cname)
            for mine, fresh in zip(after, quantity(metric.copy())):
                assert np.array_equal(mine, fresh), (qname, cname)


def test_edge_half_chords_batch():
    metric = preset_metric("tetrahedron")
    chords = _edge_half_chords(metric)
    assert np.allclose(chords, 1.0 / math.sqrt(2.0), rtol=1e-14)


def test_orthogonal_circles_of_an_inadmissible_metric_name_the_face():
    # u[0] = -5 squeezes the triangles at vertex 0 past the triangle
    # inequality; every reader of the per-face pass (angles and face
    # circles) refuses with the margin report instead of returning
    # infinities or NaN angles
    metric = preset_metric("torus_grid", n=4)
    u = np.zeros(metric.mesh.num_vertices)
    u[0] = -5.0
    metric.set_conformal_factors(u)
    readers = {
        "delaunay_terms": delaunay_terms,
        "face_circles": face_circles,
        "triangle_angles": triangle_angles,
        "curvature": curvature,
        "jacobian": jacobian,
        "apply_p_laplacian": lambda m: apply_p_laplacian(m, 3.0, np.ones(m.mesh.num_vertices)),
    }
    for name, reader in readers.items():
        with pytest.raises(DegenerateTriangle, match=r"^triangle \d+ has margin") as info:
            reader(metric.copy())
        assert "threshold" in str(info.value), name
