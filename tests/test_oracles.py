"""Cross-checks of the fast paths against the brute-force references."""

from __future__ import annotations

import math

import numpy as np

from packflow import curvature, inner_angles, validate_triangles
from packflow.geometry import delaunay_terms, face_circles
from packflow.metric import triangle_side_lengths
from packflow.oracles import (
    RandomMetricSpec,
    oracle_angles_via_layout,
    oracle_delaunay_via_angles,
    oracle_face_circle,
    oracle_flip_length,
    random_metric,
)
from packflow.surgery import delaunay_violations, flip_metric
from packflow.errors import FlipProducesDegenerate

SPECS = [
    RandomMetricSpec(),
    RandomMetricSpec(preset="octahedron", u_range=0.25),
    RandomMetricSpec(preset="icosahedron", inversive_range=(1.1, 3.5)),
    RandomMetricSpec(preset="torus_grid", n=3, u_range=0.3),
]

# wilder draws, so plenty of edges land on the violating side
WILD = [
    RandomMetricSpec(preset="octahedron", u_range=0.8, inversive_range=(1.05, 4.0)),
    RandomMetricSpec(preset="icosahedron", u_range=0.7, inversive_range=(1.05, 4.0)),
    RandomMetricSpec(preset="torus_grid", n=3, u_range=0.9),
]


def test_random_metric_is_reproducible_and_admissible():
    for spec in SPECS:
        for seed in range(30):
            a = random_metric(spec, seed)
            b = random_metric(spec, seed)
            assert np.array_equal(a.base_lengths, b.base_lengths)
            assert np.array_equal(a.radii, b.radii)
            assert np.array_equal(a.conformal_factors, b.conformal_factors)
            assert validate_triangles(a).admissible


def test_random_metric_delaunay_option():
    spec = RandomMetricSpec(preset="torus_grid", n=3, u_range=0.4, delaunay=True)
    for seed in range(20):
        metric = random_metric(spec, seed)
        assert delaunay_violations(metric) == []


def test_angles_against_layout_oracle():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 150:
        sides = rng.uniform(0.3, 2.5, 3)
        if np.min(np.sum(sides) - 2.0 * sides) <= 1e-6:
            continue
        mine = np.array(inner_angles(*sides))
        ref = oracle_angles_via_layout(*sides)
        assert np.allclose(mine, ref, rtol=0, atol=1e-11)
        checked += 1


def test_curvature_angles_against_oracle_per_face():
    for spec in SPECS:
        metric = random_metric(spec, 7)
        lengths = metric.effective_lengths
        n = metric.mesh.num_vertices
        angle_sum = np.zeros(n)
        for t, (i, j, k) in enumerate(metric.mesh.triangles):
            l01 = lengths[metric.mesh.slot_edge((t, 0))]
            l12 = lengths[metric.mesh.slot_edge((t, 1))]
            l20 = lengths[metric.mesh.slot_edge((t, 2))]
            a = oracle_angles_via_layout(l01, l12, l20)
            angle_sum[i] += a[0]
            angle_sum[j] += a[1]
            angle_sum[k] += a[2]
        assert np.allclose(curvature(metric), 2.0 * np.pi - angle_sum, atol=1e-10)


def test_face_circles_against_coordinate_oracle():
    # the closed form against a layout, a linear solve and cross products,
    # face by face; distances within 1e-12 of the orthogonal radius
    # sqrt|power| and powers within 1e-12 relative, on centers both inside
    # and outside their faces
    signs = set()
    for spec in SPECS + WILD:
        for seed in range(40):
            metric = random_metric(spec, seed)
            distances, powers = face_circles(metric)
            sides = triangle_side_lengths(metric)
            radii = metric.effective_radii[metric.mesh.triangles]
            for t in range(len(powers)):
                _, power, ref = oracle_face_circle(sides[t], radii[t])
                scale = math.sqrt(abs(power))
                assert np.all(np.abs(distances[t] - ref) <= 1e-12 * scale), (spec, seed, t)
                assert abs(powers[t] - power) <= 1e-12 * abs(power), (spec, seed, t)
            signs.update(np.sign(distances).ravel().tolist())
    assert {-1.0, 1.0} <= signs


def test_delaunay_predicate_against_angle_oracle():
    disagreed = 0
    marked = 0
    for spec in SPECS + WILD:
        for seed in range(40):
            metric = random_metric(spec, seed)
            terms, eps = delaunay_terms(metric)
            for edge_id in range(metric.mesh.num_edges):
                ref = oracle_delaunay_via_angles(metric, edge_id)
                mine = bool(terms[edge_id] >= -eps[edge_id])
                if mine != ref:
                    # only tolerable on a knife-edge margin
                    assert abs(terms[edge_id]) < 10.0 * eps[edge_id]
                    disagreed += 1
                if not mine:
                    marked += 1
    assert disagreed == 0
    assert marked > 30


def test_flip_length_against_reflection_oracle():
    checked = 0
    for spec in SPECS:
        for seed in range(40):
            metric = random_metric(spec, seed)
            for edge_id in range(metric.mesh.num_edges):
                ref = oracle_flip_length(metric.copy(), edge_id)
                try:
                    _, event = flip_metric(metric.copy(), edge_id)
                except FlipProducesDegenerate:
                    continue
                assert math.isclose(event.new_length, ref, rel_tol=1e-10)
                checked += 1
    assert checked > 400
