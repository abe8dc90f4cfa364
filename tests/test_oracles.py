"""Cross-checks of the fast paths against the brute-force references."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from packflow import DecoratedMetric, curvature, jacobian, preset_complex, triangle_angles
from packflow import lengths_from_inversive, make_delaunay, validate_triangles
from packflow.geometry import delaunay_terms, face_circles
from packflow.metric import triangle_side_lengths
from packflow.oracles import (
    RandomMetricSpec,
    oracle_angles_via_layout,
    oracle_class_residual,
    oracle_curvature,
    oracle_delaunay_via_angles,
    oracle_delaunay_violations,
    oracle_face_circle,
    oracle_flip_length,
    oracle_located_newton,
    random_metric,
)
from packflow.surgery import delaunay_violations, flip_metric
from packflow.errors import FlipProducesDegenerate, MetricError, SelfFlip

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
    # both faces of the one-vertex torus have the drawn sides, in order
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 150:
        sides = rng.uniform(0.3, 2.5, 3)
        if np.min(np.sum(sides) - 2.0 * sides) <= 1e-6:
            continue
        metric = DecoratedMetric(preset_complex("one_vertex_torus"), sides, np.ones(1))
        mine = triangle_angles(metric)[0]
        ref = oracle_angles_via_layout(*sides)
        assert np.allclose(mine, ref, rtol=0, atol=1e-11)
        checked += 1


def test_laid_out_curvature_is_the_curvature():
    for spec in SPECS + WILD:
        for seed in range(4):
            metric = random_metric(spec, seed)
            assert np.allclose(oracle_curvature(metric), curvature(metric), rtol=0, atol=1e-12)


def test_located_newton_reaches_its_target_in_a_delaunay_state():
    # the reference limit of the flows: laid-out curvature at the target, a
    # triangulation the laid-out test passes, and sum(u) kept; on WILD seed 0
    # its steps cross edges on the way
    spec = WILD[1]
    for seed in range(3):
        metric = random_metric(spec, seed)
        n = metric.mesh.num_vertices
        target = np.random.default_rng(seed).normal(0.0, 0.5, n)
        target += (4.0 * math.pi - target.sum()) / n
        limit = oracle_located_newton(metric, target, tol=1e-11)
        assert np.max(np.abs(oracle_curvature(limit) - target)) < 1e-11
        assert oracle_delaunay_violations(limit) == []
        assert math.isclose(
            float(np.sum(limit.conformal_factors)), float(np.sum(metric.conformal_factors)),
            abs_tol=1e-9,
        )


def test_curvature_angles_against_oracle_per_face():
    for spec in SPECS:
        metric = random_metric(spec, 7)
        lengths = metric.effective_lengths
        n = metric.mesh.num_vertices
        angle_sum = np.zeros(n)
        for t, (i, j, k) in enumerate(metric.mesh.triangles):
            l01, l12, l20 = lengths[metric.mesh.slot_edge_array()[t]]
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


def test_surgery_weight_is_the_operators_edge_weight():
    # surgery ranks flips by the weight (d1 + d2)/l the Jacobian is built
    # from: on a simplicial mesh it is minus the off-diagonal entry of
    # dK/du, and the angle oracle agrees that the edge violates
    checked = 0
    for seed in range(40):
        metric = random_metric(WILD[1], seed)
        jac = jacobian(metric)
        ends = metric.mesh.edge_endpoints_array()
        for edge_id, weight in delaunay_violations(metric):
            a, b = ends[edge_id]
            assert math.isclose(weight, -jac[a, b], rel_tol=1e-12), (seed, edge_id)
            assert not oracle_delaunay_via_angles(metric, edge_id), (seed, edge_id)
            checked += 1
    assert checked == 43


def test_flip_length_against_reflection_oracle():
    checked = 0
    for spec in SPECS:
        for seed in range(40):
            metric = random_metric(spec, seed)
            for edge_id in range(metric.mesh.num_edges):
                ref = oracle_flip_length(metric.copy(), edge_id)
                try:
                    _, [event] = flip_metric(metric.copy(), edge_id)
                except FlipProducesDegenerate:
                    continue
                assert math.isclose(event.new_length, ref, rel_tol=1e-12)
                checked += 1
    assert checked > 400


# The per-face pass clips its law-of-cosines ratio to [-1, 1] with no guard
# of its own: behind the triangle-margin gate the ratio can leave [-1, 1]
# by roundoff only.  These tests pin that bound at 4 ulps of 1.
COS_ROUNDOFF = 4.0 * np.finfo(float).eps


def _cosine_ratios(metric) -> np.ndarray:
    """cos A_e = (l_e^2 + l_{e-1}^2 - l_{e+1}^2) / (2 l_e l_{e-1}) per corner,
    in the floating-point order of the per-face pass, before its clip."""
    l = triangle_side_lengths(metric)
    ll = l * l
    dot = 0.5 * (ll + np.roll(ll, 1, axis=1) - np.roll(ll, -1, axis=1))
    return dot / (l * np.roll(l, 1, axis=1))


def test_cosine_ratio_of_random_metrics_stays_within_roundoff():
    for spec in SPECS + WILD:
        for seed in range(40):
            ratios = _cosine_ratios(random_metric(spec, seed))
            assert np.all(np.abs(ratios) <= 1.0 + COS_ROUNDOFF), (spec, seed)


@settings(max_examples=300, deadline=None)
@given(
    aspect=st.floats(0.0, 12.0),
    depth=st.floats(0.0, 1.0),
    flat=st.booleans(),
    order=st.permutations([0, 1, 2]),
)
def test_cosine_ratio_of_thin_admissible_faces_stays_within_roundoff(aspect, depth, flat, order):
    # a flat face (1, x, 1 + x - m), whose angle opposite the long side
    # nears pi, or a needle with a short side x, whose angle there nears 0;
    # x down to 1e-12 and the margin m from x down to the gate's threshold
    x = 10.0**-aspect
    m = x * 10.0 ** (-depth * (12.0 - aspect))
    sides = [1.0, x, 1.0 + x - m] if flat else [1.0, 1.0 - 0.5 * (x - m), x]
    metric = DecoratedMetric(
        preset_complex("one_vertex_torus"), np.array(sides)[order], np.ones(1)
    )
    assume(validate_triangles(metric).admissible)
    assert np.all(np.abs(_cosine_ratios(metric)) <= 1.0 + COS_ROUNDOFF)


REFUSED_SURGERY = RandomMetricSpec(
    preset="tetrahedron", inversive_range=(-0.9, 3.0), radius_range=(1.0, 1.0), u_range=3.0,
    delaunay=True,
)


def _first_admissible_draw(spec: RandomMetricSpec, seed: int) -> DecoratedMetric:
    # the draw that random_metric(spec, seed) makes weighted Delaunay first
    rng = np.random.default_rng(seed)
    mesh = preset_complex(spec.preset, n=spec.n)
    while True:
        radii = rng.uniform(*spec.radius_range, size=mesh.num_vertices)
        inv = rng.uniform(*spec.inversive_range, size=mesh.num_edges)
        u = rng.uniform(-spec.u_range, spec.u_range, size=mesh.num_vertices)
        try:
            metric = DecoratedMetric(mesh, lengths_from_inversive(mesh, radii, inv), radii, u)
        except MetricError:
            continue
        if validate_triangles(metric).admissible:
            return metric


@pytest.mark.parametrize("seed, error", [(13, FlipProducesDegenerate), (18, SelfFlip)])
def test_random_metric_draws_again_when_its_surgery_is_refused(seed, error):
    # making the first admissible draw weighted Delaunay is refused
    first = _first_admissible_draw(REFUSED_SURGERY, seed)
    with pytest.raises(error):
        make_delaunay(first)
    metric = random_metric(REFUSED_SURGERY, seed)
    assert validate_triangles(metric).admissible
    assert delaunay_violations(metric) == []


def test_random_metric_with_surgery_always_returns_a_weighted_delaunay_metric():
    for seed in range(300):
        metric = random_metric(REFUSED_SURGERY, seed)
        assert validate_triangles(metric).admissible, seed
        assert delaunay_violations(metric) == [], seed


def test_the_class_oracle_bites_on_an_isometric_flip_off_the_delaunay_boundary():
    # the worst violating edge of each draw, flipped isometrically, leaves
    # the decorated conformal class: residuals 3e-3 to 0.38 here, where the
    # same edge's flip in the class reads at most 6e-16
    for seed in (0, 2, 3, 4, 5):
        metric = random_metric(WILD[1], seed)
        (edge, _), *_ = delaunay_violations(metric)
        isometric, in_class = metric.copy(), metric.copy()
        flip_metric(isometric, edge)
        flip_metric(in_class, edge, isometric=False)
        assert oracle_class_residual(metric, isometric, edge) > 1e-3, seed
        assert oracle_class_residual(metric, in_class, edge) <= 1e-12, seed
