"""Length generation, conformal scaling, and admissibility reporting."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from packflow import (
    DecoratedMetric,
    DegenerateLength,
    DegenerateTriangle,
    InvalidInversiveDistance,
    NonPositiveRadius,
    apply_conformal,
    build_complex,
    inversive_from_lengths,
    lengths_from_inversive,
    parse_dpm,
    preset_complex,
    preset_metric,
    validate_triangles,
)

SPHERE2_FACES = [(0, 1, 2), (2, 1, 0)]
SPHERE2_GLUINGS = [((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 2), (1, 2))]


def sphere2(lengths, radii) -> DecoratedMetric:
    mesh = build_complex(3, SPHERE2_FACES, SPHERE2_GLUINGS)
    return DecoratedMetric(mesh, np.asarray(lengths, float), np.asarray(radii, float))


def test_length_from_radii_two_and_one_at_inversive_two():
    # l^2 = 4 + 1 + 2*2*2*1 = 13
    mesh = build_complex(3, SPHERE2_FACES, SPHERE2_GLUINGS)
    lengths = lengths_from_inversive(mesh, np.array([2.0, 1.0, 1.0]), np.full(3, 2.0))
    assert math.isclose(lengths[0], math.sqrt(13.0), rel_tol=1e-15)


def test_uniform_unit_radii_inversive_two_gives_sqrt_six():
    metric = preset_metric("tetrahedron")
    assert np.allclose(metric.base_lengths, math.sqrt(6.0), rtol=1e-15)


def _sphere2_document(inversive) -> str:
    return json.dumps(
        {
            "format": "dpm-1",
            "num_vertices": 3,
            "triangles": SPHERE2_FACES,
            "gluings": SPHERE2_GLUINGS,
            "radii": [1.0, 1.0, 1.0],
            "inversive_distances": inversive,
        }
    )


def test_packing_range_enforced_on_input():
    with pytest.raises(InvalidInversiveDistance, match=r"edges \[1\] have values \[1\.0\]"):
        parse_dpm(_sphere2_document([2.0, 1.0, 2.0]))
    doc = parse_dpm(_sphere2_document([1.0 + 1e-12, 5.0, 2.0]))
    assert np.allclose(inversive_from_lengths(doc.metric), [1.0 + 1e-12, 5.0, 2.0], rtol=1e-12)


def test_radii_must_be_positive():
    mesh = build_complex(3, SPHERE2_FACES, SPHERE2_GLUINGS)
    with pytest.raises(NonPositiveRadius):
        lengths_from_inversive(mesh, np.array([1.0, 0.0, 1.0]), np.full(3, 2.0))
    with pytest.raises(NonPositiveRadius):
        DecoratedMetric(mesh, np.full(3, 2.0), np.array([1.0, -1.0, 1.0]))


def test_scaling_rule_frozen_value():
    # r = (2, 1), I = 2, so l^2 = 13; under u = (ln 2, 0):
    #   (e^{2u0} - e^{u0+u1}) * 4 + (e^{2u1} - e^{u0+u1}) * 1 + e^{u0+u1} * 13
    #   = (4 - 2)*4 + (1 - 2)*1 + 2*13 = 33
    metric = sphere2([math.sqrt(13.0), 2.0, 2.0], [2.0, 1.0, 1.0])
    metric.set_conformal_factors([math.log(2.0), 0.0, 0.0])
    assert math.isclose(metric.effective_lengths[0] ** 2, 33.0, rel_tol=1e-14)


def test_scaling_agrees_with_rebuilding_from_scaled_circles():
    # scaling by u is the same as using radii e^u r with the inversive
    # distances held fixed
    rng = np.random.default_rng(11)
    mesh = preset_complex("icosahedron")
    radii = rng.uniform(0.7, 1.3, mesh.num_vertices)
    inv = rng.uniform(1.3, 2.5, mesh.num_edges)
    metric = DecoratedMetric(mesh, lengths_from_inversive(mesh, radii, inv), radii)
    u = rng.uniform(-0.4, 0.4, mesh.num_vertices)
    metric.set_conformal_factors(u)
    direct = lengths_from_inversive(mesh, np.exp(u) * radii, inv)
    assert np.allclose(metric.effective_lengths, direct, rtol=1e-13)
    assert np.allclose(metric.effective_radii, np.exp(u) * radii, rtol=1e-15)


def test_inversive_distances_invariant_under_scaling():
    rng = np.random.default_rng(3)
    metric = preset_metric("octahedron", radius=0.9, inversive=1.7)
    before = inversive_from_lengths(metric)
    assert np.allclose(before, 1.7, rtol=1e-13)
    for _ in range(5):
        u = rng.uniform(-0.5, 0.5, 6)
        metric.set_conformal_factors(u)
        after = inversive_from_lengths(metric)
        assert np.allclose(after, before, rtol=1e-10)


def test_loop_edges_scale_exactly_exponentially():
    metric = preset_metric("one_vertex_torus", radius=0.8, inversive=2.5)
    base = metric.base_lengths.copy()
    metric.set_conformal_factors([0.37])
    assert np.allclose(metric.effective_lengths, math.exp(0.37) * base, rtol=1e-15)


def test_uniform_scaling_is_global_rescale():
    metric = preset_metric("tetrahedron")
    metric.set_conformal_factors(np.full(4, -0.25))
    assert np.allclose(
        metric.effective_lengths, math.exp(-0.25) * metric.base_lengths, rtol=1e-14
    )


def test_scaled_length_can_degenerate_without_packing_hypothesis():
    # raw edge lengths may encode crossing circles (I < -1); then a scale
    # factor can drive the mixed formula to a non-positive square.  Here
    # edge (0, 1) has l = 0.5 < |r0 - r1| = 1, so I = -1.1875, and
    # u = (0, ln 2, 0) gives l~^2 = -4 + 2 + 0.5 = -1.5.
    metric = sphere2([0.5, 2.0, 2.2], [2.0, 1.0, 1.0])
    assert validate_triangles(metric).admissible
    assert math.isclose(inversive_from_lengths(metric)[0], -1.1875, rel_tol=1e-14)
    metric.set_conformal_factors([0.0, math.log(2.0), 0.0])
    with pytest.raises(DegenerateLength):
        metric.effective_lengths


def test_margin_report_flags_flat_triangle():
    metric = sphere2([1.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    report = validate_triangles(metric)
    assert not report.admissible
    assert report.margins == pytest.approx([0.0, 0.0])
    with pytest.raises(DegenerateTriangle):
        report.require()


def test_margin_report_on_valid_triangle():
    metric = sphere2([3.0, 4.0, 5.0], [1.0, 1.0, 1.0])
    report = validate_triangles(metric)
    assert report.admissible
    assert report.margins == pytest.approx([2.0, 2.0])
    report.require()


def test_validate_triangles_accepts_probe_factors():
    metric = preset_metric("tetrahedron")
    probe = metric.copy()
    probe.set_conformal_factors(np.array([2.0, 0.0, 0.0, -2.0]))
    report = validate_triangles(probe)
    assert not report.admissible
    # the metric itself is untouched by the probe
    assert np.all(metric.conformal_factors == 0.0)
    assert validate_triangles(metric).admissible


def test_rebase_edge_reproduces_requested_length():
    metric = preset_metric("tetrahedron")
    u = np.array([0.2, -0.1, 0.05, -0.15])
    metric.set_conformal_factors(u)
    # read before the rebase, so a stale memo of the old length would show
    assert not math.isclose(metric.effective_lengths[3], 2.0, rel_tol=1e-3)
    metric.rebase_edge(3, 2.0)
    assert math.isclose(metric.effective_lengths[3], 2.0, rel_tol=1e-14)
    # other edges untouched
    assert math.isclose(metric.base_lengths[0], math.sqrt(6.0), rel_tol=1e-15)


def test_rebase_edge_rejects_unreachable_length():
    # at u = (ln 3, 0, 0) the correction terms on edge (0, 1) add up to
    # (9 - 3)*4 + (1 - 3)*1 = 22, more than any tiny target length squared
    metric = sphere2([math.sqrt(13.0), 2.0, 2.0], [2.0, 1.0, 1.0])
    metric.set_conformal_factors([math.log(3.0), 0.0, 0.0])
    with pytest.raises(DegenerateLength):
        metric.rebase_edge(0, 0.1)


def test_copy_is_deep():
    metric = preset_metric("tetrahedron")
    dup = metric.copy()
    dup.set_conformal_factors([0.3, -0.1, -0.1, -0.1])
    dup.mesh.flip(0)
    assert np.all(metric.conformal_factors == 0.0)
    assert metric.mesh.edge_endpoints_array()[0].tolist() == [0, 1]


def test_conformal_factors_view_is_read_only():
    metric = preset_metric("tetrahedron")
    with pytest.raises(ValueError):
        metric.conformal_factors[0] = 1.0


def test_effective_lengths_cache_tracks_updates():
    metric = preset_metric("tetrahedron")
    first = metric.effective_lengths
    metric.set_conformal_factors([0.1, -0.1, 0.0, 0.0])
    second = metric.effective_lengths
    assert not np.allclose(first, second)
    metric.set_conformal_factors(np.zeros(4))
    assert np.allclose(metric.effective_lengths, first)
    # a bare combinatorial flip gives edge 0 new endpoints, whose scale
    # factors then apply to its stored base length
    metric.set_conformal_factors([0.1, -0.1, 0.0, 0.0])
    before_flip = metric.effective_lengths
    metric.mesh.flip(0)
    lengths, _ = apply_conformal(metric, metric.conformal_factors)
    assert np.array_equal(metric.effective_lengths, lengths)
    assert metric.effective_lengths[0] != before_flip[0]


def test_apply_conformal_matches_effective_properties():
    metric = preset_metric("octahedron", radius=1.2)
    u = np.linspace(-0.3, 0.3, 6)
    lengths, radii = apply_conformal(metric, u)
    metric.set_conformal_factors(u)
    assert np.array_equal(lengths, metric.effective_lengths)
    assert np.array_equal(radii, metric.effective_radii)


def _nested_sphere(flat: bool = False):
    """A sphere of 14 nested equilateral triangles, each a tenth of the one
    around it, so the innermost (face 1) is 1e-13 the size of the
    outermost; with ``flat`` its third corner sits on its first side.
    Each ring between two triangles is six faces, and one face closes
    the outermost from behind."""
    from packflow import infer_gluings

    angles = np.pi / 2 + 2 * np.pi * np.arange(3) / 3
    points = np.concatenate([0.1**k * np.stack([np.cos(angles), np.sin(angles)], 1) for k in range(14)])
    if flat:
        points[41] = 0.5 * (points[39] + points[40])
    faces = [(0, 2, 1), (39, 40, 41)]
    for o in range(0, 39, 3):
        for i in range(3):
            j = (i + 1) % 3
            faces += [(o + i, o + j, o + 3 + j), (o + i, o + 3 + j, o + 3 + i)]
    mesh = infer_gluings(42, faces)
    ends = mesh.edge_endpoints_array()
    lengths = np.linalg.norm(points[ends[:, 0]] - points[ends[:, 1]], axis=1)
    return DecoratedMetric(mesh, lengths, np.ones(42))


def test_margin_gate_reads_each_face_on_its_own_scale():
    # the innermost face is equilateral but 1e-13 the size of the longest
    # edge: its margin, 1.7e-13, sat below the old threshold of 1e-12 times
    # the mesh's longest edge, 1.7.  Against its own longest side the
    # threshold is 1.7e-25.  Flattened onto a line, the same face is
    # refused at its own scale, and the report names it with its own
    # threshold
    metric = _nested_sphere()
    report = validate_triangles(metric)
    assert report.admissible
    side = np.sqrt(3) * 1e-13
    assert report.threshold[1] == pytest.approx(1e-12 * side)
    assert report.margins[1] == pytest.approx(side) and side < 1e-12 * np.max(metric.effective_lengths)
    report = validate_triangles(_nested_sphere(flat=True))
    assert not report.admissible and report.worst_triangle == 1
    assert report.margins[1] <= report.threshold[1] == pytest.approx(1e-12 * side)
    with pytest.raises(DegenerateTriangle, match=f"triangle 1 .*threshold {report.threshold[1]:.3e}"):
        report.require()
