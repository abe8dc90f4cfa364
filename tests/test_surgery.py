from __future__ import annotations

import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packflow import (
    DecoratedMetric,
    DegenerateTriangle,
    FlipProducesDegenerate,
    FlowConfig,
    PackflowError,
    SelfFlip,
    SurgeryBudgetExceeded,
    build_complex,
    curvature,
    delaunay_violations,
    flip_metric,
    inversive_from_lengths,
    lengths_from_inversive,
    make_delaunay,
    parse_dpm,
    preset_complex,
    preset_metric,
    run,
    triangle_areas,
    validate_triangles,
)
from packflow import geometry, surgery
from packflow import metric as metric_module
from packflow.geometry import _terms
from packflow.oracles import RandomMetricSpec, oracle_make_delaunay, random_metric

MESHES = Path(__file__).resolve().parents[1] / "meshes"


def _doubled_right_triangle() -> DecoratedMetric:
    mesh = build_complex(
        3,
        [(0, 1, 2), (2, 1, 0)],
        [((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 2), (1, 2))],
    )
    return DecoratedMetric(mesh, np.array([3.0, 4.0, 5.0]), np.ones(3))


def _perturbed_torus(seed: int) -> DecoratedMetric:
    metric = preset_metric("torus_grid", n=3, radius=0.5)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, 9) * 1.2
    u -= u.mean()
    metric.set_conformal_factors(u)
    return metric


def test_flip_regular_tetrahedron_edge():
    # both faces at edge 0 are equilateral with side sqrt(6); the unfolded
    # quad is a rhombus, so the new diagonal is twice the height, 3 sqrt(2),
    # and the new inversive distance is (18 - 1 - 1) / 2 = 8.  The radii are
    # equal, so each face's orthogonal circle is centred at the circumcentre
    # of its equilateral face, which lies d = sqrt6 / (2 sqrt3) from each
    # side: the weight (d1 + d2) / l is 2d / sqrt6 = 1 / sqrt3
    metric = preset_metric("tetrahedron")
    metric, [event] = flip_metric(metric, 0, flow_time=1.5, ordinal=3)
    assert math.isclose(event.new_length, 3.0 * math.sqrt(2.0), rel_tol=1e-14)
    assert math.isclose(event.new_inversive, 8.0, rel_tol=1e-12)
    assert math.isclose(event.pre_weight, 1.0 / math.sqrt(3.0), rel_tol=1e-12)
    assert event.old_endpoints == (0, 1)
    assert event.new_endpoints == (2, 3)
    assert event.inversive_in_packing_range
    assert event.flow_time == 1.5
    assert event.ordinal == 3
    assert math.isclose(metric.effective_lengths[0], event.new_length, rel_tol=1e-15)


def test_flip_is_an_isometry_on_the_one_vertex_torus():
    # the new diagonal is measured inside the common quad layout, so the
    # total angle at the vertex and the total area cannot move
    for edge_id in range(3):
        metric = DecoratedMetric(
            preset_complex("one_vertex_torus"),
            np.array([1.0, 1.1, 1.8]),
            np.array([0.4]),
        )
        k_before = curvature(metric)
        area_before = float(np.sum(triangle_areas(metric)))
        flip_metric(metric, edge_id)
        assert np.allclose(curvature(metric), k_before, rtol=0, atol=1e-13)
        assert math.isclose(
            float(np.sum(triangle_areas(metric))), area_before, rel_tol=1e-13
        )
        metric.mesh.check()


def test_flip_refuses_to_create_flat_triangles():
    # doubling a 3-4-5 triangle puts a right angle at vertex 1; unfolding
    # across edge (0,1) or (1,2) lands the far corners exactly in line
    metric = _doubled_right_triangle()
    assert validate_triangles(metric).admissible
    for edge_id in (0, 1):
        with pytest.raises(FlipProducesDegenerate):
            flip_metric(metric.copy(), edge_id)
    flip_metric(metric, 2)
    metric.mesh.check()


def test_violations_sorted_worst_first():
    metric = _perturbed_torus(9)
    violations = delaunay_violations(metric)
    assert len(violations) == 4
    weights = [w for _, w in violations]
    assert weights == sorted(weights)
    assert all(w < 0.0 for w in weights)
    assert violations[0][0] == 20


def test_violations_of_an_inadmissible_metric_name_the_face():
    # admissibility is checked before any face is laid out, so the error
    # names the worst face and its margin
    metric = preset_metric("torus_grid", n=4)
    u = np.zeros(16)
    u[0] = -5.0
    metric.set_conformal_factors(u)
    report = validate_triangles(metric)
    with pytest.raises(DegenerateTriangle) as info:
        delaunay_violations(metric)
    assert str(info.value).startswith(
        f"triangle {report.worst_triangle} has margin {report.margins[report.worst_triangle]:.3e}"
    )


def test_make_delaunay_clears_violations_and_preserves_curvature():
    flipped_any = False
    for seed in range(10):
        metric = _perturbed_torus(seed)
        if not validate_triangles(metric).admissible:
            continue
        k_before = curvature(metric)
        area_before = float(np.sum(triangle_areas(metric)))
        _, events = make_delaunay(metric)
        assert delaunay_violations(metric) == []
        assert np.allclose(curvature(metric), k_before, rtol=0, atol=1e-9)
        assert math.isclose(
            float(np.sum(triangle_areas(metric))), area_before, rel_tol=1e-10
        )
        flipped_any = flipped_any or bool(events)
    assert flipped_any


def test_make_delaunay_is_idempotent():
    metric = _perturbed_torus(7)
    _, first = make_delaunay(metric)
    assert len(first) == 3
    _, second = make_delaunay(metric)
    assert second == []


def test_make_delaunay_numbers_events():
    metric = _perturbed_torus(9)
    _, events = make_delaunay(metric, flow_time=0.25, start_ordinal=10)
    assert [e.ordinal for e in events] == [10, 11, 12, 13]
    assert all(e.flow_time == 0.25 for e in events)


def test_surgery_budget(monkeypatch):
    metric = _perturbed_torus(9)
    monkeypatch.setattr(surgery, "SURGERY_BUDGET_PER_EDGE", 0)
    with pytest.raises(SurgeryBudgetExceeded):
        make_delaunay(metric)


def test_clean_metric_needs_no_flips():
    metric = preset_metric("icosahedron")
    assert delaunay_violations(metric) == []
    _, events = make_delaunay(metric)
    assert events == []


def test_flip_refuses_a_non_convex_quad():
    # after flipping edge 0, the quad over edge 1 has an angle of about
    # 3.27 rad at an old endpoint: its new diagonal would run outside the
    # quad, and the "flip" would move curvature by about 0.26
    metric = random_metric(RandomMetricSpec(preset="icosahedron"), 0)
    flip_metric(metric, 0)
    k_before = curvature(metric)
    with pytest.raises(FlipProducesDegenerate, match=r"quad angle at vertex \d+ is 3\.27"):
        flip_metric(metric, 1)
    assert np.array_equal(curvature(metric), k_before)
    metric.mesh.check()


def test_a_round_makes_the_flips_before_a_refused_one():
    # one flip_metric call on (a, 1, b) in the state of the test above: edge a flips,
    # edge 1 is refused by name, edge b is left alone, the same state and
    # error as flipping a and then 1 one at a time
    metric = random_metric(RandomMetricSpec(preset="icosahedron"), 0)
    flip_metric(metric, 0)
    faces_of = (metric.mesh.edge_sides_array() // 3).tolist()
    used = set(faces_of[1])
    picked = []
    for edge_id in range(metric.mesh.num_edges):
        faces = set(faces_of[edge_id])
        if len(picked) < 2 and not faces & used:
            try:
                flip_metric(metric.copy(), edge_id)
            except FlipProducesDegenerate:
                continue
            picked.append(edge_id)
            used |= faces
    (a, b), one_at_a_time = picked, metric.copy()
    flip_metric(one_at_a_time, a)
    refused = r"^flip of edge 1 would leave its quad: the quad angle at vertex \d+ is 3\.27"
    with pytest.raises(FlipProducesDegenerate, match=refused):
        flip_metric(metric, [a, 1, b])
    assert np.array_equal(metric.mesh.triangles, one_at_a_time.mesh.triangles)
    assert np.array_equal(metric.base_lengths, one_at_a_time.base_lengths)
    metric.mesh.check()


def _overlapping_tetrahedron(seed: int) -> DecoratedMetric:
    # unit circles with inversive distances down to -0.9, deep overlaps, and
    # scale factors up to 3: a new diagonal may have no base length at this u
    rng = np.random.default_rng(seed)
    mesh, radii = preset_complex("tetrahedron"), np.ones(4)
    inversive = rng.uniform(-0.9, 3.0, 6)
    metric = DecoratedMetric(mesh, lengths_from_inversive(mesh, radii, inversive), radii)
    metric.set_conformal_factors(rng.uniform(-3.0, 3.0, 4))
    return metric


def test_a_flip_with_no_base_length_is_refused_before_the_write():
    # make_delaunay's first round is edge 4 alone; its new diagonal's squared
    # base length at these scale factors is -5.3, so the round writes
    # nothing: the input triangles and base lengths stay, as the one flip
    # at a time reference leaves them
    metric = _overlapping_tetrahedron(646)
    before, reference = metric.copy(), metric.copy()
    with pytest.raises(
        FlipProducesDegenerate,
        match=r"^flip of edge 4 cannot be expressed at the current scale factors:"
        r" squared base length -5\.341e\+00$",
    ):
        make_delaunay(metric)
    assert np.array_equal(metric.mesh.triangles, before.mesh.triangles)
    assert np.array_equal(metric.base_lengths, before.base_lengths)
    metric.mesh.check()
    with pytest.raises(FlipProducesDegenerate, match=r"^flip of edge 4 cannot be rebased$"):
        oracle_make_delaunay(reference)
    assert np.array_equal(reference.mesh.triangles, before.mesh.triangles)
    assert np.array_equal(reference.base_lengths, before.base_lengths)


def test_a_round_rebases_its_flips_before_one_with_no_base_length():
    # one round takes edges 0 and 3; edge 3's new diagonal has no base
    # length, so edge 0 flips and is rebased and the error names edge 3:
    # the metric is flip_metric's of edge 0 alone, and admissible
    metric = _overlapping_tetrahedron(240)
    one = metric.copy()
    flip_metric(one, 0)
    with pytest.raises(FlipProducesDegenerate, match=r"^flip of edge 3 cannot be expressed"):
        make_delaunay(metric)
    assert np.array_equal(metric.mesh.triangles, one.mesh.triangles)
    assert np.array_equal(metric.mesh.edge_endpoints_array(), one.mesh.edge_endpoints_array())
    assert np.array_equal(metric.base_lengths, one.base_lengths)
    assert np.array_equal(metric.conformal_factors, one.conformal_factors)
    assert validate_triangles(metric).admissible
    metric.mesh.check()


def test_a_round_refuses_a_self_glued_edge_by_name():
    # two triangles on three vertices, edges 0 and 2 each glued within one
    # triangle: the metric is admissible and both violate, at weight
    # -2.0625, and the round refuses the first before any write
    mesh = build_complex(
        3, [(0, 1, 0), (0, 0, 2)], [((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 2))]
    )
    metric = DecoratedMetric(mesh, np.array([1.0, 1.2, 1.0]), np.array([2.0, 0.5, 0.5]))
    assert validate_triangles(metric).admissible
    assert delaunay_violations(metric) == [(0, -2.0625), (2, -2.0625)]
    with pytest.raises(SelfFlip, match=r"^edge 0 has both sides on triangle 0; flip undefined$"):
        make_delaunay(metric)
    assert metric.mesh.version == 0


def _squeezed_torus(n: int, seed: int | None) -> DecoratedMetric:
    # inversive distance 6 on the diagonals and 1.5 on the grid edges makes
    # every diagonal violate; seed None keeps all radii equal, so every
    # violation ties with every other
    mesh = preset_complex("torus_grid", n=n)
    radii = np.ones(n * n)
    if seed is not None:
        radii = np.exp(np.random.default_rng(seed).uniform(-0.1, 0.1, n * n))
    a, b = mesh.edge_endpoints_array().T
    di, dj = (b // n - a // n) % n, (b % n - a % n) % n
    inversive = np.where((di == dj) & (di != 0), 6.0, 1.5)
    return DecoratedMetric(mesh, lengths_from_inversive(mesh, radii, inversive), radii)


VIOLATING = {
    "squeezed n=20 seed=1": lambda: _squeezed_torus(20, 1),
    "squeezed n=7 tied": lambda: _squeezed_torus(7, None),
    **{
        f"{preset} seed={seed}": lambda preset=preset, seed=seed: random_metric(
            RandomMetricSpec(preset=preset, n=6, u_range=0.9), seed
        )
        for preset, seeds in (("torus_grid", (1, 2, 7)), ("icosahedron", (0, 5, 6)))
        for seed in seeds  # seeds whose metrics violate
    },
}


@pytest.mark.parametrize("name", VIOLATING)
def test_delaunay_violations_match_a_per_edge_reference(name):
    # worst first, ties by id: one (int, float) pair per violating edge
    metric = VIOLATING[name]()
    dsum, eps = geometry.delaunay_terms(metric)
    weights = geometry.edge_weights(metric)
    reference = sorted(
        ((e, float(weights[e])) for e in range(metric.mesh.num_edges) if dsum[e] < -eps[e]),
        key=lambda pair: pair[1],
    )
    violations = delaunay_violations(metric)
    assert violations, "the input has no violation"
    assert violations == reference
    assert [tuple(map(type, pair)) for pair in violations] == [(int, float)] * len(reference)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(3, 12))
def test_rounds_break_ties_into_a_weighted_delaunay_isometry(n):
    # equal radii tie every violation with every other; the rounds must
    # still end weighted Delaunay, without moving the curvature
    metric = _squeezed_torus(n, None)
    k_before = curvature(metric)
    _, events = make_delaunay(metric)
    assert len(events) == n * n
    assert delaunay_violations(metric.copy()) == []
    for state in (metric, metric.copy()):
        assert np.allclose(curvature(state), k_before, rtol=0, atol=1e-12)
    metric.mesh.check()


def _equivalence_inputs():
    for n in range(4, 9):
        for seed in (None, 0, 1):
            yield f"squeezed n={n} seed={seed}", _squeezed_torus(n, seed)
    wild = [
        RandomMetricSpec(preset="torus_grid", n=5, u_range=1.2),
        RandomMetricSpec(preset="torus_grid", n=6, u_range=0.6, inversive_range=(1.05, 4.0)),
        RandomMetricSpec(preset="icosahedron", u_range=0.7, inversive_range=(1.05, 4.0)),
    ]
    for spec in wild:
        for seed in range(12):
            yield f"{spec} seed={seed}", random_metric(spec, seed)


def _assert_same_events(mine, reference, name):
    # the reference ranks by weights from laid-out faces, so a weight
    # agrees to 1e-12 relative, on the scale 1 of its summands d/l when
    # smaller: the two sides cancel in d1 + d2 of a barely violating edge
    assert len(mine) == len(reference), name
    for a, b in zip(mine, reference):
        assert (a.ordinal, a.edge_id, a.old_endpoints, a.new_endpoints) == (
            b.ordinal, b.edge_id, b.old_endpoints, b.new_endpoints
        ), name
        assert (a.new_length, a.new_inversive) == (b.new_length, b.new_inversive), name
        assert abs(a.pre_weight - b.pre_weight) <= 1e-12 * max(1.0, abs(b.pre_weight)), name


def test_make_delaunay_matches_the_whole_mesh_reference(monkeypatch):
    # make_delaunay flips in rounds and tests each round's result with the
    # per-face kernel; the reference flips one edge at a time and, before
    # every flip, tests and ranks every edge from laid-out faces, not from
    # the kernel.  Same flips in the same order, same triangulation, same
    # lengths, and before every round the memoized terms (d1 + d2,
    # tolerance, face circles) equal a fresh whole-mesh pass on a copy, so
    # no round reads terms of the state before it
    def check_memo(metric):
        for mine, fresh in zip(metric.memo(_terms), _terms(metric.copy())):
            assert np.array_equal(mine, fresh)

    flip_round = surgery.flip_metric

    def checked_round(metric, *args, **kwargs):
        check_memo(metric)
        return flip_round(metric, *args, **kwargs)

    monkeypatch.setattr(surgery, "flip_metric", checked_round)
    flipped = 0
    for name, metric in _equivalence_inputs():
        mine, reference = metric.copy(), metric.copy()
        try:
            _, events = make_delaunay(mine)
        except PackflowError as exc:
            with pytest.raises(type(exc)):
                oracle_make_delaunay(reference)
        else:
            _assert_same_events(events, oracle_make_delaunay(reference), name)
            check_memo(mine)
            assert delaunay_violations(mine) == []
            flipped += len(events)
        assert np.array_equal(mine.mesh.triangles, reference.mesh.triangles), name
        assert np.array_equal(mine.base_lengths, reference.base_lengths), name
    assert flipped > 600


# inputs whose surgery takes more than one round: an edge starts to
# violate only after a flip on a neighbouring face
TORUS6 = RandomMetricSpec(preset="torus_grid", n=6, u_range=0.9, inversive_range=(1.05, 4.0))
MULTI_ROUND = [
    (TORUS6, 21, 3),
    (TORUS6, 13, 2),
    (RandomMetricSpec(preset="torus_grid", n=8, u_range=1.2), 56, 3),
]


@pytest.mark.parametrize("spec, seed, num_rounds", MULTI_ROUND)
def test_multi_round_surgery_ends_where_the_sequential_reference_ends(
    spec, seed, num_rounds, monkeypatch
):
    # a later round may flip an edge that the reference, ranking every
    # edge before every flip, flips earlier (seed 21: edges 69 and 107
    # trade places), so the event order may differ; the flips made and the
    # triangulation and lengths they end at may not
    rounds, flip_round = [], surgery.flip_metric

    def counting_round(m, edges, **kwargs):
        rounds.append(len(edges))
        return flip_round(m, edges, **kwargs)

    monkeypatch.setattr(surgery, "flip_metric", counting_round)
    metric = random_metric(spec, seed)
    reference = metric.copy()
    _, events = make_delaunay(metric)
    expected = oracle_make_delaunay(reference)
    assert len(rounds) == num_rounds
    assert sorted(e.edge_id for e in events) == sorted(e.edge_id for e in expected)
    assert np.array_equal(metric.mesh.triangles, reference.mesh.triangles)
    assert np.array_equal(metric.effective_lengths, reference.effective_lengths)
    assert delaunay_violations(metric) == []


def test_a_flip_to_an_inversive_distance_below_one_is_not_a_warning(caplog):
    # surgery output may carry any inversive distance, so the bundled
    # overlapping tetrahedron's one flip, to I = 0.81, is noted at debug level only
    metric = parse_dpm((MESHES / "tetra_overlap.dpm").read_text()).metric
    with caplog.at_level(logging.DEBUG, logger="packflow.surgery"):
        _, events = make_delaunay(metric)
    assert [event.inversive_in_packing_range for event in events] == [False]
    assert [record.levelno for record in caplog.records] == [logging.DEBUG]
    assert "inversive distance 0.807219 <= 1" in caplog.records[0].getMessage()


# overlapping vertex circles (inversive distance down to -0.5): on each
# input some violating edge joins two circles that meet, so its half chord
# is imaginary while its weight (d1 + d2)/l is not
OVERLAPPING = [("icosahedron", seed) for seed in (12, 32, 84, 201, 359)]
OVERLAPPING += [("tetrahedron", 189), ("octahedron", 170)]


def _overlapping(preset: str, seed: int) -> DecoratedMetric:
    spec = RandomMetricSpec(
        preset=preset, inversive_range=(-0.5, 3.0), u_range=0.6, radius_range=(0.3, 2.0)
    )
    return random_metric(spec, seed)


@pytest.mark.parametrize("seed", [84, 359])
def test_each_flip_to_an_inversive_distance_below_one_gets_its_own_debug_record(
    seed, caplog, monkeypatch
):
    # on these overlapping icosahedra a round makes two or more flips to
    # I <= 1 among others: one record per such flip, in event order, naming
    # its ordinal, edge and inversive distance, and none for the others
    rounds, flip_round = [], surgery.flip_metric

    def recorded_round(*args, **kwargs):
        metric, events = flip_round(*args, **kwargs)
        rounds.append(events)
        return metric, events

    monkeypatch.setattr(surgery, "flip_metric", recorded_round)
    with caplog.at_level(logging.DEBUG, logger="packflow.surgery"):
        _, events = make_delaunay(_overlapping("icosahedron", seed))
    low = [event for event in events if not event.inversive_in_packing_range]
    assert max(sum(not e.inversive_in_packing_range for e in r) for r in rounds) >= 2
    assert 0 < len(low) < len(events)
    assert [record.levelno for record in caplog.records] == [logging.DEBUG] * len(low)
    for record, event in zip(caplog.records, low):
        assert record.getMessage() == (
            f"flip {event.ordinal} created edge {event.edge_id}"
            f" with inversive distance {event.new_inversive:.6g} <= 1"
        )


@pytest.mark.parametrize("preset, seed", OVERLAPPING)
def test_surgery_flips_edges_between_overlapping_circles(preset, seed):
    metric = _overlapping(preset, seed)
    violations = delaunay_violations(metric)
    assert any(abs(inversive_from_lengths(metric)[e]) <= 1.0 for e, _ in violations)
    reference, k_before = metric.copy(), curvature(metric)
    _, events = make_delaunay(metric)
    oracle_make_delaunay(reference)
    assert events and all(e.pre_weight < 0.0 for e in events)
    assert delaunay_violations(metric) == []
    assert np.allclose(curvature(metric), k_before, rtol=0, atol=1e-14)
    # an edge may start to violate only after an earlier round (icosahedron
    # seeds 12 and 84), so the rounds and the one-at-a-time reference can
    # flip in different orders: compare where they end, not the event logs
    assert np.array_equal(metric.mesh.triangles, reference.mesh.triangles)
    assert np.array_equal(metric.effective_lengths, reference.effective_lengths)


@pytest.mark.parametrize("preset, seed", OVERLAPPING)
def test_every_flow_converges_through_overlapping_circles(preset, seed):
    metric = _overlapping(preset, seed)
    n = metric.mesh.num_vertices
    target = np.full(n, 2.0 * np.pi * metric.mesh.euler_characteristic / n)
    for settings in (
        {"kind": "ricci"},
        {"kind": "calabi"},
        {"kind": "fractional", "s": 0.5},
        {"kind": "p_calabi", "p": 3.0},
    ):
        trace = run(metric, FlowConfig(target=target, **settings))
        assert trace.converged, settings
        assert trace.flips_total > 0
        assert delaunay_violations(trace.metric) == []


def test_surgery_cost_does_not_grow_with_the_flips(monkeypatch):
    # one whole-mesh pass of the per-face kernel for the entry check and
    # one after every round, however many flips the round makes; the
    # curvature after surgery reads the last round's pass
    from packflow import flows

    metric = _squeezed_torus(6, 3)
    rows, rounds, settled = [], [], 0
    faces, settle, flip_round = geometry._faces, flows._settle, surgery.flip_metric

    def counting_faces(l, r):
        rows.append(l.shape[1])
        return faces(l, r)

    def counting_settle(state, *args):
        # an inadmissible trial enters _settle too and leaves it by the
        # margin gate's DegenerateTriangle, before any whole-mesh pass
        nonlocal settled
        settled += validate_triangles(state).admissible
        return settle(state, *args)

    conformal, apply = [], metric_module.apply_conformal

    def counting_conformal(m, u):
        conformal.append(m)
        return apply(m, u)

    def counting_round(m, edges, **kwargs):
        rounds.append(len(edges))
        return flip_round(m, edges, **kwargs)

    monkeypatch.setattr(geometry, "_faces", counting_faces)
    monkeypatch.setattr(surgery, "flip_metric", counting_round)
    monkeypatch.setattr(flows, "_settle", counting_settle)
    monkeypatch.setattr(metric_module, "apply_conformal", counting_conformal)
    _, events = make_delaunay(metric)
    curvature(metric)
    assert len(events) == 36
    # every diagonal violates and no two share a face: one round flips them all
    assert rounds == [36]
    assert rows == [72, 72]
    # the effective lengths are computed once per state: on entry and
    # after the round
    assert len(conformal) == 2
    # in a run that flips mid-flow (the tetrahedron driven toward the
    # curvature of a spread that is Delaunay only after a flip), every
    # trial state that reaches surgery costs one whole-mesh pass, and a flip
    # located inside a step one pass per bisection of the step's segment
    # (the flip reads the last) plus one at the segment's end on the new
    # triangulation.  The run takes 5 steps from h = 10: the first trial
    # leaves the admissible cone, before any pass, and halves, and h = 5
    # flips one edge at its crossing after 39 bisections, so 6 settled
    # states (the start and one per step) and 6 + 39 + 1 passes
    spread = preset_metric("tetrahedron")
    spread.set_conformal_factors(1.02 * np.array([1.0, 1.0, -1.0, -1.0]))
    make_delaunay(spread)
    rows.clear()
    rounds.clear()
    trace = run(preset_metric("tetrahedron"), FlowConfig(kind="ricci", target=curvature(spread)))
    assert trace.converged
    assert trace.records[0].flips == 0 < trace.flips_total
    assert set(rows) == {4}
    assert (settled, len(rounds), len(rows)) == (6, 1, 46)


def test_flips_along_a_step_are_made_where_the_laid_out_test_first_fails():
    # flip_along bisects the segment on whole-mesh passes from the end's
    # violation; the reference scans the laid-out test at points along the
    # segment, bisects from the first that fails and flips the worst edge
    # there: the same flips, the same triangulation and the same edge
    # lengths at the end.  Each event carries its crossing as the flow time
    # t0 + s h
    from packflow.oracles import oracle_walk
    from packflow.surgery import flip_along

    spec = RandomMetricSpec(preset="icosahedron", u_range=0.7, inversive_range=(1.05, 4.0))
    compared = 0
    for seed in range(40):
        start = random_metric(spec, seed)
        make_delaunay(start)
        n = start.mesh.num_vertices
        target = np.random.default_rng(seed).normal(0.0, 1.0, n)
        target += (4.0 * np.pi - target.sum()) / n
        du = -0.3 * (curvature(start) - target)
        fast, reference = start.copy(), start.copy()
        fast.set_conformal_factors(start.conformal_factors + du)
        try:
            _, events = flip_along(fast, du, flow_time=(2.0, 0.5))
            validate_triangles(fast).require()
        except PackflowError:
            continue
        if not events:
            continue
        oracle_walk(reference, du)
        compared += 1
        assert np.array_equal(fast.mesh.triangles, reference.mesh.triangles), seed
        assert np.allclose(fast.effective_lengths, reference.effective_lengths, rtol=0, atol=1e-9)
        assert np.array_equal(fast.conformal_factors, start.conformal_factors + du)
        times = [event.flow_time for event in events]
        assert times == sorted(times) and 2.0 < times[0] and times[-1] < 2.5, seed
    assert compared >= 8


def _step_along(seed: int) -> tuple[DecoratedMetric, np.ndarray]:
    # an input of the test above: a weighted Delaunay start moved by du,
    # the metric at the segment's end
    spec = RandomMetricSpec(preset="icosahedron", u_range=0.7, inversive_range=(1.05, 4.0))
    start = random_metric(spec, seed)
    make_delaunay(start)
    n = start.mesh.num_vertices
    target = np.random.default_rng(seed).normal(0.0, 1.0, n)
    target += (4.0 * np.pi - target.sum()) / n
    du = -0.3 * (curvature(start) - target)
    start.set_conformal_factors(start.conformal_factors + du)
    return start, du


def test_flip_along_stops_at_its_budget(monkeypatch):
    from packflow.surgery import flip_along

    metric, du = _step_along(10)
    assert delaunay_violations(metric)
    monkeypatch.setattr(surgery, "SURGERY_BUDGET_PER_EDGE", 0)
    with pytest.raises(
        SurgeryBudgetExceeded, match=r"^the segment's end still violates after 0 flips along it$"
    ):
        flip_along(metric, du)
    assert metric.mesh.version == 0


def test_a_midpoint_that_is_no_triangulation_counts_as_past_the_crossing(monkeypatch):
    # the segment crosses one edge, at s = 0.61; a midpoint's pass that
    # raises DegenerateTriangle anywhere in [s + (1 - s) / 4, 1) moves the
    # bracket's end there, as a pass past the crossing does, so the same
    # crossing is located with the same bits and the end is weighted Delaunay
    from packflow.surgery import flip_along

    metric, du = _step_along(10)
    clean = metric.copy()
    _, expected = flip_along(clean, du)
    (crossing,) = [event.flow_time for event in expected]
    u1, terms, refused = np.array(metric.conformal_factors), surgery.delaunay_terms, []

    def no_triangulation_past(m):
        s = 1.0 + float((m.conformal_factors - u1) @ du) / float(du @ du)
        if crossing + 0.25 * (1.0 - crossing) <= s < 1.0:
            refused.append(s)
            raise DegenerateTriangle(f"no triangulation at s = {s}")
        return terms(m)

    monkeypatch.setattr(surgery, "delaunay_terms", no_triangulation_past)
    _, events = flip_along(metric, du)
    assert refused
    assert events == expected
    assert np.array_equal(metric.mesh.triangles, clean.mesh.triangles)
    assert np.array_equal(metric.base_lengths, clean.base_lengths)
    assert np.array_equal(metric.conformal_factors, u1)
    assert delaunay_violations(metric) == []
