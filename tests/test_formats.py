"""Reading and writing dpm-1 documents and flow trace CSVs."""

from __future__ import annotations

import csv
import gc
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packflow import (
    DpmSyntaxError,
    FlowConfig,
    InvalidInversiveDistance,
    InvalidParams,
    MeshError,
    PackflowError,
    SchemaError,
    DecoratedMetric,
    build_complex,
    curvature,
    emit_dpm,
    flip_metric,
    generate,
    lengths_from_inversive,
    make_delaunay,
    parse_dpm,
    preset_complex,
    preset_metric,
    run,
    write_trace_csv,
)
from packflow import formats
from packflow.formats import TRACE_COLUMNS, DpmDocument
from packflow.oracles import RandomMetricSpec, random_metric

MESH_DIR = Path(__file__).resolve().parents[1] / "meshes"

TETRA_DOC = """{
  "format": "dpm-1",
  "num_vertices": 4,
  "triangles": [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]],
  "radii": [1.0, 1.0, 1.0, 1.0],
  "inversive_distances": [2, 2, 2, 2, 2, 2]
}
"""


def test_parse_inversive_document():
    doc = parse_dpm(TETRA_DOC)
    assert doc.mesh.num_vertices == 4
    assert doc.mesh.num_edges == 6
    assert doc.target is None
    assert np.allclose(doc.metric.effective_lengths, np.sqrt(6.0))
    assert np.allclose(curvature(doc.metric), np.pi)


def test_parse_matches_preset():
    doc = parse_dpm(TETRA_DOC)
    ref = preset_metric("tetrahedron")
    assert np.allclose(doc.metric.base_lengths, ref.base_lengths)


def test_emit_then_parse_preserves_geometry():
    metric = preset_metric("icosahedron", radius=0.8, inversive=2.3)
    metric.set_conformal_factors(np.linspace(-0.1, 0.1, 12))
    text = emit_dpm(metric)
    back = parse_dpm(text).metric
    # emission folds u into the lengths; geometry must be unchanged
    assert np.allclose(back.effective_lengths, metric.effective_lengths, rtol=0, atol=0)
    assert np.allclose(back.effective_radii, metric.effective_radii, rtol=0, atol=0)
    assert np.array_equal(back.conformal_factors, np.zeros(12))


def test_parse_emit_is_a_fixed_point():
    text = generate("octahedron", radius=1.1, inversive=1.9)
    again = emit_dpm(parse_dpm(text).metric)
    assert again == text
    # and the numbers survive a json round trip bit for bit
    lengths = json.loads(text)["edge_lengths"]
    assert lengths == json.loads(again)["edge_lengths"]


def test_emit_carries_target():
    metric = preset_metric("tetrahedron")
    target = np.full(4, np.pi)
    doc = parse_dpm(emit_dpm(metric, target))
    assert doc.target is not None
    assert np.array_equal(doc.target, target)


def test_syntax_error_carries_position():
    with pytest.raises(DpmSyntaxError) as err:
        parse_dpm('{\n  "format": "dpm-1",\n  "num_vertices": }\n')
    assert err.value.line == 3
    assert err.value.column > 0


def test_schema_errors_name_the_field():
    base = json.loads(TETRA_DOC)

    def reject(mutate, needle):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        with pytest.raises(SchemaError) as err:
            parse_dpm(json.dumps(doc))
        assert needle in str(err.value)

    reject(lambda d: d.pop("format"), "format")
    reject(lambda d: d.update(format="dpm-2"), "dpm-2")
    reject(lambda d: d.pop("num_vertices"), "num_vertices")
    reject(lambda d: d.pop("radii"), "radii")
    reject(lambda d: d.update(radii=[1.0, 1.0]), "length 2")
    reject(lambda d: d.update(triangles=[[0, 1], [2, 3]]), "triangles")
    reject(lambda d: d.update(triangles="abc"), "triangles")
    reject(lambda d: d.update(num_vertices="four"), "num_vertices")
    reject(lambda d: d.update(inversive_distances=[2, 2, 2, True, 2, 2]), "numbers")
    reject(lambda d: d.update(num_vertices=True), "num_vertices")
    # JSON's NaN and Infinity parse as floats; a NaN inversive distance
    # would pass the > 1 check and fail later under the wrong field
    reject(lambda d: d.update(radii=[1.0, float("nan"), 1.0, 1.0]), "'radii' must hold finite")
    reject(lambda d: d.update(inversive_distances=[2, 2, float("nan"), 2, 2, 2]), "'inversive")
    reject(lambda d: d.update(conformal_factors=[0.0, 0.0, float("inf"), 0.0]), "'conformal")
    reject(lambda d: d.update(target_curvature=[-float("inf"), 0.0, 0.0, 0.0]), "'target")
    # the first malformed gluing is named: a bool or a float entry, a side
    # of three entries, a pair that is not a list
    glued = [[0, 0], [2, 2]]
    for bad in ([[True, 0], [2, 2]], [[0, 1.0], [2, 2]], [[0, 1, 2], [2, 2]], "pair", 7):
        reject(lambda d: d.update(gluings=[glued, bad]), "field 'gluings'[1] must be")
    # an integer literal beyond the float range converts to no finite number
    reject(lambda d: d.update(radii=[1.0, 10**400, 1.0, 1.0]), "'radii' must hold finite")
    reject(lambda d: d.update(inversive_distances=[2, 2, 2, 2, 2, -(10**400)]), "'inversive")
    reject(lambda d: d.update(target_curvature=[10**309, 0.0, 0.0, 0.0]), "'target")


def test_json_beyond_the_decoder_limits_is_a_syntax_error():
    # CPython reads no integer literal of more than 4300 digits and no
    # nesting deeper than its recursion limit; both end in DpmSyntaxError
    long_int = TETRA_DOC.replace('"radii": [1.0,', '"radii": [' + "7" * 5000 + ",")
    with pytest.raises(DpmSyntaxError, match="^integer literal with too many digits$"):
        parse_dpm(long_int)
    deep = TETRA_DOC.replace('"radii": [1.0,', '"radii": [' + "[" * 100_000 + ",")
    with pytest.raises(DpmSyntaxError, match="^arrays or objects nested too deeply$"):
        parse_dpm(deep)



def test_parse_leaves_the_collector_as_it_found_it(monkeypatch):
    # parse_dpm and parse_target never switch the cyclic collector, on any
    # exit and on either path: the text reader's or json.loads on the whole
    # text.  Read from the text, a V = 400 document builds the lists of its
    # number arrays only, too few to set off a collection
    sym = (MESH_DIR / "tetra_sym.dpm").read_text()

    def switched():
        raise AssertionError("the collector was switched")

    with monkeypatch.context() as patch:
        patch.setattr(gc, "disable", switched)
        patch.setattr(gc, "enable", switched)
        parse_dpm(sym)
        parse_dpm(sym.replace("{", '{"note": "café",', 1))
        target = formats.parse_target("[0.5, 1.0, 1.5, 2.0]", 4, "target.json")
        assert np.array_equal(target, [0.5, 1.0, 1.5, 2.0])
    base = json.loads(TETRA_DOC)
    cases = [
        (TETRA_DOC, None),
        ('{\n  "format": "dpm-1",\n  "num_vertices": }\n', DpmSyntaxError),
        (TETRA_DOC.replace('"radii": [1.0,', '"radii": [' + "7" * 5000 + ","), DpmSyntaxError),
        (TETRA_DOC.replace('"radii": [1.0,', '"radii": [' + "[" * 100_000 + ","), DpmSyntaxError),
        (json.dumps(dict(base, format="dpm-2")), SchemaError),
        (json.dumps(dict(base, gluings=[[[0, 0], [7, 0]]])), MeshError),  # from build_complex
    ]
    collections = []

    def hook(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            for text, error in cases:
                gc.enable() if enabled else gc.disable()
                if error is None:
                    parse_dpm(text)
                else:
                    with pytest.raises(error):
                        parse_dpm(text)
                assert gc.isenabled() is enabled, (enabled, error)
        text = generate("torus_grid", n=20)
        gc.enable()
        gc.collect()
        gc.callbacks.append(hook)
        try:
            parse_dpm(text)
        finally:
            gc.callbacks.remove(hook)
        assert collections == []
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_top_level_must_be_object():
    with pytest.raises(SchemaError):
        parse_dpm("[1, 2, 3]")


def test_exactly_one_length_source():
    base = json.loads(TETRA_DOC)
    both = dict(base, edge_lengths=[2.0] * 6)
    with pytest.raises(SchemaError, match="exactly one"):
        parse_dpm(json.dumps(both))
    neither = {k: v for k, v in base.items() if k != "inversive_distances"}
    with pytest.raises(SchemaError, match="exactly one"):
        parse_dpm(json.dumps(neither))


def test_inversive_input_must_exceed_one():
    doc = json.loads(TETRA_DOC)
    doc["inversive_distances"] = [2, 2, 0.9, 2, 2, 2]
    with pytest.raises(InvalidInversiveDistance):
        parse_dpm(json.dumps(doc))


def test_edge_lengths_bypass_packing_restriction():
    # lengths may encode inversive distances <= 1; only direct inversive
    # input is held to the packing range
    doc = json.loads(TETRA_DOC)
    del doc["inversive_distances"]
    doc["edge_lengths"] = [1.9] * 6
    metric = parse_dpm(json.dumps(doc)).metric
    assert np.allclose(metric.effective_lengths, 1.9)


def test_optional_conformal_factors():
    doc = json.loads(TETRA_DOC)
    doc["conformal_factors"] = [0.1, -0.1, 0.05, -0.05]
    metric = parse_dpm(json.dumps(doc)).metric
    assert np.array_equal(metric.conformal_factors, [0.1, -0.1, 0.05, -0.05])


def test_gluings_are_honored_when_present():
    text = generate("torus_grid", n=3)
    raw = json.loads(text)
    assert "gluings" in raw
    doc = parse_dpm(text)
    assert doc.mesh.num_edges == 27
    assert doc.mesh.euler_characteristic == 0


def test_generate_rejects_unknown_preset():
    with pytest.raises(InvalidParams):
        generate("dodecahedron")


@pytest.mark.parametrize(
    ("kwargs", "message"),
    [
        ({"n": 2}, "torus_grid needs n >= 3, got 2"),
        ({"n": None}, "torus_grid needs n >= 3, got None"),
        ({"n": 4, "radius": 0.0}, "radius must be positive, got 0.0"),
        ({"n": 4, "radius": -1.0}, "radius must be positive, got -1.0"),
        ({"n": 4, "radius": float("nan")}, "radius must be positive, got nan"),
        ({"n": 4, "inversive": 1.0}, "inversive distance must exceed 1 on initial data, got 1.0"),
        ({"n": 4, "inversive": 0.5}, "inversive distance must exceed 1 on initial data, got 0.5"),
    ],
)
def test_presets_reject_bad_parameters(kwargs, message):
    for make in (preset_metric, generate):
        with pytest.raises(InvalidParams) as info:
            make("torus_grid", **kwargs)
        assert str(info.value) == message
    if set(kwargs) == {"n"}:
        with pytest.raises(InvalidParams, match="torus_grid needs n >= 3"):
            preset_complex("torus_grid", n=kwargs["n"])


def test_generated_documents_parse_for_every_preset():
    for preset, kwargs in (
        ("tetrahedron", {}),
        ("octahedron", {}),
        ("icosahedron", {}),
        ("torus_grid", {"n": 4}),
        ("one_vertex_torus", {}),
    ):
        doc = parse_dpm(generate(preset, **kwargs))
        assert doc.metric.mesh.num_triangles > 0


def test_bundled_meshes_parse():
    files = sorted(MESH_DIR.glob("*.dpm"))
    assert len(files) >= 6
    for path in files:
        text = path.read_text()
        doc = parse_dpm(text)
        # every bundled file is the emitter's own output
        assert emit_dpm(doc.metric) == text

    tetra = parse_dpm((MESH_DIR / "tetra_sym.dpm").read_text())
    assert tetra.mesh.num_vertices == 4
    assert tetra.mesh.num_edges == 6
    assert tetra.mesh.euler_characteristic == 2


def test_parse_builds_the_complex_that_python_lists_build():
    # parse_dpm hands build_complex int64 arrays; the lists of the same
    # document must give the same storage
    for path in sorted(MESH_DIR.glob("*.dpm")):
        raw = json.loads(path.read_text())
        mesh = parse_dpm(path.read_text()).mesh
        ref = build_complex(raw["num_vertices"], raw["triangles"], raw["gluings"])
        for mine, theirs in ((mesh._tri, ref._tri), (mesh._twin, ref._twin),
                             (mesh._sides, ref._sides)):
            assert np.array_equal(mine, theirs), path.name


def test_trace_csv_layout():
    metric = preset_metric("tetrahedron")
    rng = np.random.default_rng(7)
    u = rng.uniform(-0.3, 0.3, 4)
    u -= u.mean()
    metric.set_conformal_factors(u)
    trace = run(metric, FlowConfig(kind="calabi", target=np.full(4, np.pi)))

    from packflow import write_trace_csv

    sink = io.StringIO()
    write_trace_csv(trace, sink)
    rows = list(csv.reader(io.StringIO(sink.getvalue())))
    assert rows[0] == list(TRACE_COLUMNS)
    assert len(rows) == len(trace.records) + 1
    assert rows[1][0] == "0"
    last = rows[-1]
    assert int(last[0]) == trace.steps
    assert float(last[2]) == trace.final_max_curv_err
    assert int(last[5]) == trace.flips_total


def test_trace_csv_matches_a_per_field_reference():
    # every column is its record field with 17 significant digits, which
    # writes the int columns as str does: checked on a run with flips and
    # tau-time h, against the columns spelled out one by one
    metric = random_metric(RandomMetricSpec(preset="icosahedron", u_range=0.7,
                                            inversive_range=(1.05, 4.0)), 3)
    n = metric.mesh.num_vertices
    trace = run(metric, FlowConfig(kind="p_calabi", p=3.0, target=np.full(n, 4.0 * np.pi / n)))
    assert trace.flips_total > 0
    sink = io.StringIO()
    write_trace_csv(trace, sink)
    expected = ["step,t,max_curv_err,calabi_energy,W_est,flips_total,min_margin,h"]
    for rec in trace.records:
        floats = (rec.t, rec.max_curv_err, rec.calabi_energy, rec.w_est)
        expected.append(",".join([
            str(rec.step), *(format(x, ".17g") for x in floats),
            str(rec.flips_total), format(rec.min_margin, ".17g"), format(rec.h, ".17g"),
        ]))
    assert sink.getvalue() == "\n".join(expected) + "\n"


# -- property: emit -> parse -> emit is a byte-exact fixed point ------------------

ROUND_TRIP_SPECS = {
    "tetrahedron": RandomMetricSpec(preset="tetrahedron"),
    "icosahedron": RandomMetricSpec(preset="icosahedron"),
    "torus_grid": RandomMetricSpec(preset="torus_grid", n=4, u_range=0.6),
    "one_vertex_torus": RandomMetricSpec(preset="one_vertex_torus"),
}


@settings(max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(sorted(ROUND_TRIP_SPECS)),
    seed=st.integers(0, 2**16),
    with_target=st.booleans(),
)
def test_emit_parse_emit_is_a_fixed_point(preset, seed, with_target):
    metric = random_metric(ROUND_TRIP_SPECS[preset], seed)
    n = metric.mesh.num_vertices
    target = np.random.default_rng(seed).normal(size=n) if with_target else None
    for stage in ("as drawn", "after make_delaunay"):
        if stage == "after make_delaunay":
            make_delaunay(metric)
        text = emit_dpm(metric, target)
        doc = parse_dpm(text)
        assert emit_dpm(doc.metric, doc.target) == text, stage
        assert np.array_equal(doc.metric.effective_lengths, metric.effective_lengths), stage
        assert np.array_equal(doc.metric.effective_radii, metric.effective_radii), stage


# -- emission against a per-number reference ---------------------------------------


def _reference_emit(metric, target=None) -> str:
    """emit_dpm written with one format call per number and one per row."""
    def numbers(values):
        return "[" + ", ".join(format(x, ".17g") for x in np.asarray(values, float).tolist()) + "]"

    mesh = metric.mesh
    triangles = ",\n".join("    [%d, %d, %d]" % tuple(tri) for tri in mesh.triangles.tolist())
    gluings = ",\n".join(
        "    [\n      [%d, %d],\n      [%d, %d]\n    ]" % (*a, *b)
        for a, b in mesh.gluings().tolist()
    )
    fields = [
        '"format": "dpm-1"',
        f'"num_vertices": {mesh.num_vertices}',
        f'"triangles": [\n{triangles}\n  ]',
        f'"gluings": [\n{gluings}\n  ]',
        f'"edge_lengths": {numbers(metric.effective_lengths)}',
        f'"radii": {numbers(metric.effective_radii)}',
    ]
    if target is not None:
        fields.append(f'"target_curvature": {numbers(target)}')
    return "{\n" + ",\n".join("  " + field for field in fields) + "\n}\n"


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -3.0, 2.0**53, 1e16, 1e17, 123456789012345678.0, 0.1]


@pytest.mark.parametrize(
    "preset, kwargs",
    [("tetrahedron", {}), ("octahedron", {"radius": 3.0}), ("icosahedron", {"inversive": 1.5}),
     ("torus_grid", {"n": 5}), ("one_vertex_torus", {})],
)
def test_emit_matches_a_per_number_reference_on_presets(preset, kwargs):
    metric = preset_metric(preset, **kwargs)
    n = metric.mesh.num_vertices
    # integral floats, signed zeros, the least subnormal and the largest double
    target = np.resize(EDGE_VALUES, n)
    assert emit_dpm(metric) == _reference_emit(metric)
    assert emit_dpm(metric, target) == _reference_emit(metric, target)


@pytest.mark.parametrize("preset", sorted(ROUND_TRIP_SPECS))
@pytest.mark.parametrize("seed", range(4))
def test_emit_matches_a_per_number_reference_on_random_metrics(preset, seed):
    metric = random_metric(ROUND_TRIP_SPECS[preset], seed)
    target = np.random.default_rng(seed).normal(size=metric.mesh.num_vertices)
    assert emit_dpm(metric, target) == _reference_emit(metric, target)
    make_delaunay(metric)
    assert emit_dpm(metric) == _reference_emit(metric)


# -- triangles and gluings read from the text ------------------------------------------


def _json_path(text: str) -> DpmDocument:
    """parse_dpm as it reads every document that the text reader declines:
    json.loads on the whole text, its errors mapped as formats._decode maps them."""
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DpmSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError:
        raise DpmSyntaxError("integer literal with too many digits") from None
    except RecursionError:
        raise DpmSyntaxError("arrays or objects nested too deeply") from None
    return formats._document(tree)


def _outcome(read, text: str) -> tuple:
    """What ``read`` makes of ``text``: the parsed arrays, or the error's type,
    message and position."""
    try:
        doc = read(text)
    except PackflowError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    metric, mesh = doc.metric, doc.mesh
    arrays = (mesh._tri, mesh._twin, mesh._sides, metric.base_lengths, metric.radii,
              metric.conformal_factors, doc.target)
    return tuple(None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def _fuzz_bases() -> list[str]:
    texts = []
    for preset, n in [("torus_grid", n) for n in range(3, 7)] + [("tetrahedron", None),
                                                                  ("one_vertex_torus", None)]:
        metric = preset_metric(preset, n=n) if n else preset_metric(preset)
        target = np.linspace(-1.0, 1.0, metric.mesh.num_vertices)
        for text in (emit_dpm(metric), emit_dpm(metric, target)):
            texts += [text, json.dumps(json.loads(text))]
    return texts


FUZZ_BASES = _fuzz_bases()
FUZZ_TOKENS = list('[],-0123456789 \t\n"e.') + ["true", "01", "1 2", "1234567890123456789"]


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(FUZZ_BASES),
    edits=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.sampled_from(["insert", "delete", "replace"]),
                  st.sampled_from(FUZZ_TOKENS)),
        min_size=1,
        max_size=3,
    ),
)
def test_int_rows_read_from_the_text_agree_with_the_json_path(base, edits):
    # the edits land inside the triangles and gluings blocks or just around them
    lo, hi = base.index('"triangles"') - 5, base.index('"edge_lengths"') + 5
    text = base
    for where, op, token in edits:
        at = lo + round(where * (hi - lo))
        if op == "insert":
            text = text[:at] + token + text[at:]
        else:
            text = text[:at] + (token if op == "replace" else "") + text[at + 1:]
    assert _outcome(parse_dpm, text) == _outcome(_json_path, text)


def _read_from_the_text_only(monkeypatch):
    """Make the JSON path's conversion of int rows raise, so that a document
    parses only if its triangles and gluings were read from the text."""
    def refuse(rows, shape):
        raise AssertionError("int rows converted from the JSON tree")

    monkeypatch.setattr(formats, "_int_leaves", refuse)


def test_every_bundled_and_generated_document_reads_its_rows_from_the_text(monkeypatch):
    texts = [path.read_text() for path in sorted(MESH_DIR.glob("*.dpm"))]
    texts += [generate(preset, **kwargs) for preset, kwargs in (
        ("tetrahedron", {}), ("octahedron", {}), ("icosahedron", {}),
        ("torus_grid", {"n": 4}), ("torus_grid", {"n": 20}), ("one_vertex_torus", {}))]
    texts += [json.dumps(json.loads(text), separators=(",", ":")) for text in texts]
    expected = [_outcome(_json_path, text) for text in texts]
    _read_from_the_text_only(monkeypatch)
    assert [_outcome(parse_dpm, text) for text in texts] == expected


@pytest.mark.parametrize(
    "extra",
    ['"note": "a \\\\ backslash"', '"note": "café"'],
    ids=["backslash", "non-ASCII"],
)
def test_a_declined_document_reads_as_json(monkeypatch, extra):
    text = (MESH_DIR / "tetra_sym.dpm").read_text().replace("{", "{" + extra + ",", 1)
    parse_dpm(text)
    assert _outcome(parse_dpm, text) == _outcome(_json_path, text)
    _read_from_the_text_only(monkeypatch)
    with pytest.raises(AssertionError, match="from the JSON tree"):
        parse_dpm(text)


TETRA_SYM = (MESH_DIR / "tetra_sym.dpm").read_text()


@pytest.mark.parametrize(
    ("old", "new", "error", "message"),
    [
        ("[0, 1, 2]", "[01, 2, 3]", DpmSyntaxError, "Expecting ',' delimiter (line 5, column 7)"),
        ("[0, 1, 2]", "[0 1, 2]", DpmSyntaxError, "Expecting ',' delimiter (line 5, column 8)"),
        ("[0, 1, 2]", "[1 2, 2, 3]", DpmSyntaxError, "Expecting ',' delimiter (line 5, column 8)"),
        ("[0, 1, 2]", "[1 2, , 3]", DpmSyntaxError, "Expecting ',' delimiter (line 5, column 8)"),
        ("[0, 1, 2]", "[-, 1, 2]", DpmSyntaxError, "Expecting value (line 5, column 6)"),
        ("[1, 3, 2]\n", "[1, 3, 2],\n", DpmSyntaxError, "Expecting value (line 9, column 3)"),
        ("[0, 1, 2]", "[1.0, 1, 2]", SchemaError,
         "field 'triangles'[0] must be three integer vertex ids"),
        ("[0, 1, 2]", "[true, 1, 2]", SchemaError,
         "field 'triangles'[0] must be three integer vertex ids"),
        ("[0, 1, 2]", "[0, 1]", SchemaError,
         "field 'triangles'[0] must be three integer vertex ids"),
        ("[0, 0],\n      [2, 2]", "[0, 0],\n      [2]", SchemaError,
         "field 'gluings'[0] must be [[t, e], [t2, e2]]"),
        ("[0, 1, 2]", "[0, 1234567890123456789, 2]", MeshError,
         "triangle 0 references vertex 1234567890123456789 outside [0, 4)"),
        ("[0, 1, 2]", "[0, 123456789012345678, 2]", MeshError,
         "triangle 0 references vertex 123456789012345678 outside [0, 4)"),
        ("[0, 1, 2],\n    [0, 2, 3]", "[0, 1, ], 2[0, 2, 3]", DpmSyntaxError,
         "Expecting value (line 5, column 12)"),
        ("[0, 1, 2],\n    [0, 2, 3]", "[0, 1, ]2, [0, 2, 3]", DpmSyntaxError,
         "Expecting value (line 5, column 12)"),
        (TETRA_SYM[TETRA_SYM.index("[\n    [0, 1, 2]"):TETRA_SYM.index('"gluings"') - 4], "[]",
         MeshError, "no triangles"),
        # a duplicate key: the last one wins
        ('"gluings"', '"triangles": [[0, 1]],\n  "gluings"', SchemaError,
         "field 'triangles'[0] must be three integer vertex ids"),
        ('"triangles"', '"triangles": [[0, 1]],\n  "triangles"', None, None),
    ],
    ids=["leading zero", "space in a number", "space in a row of three", "space and an empty slot", "lone minus", "trailing comma", "float id",
         "bool id", "two corners", "ragged gluing", "19-digit id", "18-digit id",
         "a number before a row", "a number after a row", "no triangles",
         "duplicate key, bad last", "duplicate key, good last"],
)
def test_int_row_errors_are_the_json_paths(old, new, error, message):
    assert old in TETRA_SYM
    text = TETRA_SYM.replace(old, new, 1)
    assert _outcome(parse_dpm, text) == _outcome(_json_path, text)
    if error is None:
        parse_dpm(text)
    else:
        with pytest.raises(error) as info:
            parse_dpm(text)
        assert str(info.value) == message


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("[" + TETRA_SYM + "]", "top level must be a JSON object"),
        ('{"format": "dpm-1", "inner": ' + TETRA_SYM + "}", "missing field 'num_vertices' in document"),
        (TETRA_SYM.replace('"radii"', '"triangles": "\x7ftriangles", "radii"'),
         "field 'triangles' must be list, got str"),
    ],
    ids=["in a top-level array", "in a nested object", "a marker string in the text"],
)
def test_rows_that_are_not_the_documents_own_are_left_to_the_json_path(text, message):
    with pytest.raises(SchemaError) as info:
        parse_dpm(text)
    assert str(info.value) == message
    assert _outcome(parse_dpm, text) == _outcome(_json_path, text)


# -- triangles and gluings written back as they were read ------------------------------

LAYOUTS = {"default": {}, "compact": {"separators": (",", ":")}, "indent=1": {"indent": 1}}


def _relaid(text: str, layout: str) -> str:
    return json.dumps(json.loads(text), **LAYOUTS[layout])


def _kept_blocks(doc: DpmDocument) -> dict[str, str]:
    return doc.mesh.text_blocks


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_an_unflipped_complex_writes_its_blocks_as_read_in_any_layout(layout):
    metric = random_metric(ROUND_TRIP_SPECS["torus_grid"], 3)
    target = np.linspace(-1.0, 1.0, metric.mesh.num_vertices)
    text = _relaid(emit_dpm(metric, target), layout)
    doc = parse_dpm(text)
    emitted = emit_dpm(doc.metric, doc.target)
    assert json.loads(emitted) == json.loads(_reference_emit(doc.metric, doc.target))
    blocks = _kept_blocks(doc)
    assert sorted(blocks) == ["gluings", "triangles"]
    for key, block in blocks.items():
        assert f'"{key}": {block},' in emitted
    assert _outcome(parse_dpm, emitted) == _outcome(parse_dpm, text)


def _squeezed_document(n: int) -> str:
    """A torus_grid document, compact, whose every diagonal violates the Delaunay condition."""
    mesh = preset_complex("torus_grid", n=n)
    radii = np.exp(np.random.default_rng(n).uniform(-0.1, 0.1, n * n))
    a, b = mesh.edge_endpoints_array().T
    di, dj = (b // n - a // n) % n, (b % n - a % n) % n
    inversive = np.where((di == dj) & (di != 0), 6.0, 1.5)
    metric = DecoratedMetric(mesh, lengths_from_inversive(mesh, radii, inversive), radii)
    return _relaid(emit_dpm(metric), "compact")


def test_a_flipped_complex_is_written_through_the_templates():
    doc = parse_dpm(_squeezed_document(4))
    delaunay, events = make_delaunay(doc.metric.copy())
    assert events
    assert emit_dpm(delaunay) == _reference_emit(delaunay)
    one_flip = doc.metric.copy()
    flip_metric(one_flip, events[0].edge_id)
    assert emit_dpm(one_flip) == _reference_emit(one_flip)
    emitted = emit_dpm(doc.metric)
    assert emitted != _reference_emit(doc.metric)
    assert json.loads(emitted) == json.loads(_reference_emit(doc.metric))
    for key, block in _kept_blocks(doc).items():
        assert f'"{key}": {block},' in emitted


def test_a_document_without_gluings_keeps_its_triangles_only():
    doc = parse_dpm(TETRA_DOC)
    assert sorted(_kept_blocks(doc)) == ["triangles"]
    reference = _reference_emit(doc.metric)
    templated = reference[reference.index('"triangles"'):reference.index(',\n  "gluings"')]
    as_read = '"triangles": [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]'
    assert emit_dpm(doc.metric) == reference.replace(templated, as_read)


def test_a_declined_document_is_written_through_the_templates():
    text = _squeezed_document(3).replace("{", '{"note":"café",', 1)
    doc = parse_dpm(text)
    assert doc.mesh.text_blocks is None
    assert emit_dpm(doc.metric) == _reference_emit(doc.metric)
