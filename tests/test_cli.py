"""End-to-end runs of the command line driver via main(argv)."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from packflow import curvature, parse_dpm
from packflow.cli import EXIT_BUDGET, EXIT_ERROR, EXIT_OK, main

MESHES = Path(__file__).resolve().parents[1] / "meshes"


@pytest.fixture
def tetra_file(tmp_path):
    path = tmp_path / "tetra.dpm"
    assert main(["generate", "tetrahedron", "--out", str(path)]) == EXIT_OK
    return path


@pytest.fixture
def bumpy_file(tmp_path):
    # a tetrahedron pushed away from constant curvature
    path = tmp_path / "bumpy.dpm"
    assert main(["generate", "tetrahedron", "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    doc["conformal_factors"] = [0.2, -0.1, 0.05, -0.15]
    path.write_text(json.dumps(doc))
    return path


def test_generate_to_stdout(capsys):
    assert main(["generate", "octahedron", "--radius", "0.5"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "dpm-1"
    assert doc["radii"] == [0.5] * 6


def test_validate_clean_document(tetra_file, capsys):
    assert main(["validate", str(tetra_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "admissible: yes" in out
    assert "weighted Delaunay: ok" in out
    assert "chi: 2" in out


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "warped.dpm"
    main(["generate", "tetrahedron", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc["conformal_factors"] = [1.02, 1.02, -1.02, -1.02]
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "1 violating edges" in out


def test_validate_inadmissible_exits_one(tmp_path, capsys):
    path = tmp_path / "flat.dpm"
    main(["generate", "tetrahedron", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc["conformal_factors"] = [1.10, 1.10, -1.10, -1.10]
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_ERROR
    assert "admissible: no" in capsys.readouterr().out


def test_curvature_output(tetra_file, capsys):
    assert main(["curvature", str(tetra_file)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    values = [float(line.split("=")[1]) for line in lines[:4]]
    assert values == pytest.approx([np.pi] * 4)
    assert "gauss-bonnet residual" in lines[4]


def test_flow_pipeline(bumpy_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    out_path = tmp_path / "final.dpm"
    code = main([
        "flow", str(bumpy_file),
        "--flow", "calabi",
        "--target", "uniform",
        "--trace", str(trace_path),
        "--out", str(out_path),
    ])
    assert code == EXIT_OK
    assert "converged" in capsys.readouterr().out

    rows = list(csv.reader(trace_path.open()))
    assert rows[0] == ["step", "t", "max_curv_err", "calabi_energy",
                       "W_est", "flips_total", "min_margin", "h"]
    errs = [float(r[2]) for r in rows[1:]]
    assert errs[-1] < 1e-8
    assert errs[-1] < errs[0]

    final = parse_dpm(out_path.read_text())
    assert np.max(np.abs(curvature(final.metric) - np.pi)) < 1e-8
    assert final.target is not None


def test_flow_through_a_flip_to_overlapping_circles_keeps_stderr_empty():
    # the flip the run starts with gives inversive distance 0.81, which is
    # correct surgery output, so the default log level prints nothing.  From
    # h = 10 the steps cross edge 5's Delaunay boundary and cross back: two
    # more flips, each at its crossing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(MESHES.parent / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = ["flow", str(MESHES / "tetra_overlap.dpm"), "--target", "uniform", "--flow", "ricci"]
    done = subprocess.run(
        [sys.executable, "-m", "packflow", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == EXIT_OK
    assert "flips: 3" in done.stdout
    assert done.stderr == ""


def test_flow_budget_exit_code(bumpy_file):
    code = main([
        "flow", str(bumpy_file), "--target", "uniform", "--max-steps", "2",
    ])
    assert code == EXIT_BUDGET


def test_flow_target_from_array_file(bumpy_file, tmp_path):
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps([np.pi] * 4))
    code = main(["flow", str(bumpy_file), "--target", str(target_path)])
    assert code == EXIT_OK


def test_flow_target_file_of_the_wrong_length_is_one_error_line(bumpy_file, tmp_path, capsys):
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps([np.pi] * 3))
    assert main(["flow", str(bumpy_file), "--target", str(target_path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"error: target file {str(target_path)!r} holds 3 values, expected 4\n"


def test_flow_dpm_target_file_of_another_mesh_is_one_error_line(bumpy_file, tmp_path, capsys):
    # an octahedron's target_curvature, 6 values, is checked against the
    # tetrahedron that flows, not against the octahedron it came with
    target_path = tmp_path / "octa.dpm"
    assert main(["generate", "octahedron", "--out", str(target_path)]) == EXIT_OK
    doc = json.loads(target_path.read_text())
    doc["target_curvature"] = [2.0 * np.pi / 3.0] * 6
    target_path.write_text(json.dumps(doc))
    assert main(["flow", str(bumpy_file), "--target", str(target_path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"error: target file {str(target_path)!r} holds 6 values, expected 4\n"


def test_flow_target_from_a_dpm_file(bumpy_file, tmp_path, capsys):
    # a dpm target file lends its target_curvature, and one without it is an error
    doc = json.loads(bumpy_file.read_text())
    target_path = tmp_path / "target.dpm"
    target_path.write_text(json.dumps(doc))
    assert main(["flow", str(bumpy_file), "--target", str(target_path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"error: target file {str(target_path)!r} carries no target_curvature\n"
    target = np.pi + np.array([0.3, -0.3, 0.1, -0.1])
    doc["target_curvature"] = target.tolist()
    target_path.write_text(json.dumps(doc))
    out = tmp_path / "flat.dpm"
    argv = ["flow", str(bumpy_file), "--target", str(target_path), "--out", str(out)]
    assert main(argv) == EXIT_OK
    flat = parse_dpm(out.read_text())
    assert np.array_equal(flat.target, target)
    assert np.max(np.abs(curvature(flat.metric) - target)) < 1e-8


@pytest.mark.parametrize("values", [["a", "b", "c", "d"], [True, 1.0, 1.0, 1.0], [[1.0]] * 4])
def test_flow_target_file_of_non_numbers_is_a_schema_error(bumpy_file, tmp_path, capsys, values):
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps(values))
    assert main(["flow", str(bumpy_file), "--target", str(target_path)]) == EXIT_ERROR
    assert "error: target file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--step", "0"], ["--step", "inf"], ["--tol", "0"], ["--max-steps", "-2"],
     ["--flow", "p-calabi", "--p", "inf"]],
)
def test_flow_rejects_bad_settings_with_one_error_line(bumpy_file, capsys, flags):
    code = main(["flow", str(bumpy_file), "--target", "uniform", *flags])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_flow_target_embedded_in_document(bumpy_file, tmp_path):
    doc = json.loads(bumpy_file.read_text())
    doc["target_curvature"] = [np.pi] * 4
    embedded = tmp_path / "with_target.dpm"
    embedded.write_text(json.dumps(doc))
    assert main(["flow", str(embedded)]) == EXIT_OK


def test_flow_without_target_is_an_error(bumpy_file, capsys):
    assert main(["flow", str(bumpy_file)]) == EXIT_ERROR
    assert "no target curvature" in capsys.readouterr().err


def test_flow_p_calabi_spelling(bumpy_file):
    code = main([
        "flow", str(bumpy_file), "--flow", "p-calabi", "--p", "3",
        "--target", "uniform",
    ])
    assert code == EXIT_OK


def test_flow_fractional(bumpy_file):
    code = main([
        "flow", str(bumpy_file), "--flow", "fractional", "--s", "0.5",
        "--target", "uniform",
    ])
    assert code == EXIT_OK


@pytest.mark.parametrize("vertex", [10**30, -(10**30), 2**63, 4, 10**18, 10**18 - 1])
def test_vertex_id_outside_the_range_is_one_error_line(tmp_path, capsys, vertex):
    # ids beyond int64 get the same MeshError as an in-range bad id, and so do
    # ids of 19 digits, which the text reader leaves to the JSON path, and of 18
    doc = json.loads((MESHES / "tetra_sym.dpm").read_text())
    doc["triangles"][0][1] = vertex
    path = tmp_path / "bad_vertex.dpm"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == f"error: triangle 0 references vertex {vertex} outside [0, 4)\n"


TETRA_RADII = '"radii": [1,'


@pytest.mark.parametrize(
    "radius, message",
    [
        ("1" + "0" * 400, "field 'radii' must hold finite numbers only"),
        ("7" * 5000, "integer literal with too many digits"),
        ("[" * 100_000, "arrays or objects nested too deeply"),
    ],
    ids=["400 digits", "5000 digits", "deep nesting"],
)
def test_numbers_beyond_the_readers_limits_are_one_error_line(tmp_path, capsys, radius, message):
    text = (MESHES / "tetra_sym.dpm").read_text()
    assert TETRA_RADII in text
    path = tmp_path / "huge.dpm"
    path.write_text(text.replace(TETRA_RADII, '"radii": [' + radius + ",", 1))
    assert main(["validate", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "values, message",
    [
        ("[1, 2, 3, 1" + "0" * 400 + "]", "holds a number beyond the float range"),
        ("[1, 2, 3, " + "7" * 5000 + "]", "integer literal with too many digits"),
        ("[" * 100_000, "arrays or objects nested too deeply"),
    ],
    ids=["400 digits", "5000 digits", "deep nesting"],
)
def test_target_file_beyond_the_readers_limits_is_one_error_line(
    bumpy_file, tmp_path, capsys, values, message
):
    target_path = tmp_path / "target.json"
    target_path.write_text(values)
    assert main(["flow", str(bumpy_file), "--target", str(target_path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_bad_file_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.dpm"
    path.write_text('{"format": "dpm-1"')
    assert main(["validate", str(path)]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "missing.dpm")]) == EXIT_ERROR


def test_jacobian_check_random(capsys):
    assert main(["jacobian-check", "--count", "3"]) == EXIT_OK
    assert "3 metrics" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-2"])
def test_jacobian_check_rejects_counts_below_one(capsys, count):
    assert main(["jacobian-check", "--count", count]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "error: --count must be at least 1" in captured.err
    assert captured.out == ""


def test_jacobian_check_on_file(tetra_file, capsys):
    assert main(["jacobian-check", str(tetra_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "1 metrics" in out


@pytest.mark.parametrize("command", ["validate", "curvature", "jacobian-check"])
@pytest.mark.parametrize("name", sorted(p.name for p in MESHES.glob("*.dpm")))
def test_bundled_meshes_pass_every_check(command, name, capsys):
    # the one-vertex torus is all loops, so its Jacobian is exactly zero
    # and jacobian-check compares on the absolute scale
    assert main([command, str(MESHES / name)]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_jacobian_check_tolerance_failure(tetra_file, capsys):
    assert main(["jacobian-check", str(tetra_file), "--tol-rel", "1e-16"]) == EXIT_ERROR
    assert "exceeds tolerance" in capsys.readouterr().err
