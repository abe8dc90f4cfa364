"""Build triangulated surfaces three ways and check them."""

import numpy as np

from packflow import (
    DecoratedMetric,
    NonSimplicial,
    build_complex,
    infer_gluings,
    preset_complex,
    validate_triangles,
)

# The quickest route is a preset.  Edge ids follow the gluing order, so
# every array in a decorated metric lines up with mesh.edge_endpoints_array().
octa = preset_complex("octahedron")
print("octahedron:", octa.num_vertices, "vertices,", octa.num_edges, "edges,",
      octa.num_triangles, "faces, chi =", octa.euler_characteristic)

# For a simplicial complex the side matching is forced: any vertex pair
# appears on exactly two triangle sides.  infer_gluings finds it.
tetra = infer_gluings(4, [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])
print("tetrahedron edges:", tetra.edge_endpoints_array().tolist())

# Non-simplicial gluings need to be spelled out.  The one-vertex torus
# identifies all corners, so every edge is a loop and inference cannot work.
try:
    infer_gluings(1, [(0, 0, 0), (0, 0, 0)])
except NonSimplicial as exc:
    print("inference refused:", exc)

torus = build_complex(
    1,
    [(0, 0, 0), (0, 0, 0)],
    [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))],
)
print("one-vertex torus: chi =", torus.euler_characteristic,
      "with", torus.num_edges, "loop edges")

# A metric decorates the complex with one circle per vertex and one length
# per edge.  validate_triangles reports how close each face is to flat.
metric = DecoratedMetric(torus, np.array([1.0, 1.1, 1.8]), np.array([0.4]))
report = validate_triangles(metric)
print("margins per face:", np.round(report.margins, 6),
      "admissible:", report.admissible)

# Scale factors move vertices conformally.  Push two circles up and two
# down far enough and a face flattens; probing a copy reports the margins
# that state would have without touching the metric.
tetra_metric = DecoratedMetric(tetra, np.full(6, np.sqrt(6.0)), np.ones(4))
pushed = tetra_metric.copy()
pushed.set_conformal_factors(1.1 * np.array([1.0, 1.0, -1.0, -1.0]))
probe = validate_triangles(pushed)
print("worst tetrahedron margin after the push:",
      round(float(probe.margins.min()), 6), "admissible:", probe.admissible)
