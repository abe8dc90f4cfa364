"""Exception types raised across the package.

Every failure mode that callers are expected to catch has its own class;
the bases group them by the layer that raises them.
"""

from __future__ import annotations


class PackflowError(Exception):
    """Base class for all package-specific errors."""


# --- surface complex ------------------------------------------------------

class MeshError(PackflowError):
    """Invalid gluing data or an illegal combinatorial operation."""


class UnmatchedSlot(MeshError):
    """A triangle side is missing from the gluing matching, or appears twice."""


class OrientationMismatch(MeshError):
    """Glued sides do not carry opposite vertex labels."""


class DisconnectedSurface(MeshError):
    """The vertex-edge incidence graph has more than one component."""


class UnusedVertex(MeshError):
    """A vertex index in range appears on no triangle corner."""


class InconsistentVertexLabels(MeshError):
    """Two distinct points of the surface (corner orbits) share one vertex label.

    An orbit never carries two labels: glued sides agree on their labels,
    which the orientation check enforces first.
    """


class NonSimplicial(MeshError):
    """Gluings cannot be inferred from vertex labels alone."""


class SelfFlip(MeshError):
    """Both sides of the edge lie on a single triangle; the flip is undefined."""


# --- decorated metric -----------------------------------------------------

class MetricError(PackflowError):
    """Invalid metric data."""


class NonPositiveRadius(MetricError):
    pass


class InvalidInversiveDistance(MetricError):
    pass


class DegenerateLength(MetricError):
    """A conformally scaled squared length came out non-positive."""


class DegenerateTriangle(MetricError):
    """A face fails the triangle inequality: its margin does not clear the threshold."""


# --- per-triangle geometry ------------------------------------------------

class GeometryError(PackflowError):
    pass


# --- surgery ---------------------------------------------------------------

class SurgeryError(PackflowError):
    pass


class FlipProducesDegenerate(SurgeryError):
    """The two triangles created by a flip would violate the triangle inequality."""


class SurgeryBudgetExceeded(SurgeryError):
    """make_delaunay ran out of flips before reaching a weighted Delaunay state."""


# --- curvature operators ---------------------------------------------------

class OperatorError(PackflowError):
    pass


class StepLeavesAdmissible(OperatorError):
    """A finite-difference probe left the admissible cone."""


class NoConvergence(OperatorError):
    """The symmetric eigensolver failed to converge, or conjugate gradients
    ran past CG_MAX_SWEEPS * N iterations."""


class InvalidExponent(OperatorError):
    """p-Laplacian exponent outside (1, inf), or a non-finite fractional order s."""


class IndefiniteOperator(OperatorError):
    """dK/du or I + hA is not positive definite where a solve needs it.

    Raised for a fractional power of a matrix with genuinely negative
    eigenvalues, or of a Lanczos basis with negative Ritz values, and for
    a conjugate gradient breakdown in ``solve_shifted``.  Happens when
    dK/du is assembled on a triangulation that violates the weighted
    Delaunay condition and surgery is disabled.
    """


# --- flow engine ------------------------------------------------------------

class FlowError(PackflowError):
    pass


class StepCollapse(FlowError):
    """Backtracking halved the step past its limit without an acceptable state."""


class NonAdmissibleTarget(FlowError):
    """Target curvature violates Gauss-Bonnet or the per-vertex bound."""


class InvalidFlowSetting(FlowError, ValueError):
    """Unknown flow kind, step not finite and positive, tolerance not positive, budget below 0."""


# --- file formats and CLI ----------------------------------------------------

class FormatError(PackflowError):
    pass


class DpmSyntaxError(FormatError):
    """Malformed JSON; carries the line and column of the failure."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(FormatError):
    """Structurally valid JSON that does not satisfy the dpm-1 schema."""


class InvalidParams(FormatError):
    """Bad generator parameters (unknown preset, radius <= 0, inversive distance <= 1)."""
