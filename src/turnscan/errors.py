"""Exception types shared across the package.

Two base classes split failures by CLI exit code: ValidationError means
inputs, parameters, or files violate a documented precondition (exit 2);
NumericalError means a solver or estimator broke down on data that passed
validation (exit 3).
"""


class TurnscanError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(TurnscanError):
    """Inputs or files violate a documented precondition (CLI exit 2)."""


class NumericalError(TurnscanError):
    """A numerical procedure failed on otherwise valid input (CLI exit 3)."""


# ---------------------------------------------------------------- geometry

class DimensionMismatch(ValidationError):
    """Raster dimensions do not match the camera model."""


class SingularMatrix(NumericalError):
    """Matrix is singular where an invertible one is required."""


# ------------------------------------------------------------- calibration

class DegenerateConfiguration(ValidationError):
    """Correspondences are too few or collinear; the solve is degenerate."""


class BehindCamera(NumericalError):
    """No pose decomposition places the target in front of the camera."""


class EmptySet(ValidationError):
    """A pose set with no elements was supplied."""


class TooFewPoints(ValidationError):
    """Not enough points for the requested neighborhood or fit."""


class NoConsensus(NumericalError):
    """RANSAC found no model with the minimum inlier ratio."""


class CameraOnPlane(ValidationError):
    """Camera origin lies on the fitted plane; scale is undefined."""


class EmptyInput(ValidationError):
    """An operation received an empty collection."""


class NonPositiveScale(ValidationError):
    """Depth scale factor must be positive."""


# --------------------------------------------------------------- cloud ops

class NonPositiveVoxel(ValidationError):
    """Voxel edge length must be positive."""


class EmptyCloud(ValidationError):
    """Point cloud has no points."""


# ------------------------------------------------------------ registration

class BadFraction(ValidationError):
    """Fraction parameter outside (0, 1]."""


class NoCorrespondences(NumericalError):
    """Registration found zero point pairs within the search radius."""


class MissingColors(ValidationError):
    """Operation requires per-point colors and the cloud has none."""


# ----------------------------------------------------------------- meshing

class MissingNormals(ValidationError):
    """Operation requires per-point normals and the cloud has none."""


# --------------------------------------------------------------- texturing

class NoScenes(ValidationError):
    """No camera scenes supplied."""


# --------------------------------------------------------------- simulator

class IndexOutOfRange(ValidationError):
    """Angle or arm index outside the rig's configured range."""


class IoFailure(ValidationError):
    """Reading or writing a session artifact failed."""


# ------------------------------------------------------------ pipeline/cli

class MissingCorners(ValidationError):
    """A scene's corner correspondence file is absent."""


class ParseError(ValidationError):
    """A file failed to parse.

    Carries the byte offset where parsing stopped and a short statement of
    what was expected there.
    """

    def __init__(self, message: str, *, offset: int, expected: str = ""):
        detail = f"{message} (byte {offset}"
        if expected:
            detail += f", expected {expected}"
        detail += ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected
