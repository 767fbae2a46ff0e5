"""Exception hierarchy for the toolkit.

Every error condition surfaced by the public API is an ``InvmarkError``
subclass, so callers can catch the base class at CLI boundaries and map it
to a nonzero exit code.
"""


class InvmarkError(Exception):
    """Base class for all toolkit errors."""


class NumericalFailureError(InvmarkError):
    """An eigensolver or iterative routine failed to converge."""


class DegenerateScaleError(InvmarkError):
    """Normalization constants collapsed (lambda_scale <= lambda_min)."""


class InsufficientDataError(InvmarkError):
    """Too few samples to fit a statistic."""


class EmptySampleError(InvmarkError):
    """A two-sample test received an empty sample."""


class ProtocolExhaustedError(InvmarkError):
    """The carrier sampling protocol ran out of seed graphs."""


class InsufficientCarriersError(InvmarkError):
    """Too few carriers: a key needs at least 1, the cross-carrier correlation at least 3."""


class ShapeMismatchError(InvmarkError):
    """An array has the wrong shape: tensor operands that do not fit the
    operation, or a score oracle that answers anything but one number."""


class NonFiniteValueError(InvmarkError):
    """An operation produced NaN or infinity."""


class NonFiniteGradientError(NonFiniteValueError):
    """A gradient buffer contains NaN or infinity."""


class NonFiniteLossError(NonFiniteValueError):
    """A training loss became NaN or infinity."""


class ScoreRangeError(InvmarkError):
    """A perception score lies outside [0, 1]."""


class SizeMismatchError(InvmarkError):
    """Verification thresholds were calibrated for a different key length."""


class ArchMismatchError(InvmarkError):
    """Two models do not share an architecture."""


class CalibrationInfeasibleError(InvmarkError):
    """The requested false-positive rate cannot be met at this key length."""


class InsufficientPairsError(InvmarkError):
    """Curvature fitting needs at least 10 (gradient, gap) pairs."""


class NonpositiveSlopeError(InvmarkError):
    """Curvature fitting produced a slope <= 0 (no usable signal)."""


class NonpositiveInputError(InvmarkError):
    """A closed-form constant requires strictly positive inputs."""


class BundleRequiredError(InvmarkError):
    """Distillation with a watermark loss needs a carrier bundle."""


class DimMismatchError(InvmarkError):
    """Decoder and parameter vector dimensions disagree."""


class TooLargeError(InvmarkError):
    """Instance exceeds the brute-force enumeration guard."""


class UnsupportedInstanceError(InvmarkError):
    """A removal instance lies outside the domain where the brute-force solver is exact."""


class MissingFileError(InvmarkError):
    """A required dataset file is absent."""


class MalformedLineError(InvmarkError):
    """A dataset file contains an unparsable line."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class IndexOutOfRangeError(InvmarkError):
    """A dataset file references a node or graph index out of range."""


class ReportIOError(InvmarkError):
    """A report could not be serialized or written."""


class MalformedDocumentError(InvmarkError):
    """A bundle, checkpoint or calibration document is malformed or inconsistent."""
