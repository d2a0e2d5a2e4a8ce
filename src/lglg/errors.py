"""Exception hierarchy shared by all modules."""


class LglgError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(LglgError):
    """Input contains NaN or Inf where finite values are required."""


class NotPositiveDefinite(LglgError):
    """Matrix is not symmetric positive-definite where SPD is required."""


class DimensionMismatch(LglgError):
    """Operands have incompatible dimensions."""


class ImageTooSmall(LglgError):
    """Image smaller than the filter support or block size."""


class ImageTooLarge(LglgError):
    """Image whose filtering would take more memory than allowed."""


class OutOfRange(LglgError):
    """Pixel values outside the expected range."""


class DegenerateInput(LglgError):
    """Input carries no usable signal (e.g. identically zero image)."""


class BlockTooLarge(LglgError):
    """Requested block does not fit inside the image."""


class TooFewSamples(LglgError):
    """Not enough samples to estimate a Gaussian."""


class DegenerateTrainingSet(LglgError):
    """Training features have rank zero (or too few rows) for projection."""


class DegenerateVector(LglgError):
    """Vector has (near-)zero standard deviation; z-scoring undefined."""


class ConfigError(LglgError):
    """Malformed or invalid run configuration."""


class ConfigMismatch(LglgError):
    """Feature configuration does not match the one a gallery was built with."""


class MissingGroundTruth(LglgError):
    """A match result lacks the ground-truth subject needed for accuracy."""


class NoResults(LglgError):
    """An accuracy was asked of an empty list of match results."""


class ManifestError(LglgError):
    """Malformed manifest file."""


class KeypointError(LglgError):
    """Malformed or empty keypoint sidecar file."""


class ExtractionError(LglgError):
    """Feature extraction failed for a specific image path."""

    def __init__(self, path: str, cause: Exception):
        super().__init__(f"{path}: {cause}")
        self.path = path
        self.cause = cause

    def __reduce__(self):
        # rebuilt from both arguments when a pool worker sends it back
        return type(self), (self.path, self.cause)


class ModelFormatError(LglgError):
    """Unreadable model file."""


class FormatVersionMismatch(ModelFormatError):
    """Model file written by an unsupported format version."""


class ChecksumMismatch(ModelFormatError):
    """Model file failed its integrity check (truncated or corrupted)."""
