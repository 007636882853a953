"""Exception and warning types shared across the package."""


class MvsweepError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(MvsweepError, ValueError):
    """A parameter is outside its documented range."""


class BehindCameraError(MvsweepError):
    """A point was projected whose camera-frame depth is not positive."""


class ChannelMismatchError(MvsweepError):
    """An input's channel count does not match what the weights expect."""


class SizeMismatchError(MvsweepError):
    """Two images or feature maps that must share a spatial size do not."""


class WeightGraphMismatchError(MvsweepError):
    """A weight container does not describe the expected layer graph."""


class StreamLengthMismatchError(MvsweepError):
    """A slice stream ended with a different length than announced."""


class EmptyValidSetError(MvsweepError):
    """An operation over valid pixels received none, e.g. an all-NaN depth map."""


class EmptyCloudError(MvsweepError):
    """A point-cloud operation received an empty evaluated cloud."""


class EmptyReferenceError(EmptyCloudError):
    """A nearest-distance query was made against an empty reference cloud."""


class NoIntersectionError(MvsweepError):
    """A rendered view does not hit the scene surface at any pixel."""


class ParseError(MvsweepError):
    """A file does not conform to its documented format.

    Carries the offending path and, when known, the 1-based line number.
    """

    def __init__(self, message: str, path=None, line: int | None = None):
        detail = message
        if path is not None:
            detail = f"{path}: {detail}"
        if line is not None:
            detail = f"{detail} (line {line})"
        super().__init__(detail)
        self.path = path
        self.line = line


class BigEndianUnsupportedError(ParseError):
    """A PFM file declares big-endian data, which this reader rejects."""


class NonRigidRotationWarning(UserWarning):
    """A parsed rotation failed orthonormality and was re-orthonormalized."""
