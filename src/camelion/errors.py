"""Exception hierarchy for the camelion toolkit."""


class CamelionError(Exception):
    """Base class for all toolkit errors."""


class ArgumentError(CamelionError, ValueError):
    """Invalid argument, bad configuration value, or incompatible headers."""


class FormatError(CamelionError):
    """Malformed or corrupt file contents."""


class PersistenceError(CamelionError):
    """Operating-system level I/O failure."""


class ValidationError(CamelionError):
    """A volume failed an internal consistency check."""


class TrainingError(CamelionError):
    """Segmenter training could not proceed (e.g. a class has no voxels)."""


class EstimationError(CamelionError):
    """Statistical estimation failed (e.g. empty tissue class)."""


class GeometryError(CamelionError):
    """Label geometry does not support the requested operation."""


class DegeneratePairError(CamelionError):
    """Two-class mixture requested for classes with identical mean intensity."""


class RankError(CamelionError):
    """Singular or numerically rank-deficient normal equations."""


class CorrelationError(CamelionError):
    """Correlation undefined because an input has zero variance."""


class ConfigError(CamelionError):
    """Bad run configuration (unknown key, unparsable value)."""


class PipelineError(CamelionError):
    """A pipeline stage failed. Carries the stage name and partial results."""

    def __init__(self, stage: str, message: str, partial=None):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
        self.partial = partial
