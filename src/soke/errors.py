"""Exception hierarchy shared by all soke subsystems."""


class SokeError(Exception):
    """Base class for every error raised by this package."""


class LayoutError(SokeError):
    """Motion data does not match its declared part layout."""


class ConfigError(SokeError):
    """Invalid or inconsistent configuration value."""


class GraphError(SokeError):
    """Misuse of the autodiff graph (non-scalar loss, repeated backward, ...)."""


class NonFiniteError(SokeError):
    """An operation produced NaN or infinity."""


class TrainingDivergedError(SokeError):
    """A training loop produced a non-finite loss."""


class VocabularyError(SokeError):
    """Unknown token, language tag, or malformed vocabulary."""


class ModeError(SokeError):
    """Unknown decoding mode."""


class DegenerateAlignmentError(SokeError):
    """Point set too degenerate for Procrustes alignment."""


class InputError(SokeError):
    """Structurally invalid operation input (empty track, frame mismatch, ...)."""
