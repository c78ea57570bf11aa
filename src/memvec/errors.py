"""Exception hierarchy shared across the package."""


class MemvecError(Exception):
    """Base class for all package-specific errors."""


class NormalizationError(MemvecError):
    """Vector cannot be normalized (zero norm or non-finite entries)."""


class DimensionError(MemvecError):
    """Operands disagree on dimension, or a dimension is invalid."""


class DomainError(MemvecError):
    """Argument outside the mathematical domain of a function."""


class ModelError(MemvecError):
    """An index, partition or sign sketch whose parts disagree (construction
    tag, CSR offsets, member ids, code bytes)."""


class EmptyUnitError(MemvecError):
    """A memory unit must contain at least one member."""


class SingularGramError(MemvecError):
    """A Gram stayed singular even with the ridge fallback (all-zero members)."""


class FormatError(MemvecError):
    """Malformed binary file. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
