"""Memory vectors: group testing for similarity search on the unit sphere.

A memory unit aggregates several database vectors into a single
representative; a query is first scored against representatives and only
the members of positively-scoring units are scanned. The `analytic`
module carries the closed-form score laws, error rates and cost model;
`sampling`, `construction`, `assignment` and `search` implement the
pipeline; `harness` adds file formats, evaluation and experiment drivers.
"""

from . import analytic, assignment, construction, sampling, search
from .core import Dataset, MemoryIndex, normalize
from .errors import (
    DimensionError,
    DomainError,
    EmptyUnitError,
    FormatError,
    MemvecError,
    ModelError,
    NormalizationError,
    SingularGramError,
)

__version__ = "0.1.0"

__all__ = [
    "analytic",
    "assignment",
    "construction",
    "sampling",
    "search",
    "Dataset",
    "MemoryIndex",
    "normalize",
    "MemvecError",
    "NormalizationError",
    "DimensionError",
    "DomainError",
    "ModelError",
    "EmptyUnitError",
    "SingularGramError",
    "FormatError",
    "__version__",
]
