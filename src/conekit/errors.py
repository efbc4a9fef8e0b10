"""Exception types shared across the toolkit."""


class ConekitError(Exception):
    """Base class for all conekit errors."""


class DimError(ConekitError):
    """Array shape is inconsistent with the declared bipartite dimensions."""


class ZeroInputError(ConekitError):
    """An operation that needs a nonzero vector/matrix received zero."""


class NormError(ConekitError):
    """A vector that must be unit-norm is not."""


class HermiticityError(ConekitError):
    """A matrix that must be Hermitian deviates beyond the allowed slack."""


class PreconditionError(ConekitError):
    """A documented precondition of an operation does not hold."""


class AnchorError(ConekitError):
    """Invalid anchor product vectors for a completion.

    Kept as a public name only: completions always anchor on the standard
    product basis, so nothing in the toolkit raises it.
    """


class DegenerateSampleError(ConekitError):
    """A random sampler kept producing numerically degenerate draws."""


class MatrixFileError(ConekitError):
    """A matrix/vector JSON file is malformed or violates its schema."""
