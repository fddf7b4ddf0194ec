"""Exception types shared across the package."""


class CartanlimError(Exception):
    """Base class for every failure raised by this package.

    `exit_code` is the CLI's exit status when the error ends a run.
    """

    exit_code = 2


class InternalError(CartanlimError):
    """A self-check failed: the package computed something inconsistent."""

    exit_code = 4


# --- exact linear algebra ---------------------------------------------------

class NonSquareError(CartanlimError):
    pass


class SingularError(CartanlimError):
    pass


class DimensionMismatchError(CartanlimError):
    pass


class EmptyInputError(CartanlimError):
    pass


# --- projective geometry ----------------------------------------------------

class ZeroVectorError(CartanlimError):
    pass


class DegenerateBasisError(CartanlimError):
    pass


class NotAugmentedBasisError(CartanlimError):
    pass


class CapExceededError(CartanlimError):
    """Permutation enumeration would exceed the configured cap."""

    exit_code = 3


class SizeMismatchError(CartanlimError):
    pass


# --- seed matrices and the limit family --------------------------------------

class ZeroRowError(CartanlimError):
    pass


class TooFewRowsError(CartanlimError):
    pass


class IndexOutOfRangeError(CartanlimError):
    """Raised by no library function; kept so that existing `except` clauses still work."""


class NotGenericError(CartanlimError):
    pass


class ShapeMismatchError(CartanlimError):
    pass


class DegenerateAlphaError(CartanlimError):
    pass


# --- degeneration traces ------------------------------------------------------

class NonpositiveRError(CartanlimError):
    pass


class ZeroFirstColumnError(CartanlimError):
    pass


class NoPositiveRootError(CartanlimError):
    pass


class ScheduleError(CartanlimError, ValueError):
    """The r schedule is empty or not strictly increasing."""


class FloatRangeError(CartanlimError):
    """An exact value of the trace is too large to convert to a float."""


# --- obstruction checks -------------------------------------------------------

class UnknownNameError(CartanlimError):
    pass


class SampleCapExceededError(CartanlimError):
    """The certifying sample would exceed the configured cap."""

    exit_code = 3


class RedundantParametersError(CartanlimError, ValueError):
    """The image of a family has fewer dimensions than it has parameters."""


# --- dimension bounds ----------------------------------------------------------

class InvalidShapeError(CartanlimError):
    pass


class KTooSmallError(CartanlimError):
    pass


# --- input and output ------------------------------------------------------------

class ParseError(CartanlimError):
    pass


class OutputError(CartanlimError):
    """The document could not be written to the `--output` path."""
