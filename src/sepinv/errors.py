"""Exception hierarchy shared by all sepinv modules."""


class SepinvError(Exception):
    """Base class for all errors raised by this package."""


# -- roots that fix the command line's exit code ------------------------------

class InputError(SepinvError):
    """The input is at fault: a bad manifest, option or model (exit 2)."""


class ResourceCapExceeded(SepinvError):
    """A caller-controlled cap stopped a computation (exit 3)."""


class InternalError(SepinvError):
    """Two computations that must agree did not: a bug here (exit 1)."""


# -- field construction / arithmetic ----------------------------------------

class NonPrimeCharacteristic(InputError):
    pass


class ReducibleModulus(InputError):
    pass


class MissingModulus(InputError):
    pass


class DivisionByZero(SepinvError):
    pass


class EnumerationCapExceeded(ResourceCapExceeded):
    pass


# -- polynomial layer --------------------------------------------------------

class PolynomialSyntaxError(InputError):
    """Bad polynomial text. Carries the 0-based position of the offense."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(InputError):
    def __init__(self, name, position=None):
        at = f" (at position {position})" if position is not None else ""
        super().__init__(f"unknown variable {name!r}{at}")
        self.name = name
        self.position = position


class RingMismatch(InputError):
    pass


class DimensionMismatch(InputError):
    pass


# -- ideal computations ------------------------------------------------------

class UnitIdeal(InputError):
    pass


# -- resolutions -------------------------------------------------------------

class NonHomogeneousInput(InputError):
    pass


# -- groups ------------------------------------------------------------------

class GroupCapExceeded(ResourceCapExceeded):
    pass


class NotGeneratedByFixedPointElements(SepinvError):
    pass


class VarietyNotPreserved(InputError):
    """A group generator fails to permute the variety's components."""


# -- separating machinery ----------------------------------------------------

class NotInvariant(InputError):
    def __init__(self, polynomial, generator):
        super().__init__(
            f"polynomial {polynomial} is not invariant under group generator {generator}"
        )
        self.polynomial = polynomial
        self.generator = generator


class EquivalenceViolation(InternalError):
    """The two independently computed sides of the connectivity equivalence
    disagree. This always indicates an implementation bug."""


class InternalInconsistency(InternalError):
    """An implied conclusion contradicts its direct verification."""


# -- manifest / cli ----------------------------------------------------------

class InvalidArgument(InputError, ValueError):
    """A request its arguments cannot serve: a negative `--codim`, or the
    difference ideal of a model built without invariants.  Also a
    ValueError, which library callers may already catch."""


class ManifestError(InputError):
    pass


class CapsEnvironmentError(InputError):
    """A SEPINV_* cap variable holds something that is not an integer."""
