"""Exception hierarchy shared by all sepinv modules."""


class SepinvError(Exception):
    """Base class for all errors raised by this package."""


# -- field construction / arithmetic ----------------------------------------

class NonPrimeCharacteristic(SepinvError):
    pass


class ReducibleModulus(SepinvError):
    pass


class MissingModulus(SepinvError):
    pass


class DivisionByZero(SepinvError):
    pass


class EnumerationCapExceeded(SepinvError):
    pass


# -- polynomial layer --------------------------------------------------------

class PolynomialSyntaxError(SepinvError):
    """Bad polynomial text. Carries the 0-based position of the offense."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(SepinvError):
    def __init__(self, name, position=None):
        at = f" (at position {position})" if position is not None else ""
        super().__init__(f"unknown variable {name!r}{at}")
        self.name = name
        self.position = position


class RingMismatch(SepinvError):
    pass


class DimensionMismatch(SepinvError):
    pass


# -- ideal computations ------------------------------------------------------

class ResourceCapExceeded(SepinvError):
    pass


class UnitIdeal(SepinvError):
    pass


# -- resolutions -------------------------------------------------------------

class NonHomogeneousInput(SepinvError):
    pass


# -- groups ------------------------------------------------------------------

class GroupCapExceeded(SepinvError):
    pass


class NotGeneratedByFixedPointElements(SepinvError):
    pass


class VarietyNotPreserved(SepinvError):
    """A group generator fails to permute the variety's components."""


# -- separating machinery ----------------------------------------------------

class NotInvariant(SepinvError):
    def __init__(self, polynomial, generator):
        super().__init__(
            f"polynomial {polynomial} is not invariant under group generator {generator}"
        )
        self.polynomial = polynomial
        self.generator = generator


class EquivalenceViolation(SepinvError):
    """The two independently computed sides of the connectivity equivalence
    disagree. This always indicates an implementation bug."""


class InternalInconsistency(SepinvError):
    """An implied conclusion contradicts its direct verification."""


# -- manifest / cli ----------------------------------------------------------

class ManifestError(SepinvError):
    pass


class CapsEnvironmentError(SepinvError):
    """A SEPINV_* cap variable holds something that is not an integer."""
