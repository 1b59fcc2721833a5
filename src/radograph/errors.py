"""Domain errors raised by radograph.

Every error that a caller is expected to handle derives from RadographError;
anything escaping as ImplementationFault is a bug in this package, not in
the caller's input.
"""


class RadographError(Exception):
    """Base class for all domain errors."""

    def payload(self):
        return {"error": self.__class__.__name__, "detail": str(self)}


class NotInjective(RadographError):
    pass


class EdgeViolation(RadographError):
    def __init__(self, u, v):
        super().__init__(f"edge relation not preserved on pair ({u!r}, {v!r})")
        self.u = u
        self.v = v


class NotConstructed(RadographError):
    """Raised when an orbit-level operation is asked of a non-constructed oracle."""


class UntouchedVertex(RadographError):
    pass


class FiniteOrbitsUnsupported(RadographError):
    pass


class PreconditionPhiMissing(RadographError):
    pass


class AlreadyDefined(RadographError):
    pass


class NotC0Built(RadographError):
    pass


class ConstructionConflict(RadographError):
    """A target cannot carry the construction: it is not a constructed
    oracle, or its orbit edge pattern puts an edge between a fresh-orbit
    witness and its f-image."""


class CertificateError(RadographError):
    pass


class ImplementationFault(AssertionError):
    """Internal invariant broke; indicates a bug in radograph itself."""
