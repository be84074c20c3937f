"""Exception types shared across the package."""


class CstgError(Exception):
    """Base class for all package errors."""


class InvalidEdge(CstgError):
    """Edge endpoints out of range, equal, or not in i < j form."""


class NotIndependent(CstgError):
    """Crossing query on two edges that share an endpoint.

    Adjacent edges never cross in a simple drawing; asking is a caller bug,
    so this is an error rather than a False answer.
    """


class InvalidSelection(CstgError):
    """Bad argument: a count, vertex, selection or budget of the wrong type or range."""


class AnchorUnavailable(CstgError):
    """Requested vertex is not certified on the unbounded cell."""


class RotationMissing(CstgError):
    """Operation needs rotation data the drawing does not carry."""


class InvalidCertificate(CstgError):
    """Certificate is structurally malformed for its kind."""


class ParseError(CstgError):
    """Document is not well-formed (syntax / missing field)."""


class ValidationError(CstgError):
    """Document parsed but violates a drawing invariant."""


class InvalidSigns(CstgError):
    """Half-circle sign vector has the wrong length or alphabet."""


class DegenerateInput(CstgError):
    """Geometric input breaks a general-position precondition."""


class SizeLimit(CstgError):
    """Requested size exceeds a documented cap."""


class ObservationViolated(CstgError):
    """A triple colored outside {000, 001, 010, 100}.

    Means the anchored data does not describe a simple drawing with the
    anchor on the unbounded cell.
    """


class InvalidTriple(CstgError):
    """Triple query with positions out of order or out of range."""


class RuleViolation(CstgError):
    """Builder broke the online game rules by an illegal move."""


class BudgetExhausted(CstgError):
    """Search or game ran out of its node/time/edge budget.

    Carries the best partial result found so far in ``payload``.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


class InternalInvariantBroken(CstgError):
    """A theory-guaranteed step failed: invalid input drawing or a bug."""


class NotATree(CstgError):
    """Adjacency input is not a connected acyclic graph."""


class GeometryMissing(CstgError):
    """Operation needs a geometric family, got an abstract drawing."""
