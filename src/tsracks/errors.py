"""Exception hierarchy shared across the toolkit.

Two broad families matter to callers: input that could not be parsed
(``ParseError``) and input that parsed but fails a structural check
(``ValidationError``).  The command line maps them to distinct exit codes.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ToolkitError):
    """Input text could not be parsed at all."""


class ValidationError(ToolkitError):
    """Parsed input violates a structural requirement."""


class ConsistencyError(ToolkitError):
    """A fact the computation relies on failed its own check.

    Raised instead of an ``assert`` so the check also runs under
    ``python -O``; the command line reports it as an internal error.
    """


class MalformedElementError(ValidationError):
    """A group element vector has the wrong length or an out-of-range entry."""


class NotASubgroupError(ValidationError):
    """An element set is not closed under the group operation."""


class InvalidPolynomialError(ValidationError):
    """A quotient-ring modulus polynomial is not monic of positive degree."""


class NotInvertibleError(ValidationError):
    """A scalar or endomorphism that must be invertible is not."""


class RelationViolationError(ValidationError):
    """The defining relation s^2 = (1 - t)s fails."""


class RackAxiomError(ValidationError):
    """A candidate operation table is not a rack.

    ``axiom`` is ``1`` (some column is not a permutation, so no inverse
    operation exists) or ``2`` (self-distributivity fails).  ``witness``
    holds the offending column index, or the triple (x, y, z).
    """

    def __init__(self, axiom, witness, message):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class WrongStructureError(ValidationError):
    """An operation needs more structure than the argument carries."""


class MalformedPDError(ParseError):
    """A PD code is inconsistent (bad arc usage, non-adjacent over strand...)."""


class AmbiguousPDError(ParseError):
    """A PD crossing's over-strand direction cannot be inferred.

    Happens for two-arc components where both cyclic orders are plausible;
    the signed forms X+[a,b,c,d] / X-[a,b,c,d] resolve it.
    """
