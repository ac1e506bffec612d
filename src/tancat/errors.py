"""Shared exception types."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions or scalar modes."""


class SemiringViolation(ValueError):
    """Operation or literal not available in the active scalar semiring."""


class PolyParseError(ValueError):
    """Syntax error in a polynomial-map expression.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class PreconditionFailure(ValueError):
    """An operation's mathematical precondition does not hold; the message
    includes a diagnostic residual or the pair of unequal sides."""


class NotABundleMorphism(ValueError):
    """The pair (f, g) fails the bundle-morphism square f;q' = q;g."""

