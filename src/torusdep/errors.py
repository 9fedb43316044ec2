"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PreconditionError(ValueError):
    """A documented precondition of an operation is violated."""


class InvariantViolation(RuntimeError):
    """An internal invariant that should be impossible to break was broken."""


class ParseError(ValueError):
    """Syntax error in a curve expression, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class AssumptionViolation(PreconditionError):
    """The curve admits a constant monomial in its coordinates."""

    def __init__(self, witness):
        super().__init__(f"constant monomial witnessed by exponent vector {witness}")
        self.witness = tuple(witness)


class ImproperParametrization(PreconditionError):
    """The parametrization is not birational onto its image."""

    def __init__(self, degree: int):
        super().__init__(f"parametrization has map degree {degree}, expected 1")
        self.degree = degree
