"""Exception hierarchy shared across the package."""


class HflError(Exception):
    """Base class for all package errors."""


class ParseError(HflError):
    def __init__(self, message, span=None, expected=None):
        self.span = span
        self.expected = frozenset(expected or ())
        detail = message
        if span is not None:
            detail += f" at {span.start}..{span.end}"
        if self.expected:
            detail += " (expected: " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class TypeError_(HflError):
    """Type inference failure; carries the offending subformula."""

    def __init__(self, message, formula=None):
        self.formula = formula
        super().__init__(message)


class VarianceError(TypeError_):
    pass


class UnboundVariableError(HflError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unbound variable {name!r}")


class LtsFormatError(HflError):
    pass


class AtmFormatError(HflError):
    pass


class SpaceBoundError(HflError):
    """Turing machine head left the allotted tape during simulation."""


class BudgetError(HflError):
    """Base class for configured-resource refusals."""


def over_budget(refusal: HflError) -> str:
    """How reports show a bound that `refusal` kept from being computed."""
    return f"over budget ({refusal})"


_DECIMAL_LIMIT = 10**4300  # from here on `str` refuses an int


def show_int(value: int) -> str:
    """How reports show a count or bound: exact below 10^4300, past that
    `2^b` for a power of two and `>2^b` otherwise."""
    if value < _DECIMAL_LIMIT:
        return str(value)
    b = value.bit_length() - 1
    return f"2^{b}" if value == 1 << b else f">2^{b}"


class BoundBudgetError(BudgetError):
    """A quantitative bound would exceed the big-integer digit budget.

    Carries a symbolic rendering of the tower expression instead of the value.
    """

    def __init__(self, symbolic):
        self.symbolic = symbolic
        super().__init__(f"bound astronomically large: {symbolic}")


class EnumLimitError(BudgetError):
    """Lattice enumeration refused; carries exact or symbolic cardinality."""

    def __init__(self, cardinality, limit):
        self.cardinality = cardinality
        self.limit = limit
        super().__init__(
            f"lattice has {show_int(cardinality)} elements, over limit {limit}")


class UnfoldBudgetError(BudgetError):
    """Elimination of one fixpoint refused; `demand` is what it needs."""

    def __init__(self, required, budget, demand):
        self.required = required
        self.budget = budget
        super().__init__(f"fixpoint elimination {demand}, over budget {budget}")


class GameLimitError(BudgetError):
    def __init__(self, actual, limit, estimate, refusal=None):
        self.actual = actual
        self.limit = limit
        self.estimate = estimate  # None when `refusal` kept it uncomputed
        shown = show_int(estimate) if refusal is None else over_budget(refusal)
        super().__init__(
            f"game grew past {limit} (at {actual}); closed-form estimate {shown}"
        )


class IterationCapError(HflError):
    """Fixpoint iteration exceeded its cap; signals a non-convergence bug."""


class InternalError(HflError):
    """An invariant the implementation relies on was violated."""
