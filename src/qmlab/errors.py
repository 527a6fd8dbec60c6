"""Exception taxonomy shared by all qmlab modules."""


class QmLabError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(QmLabError, ZeroDivisionError):
    """Multiplicative inverse of zero, or division by zero."""


class UnsupportedField(QmLabError):
    """The requested operation is undefined over this field."""


class RegimeMismatch(QmLabError):
    """An argument falls outside the restricted regime the operation needs."""


class NoPairExists(QmLabError):
    """No valid scaled pair exists over this field."""


class BudgetExceeded(QmLabError):
    """The search exhausted its node budget before finishing.

    `t` is the bit count the search was trying when the budget ran out.  The
    search tries t in ascending order, so no scheme has fewer than t bits.
    """

    def __init__(self, budget: int, t: int):
        bits = "bit" if t == 1 else "bits"
        super().__init__(
            f"search expanded more than {budget} nodes; no scheme with fewer than {t} {bits}"
        )
        self.budget = budget
        self.t = t


class InvalidScheme(QmLabError):
    """A leakage scheme is structurally unusable for the requested operation.

    `entry` names the offending entry, such as "servers[3]", when one entry
    is at fault; the message then starts with it.
    """

    def __init__(self, message: str, entry: str | None = None):
        super().__init__(f"{entry}: {message}" if entry else message)
        self.entry = entry


class PreconditionViolated(QmLabError):
    """An operation was called outside its documented precondition."""


class UnknownStrategy(QmLabError):
    """The game was asked to run a strategy it does not know."""


class SchemaError(QmLabError):
    """A JSON document does not match the scheme schema."""
