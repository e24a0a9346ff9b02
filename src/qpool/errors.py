"""Exception types, one for each thing a caller does with a failure."""


class QpoolError(ValueError):
    """Rejected input; the message names the rule it broke.  Base of the other two.

    For a stack of inputs (leading batch axes), the message also says how
    many lanes broke the rule and which one came first.
    """


class ZeroProbabilityError(QpoolError):
    """Measurement outcome has numerically vanishing probability."""


class IncompatibleStatesError(QpoolError):
    """States of knowledge have numerically zero overlap; pooling is undefined."""
