"""Exception types, one for each thing a caller does with a failure."""


class QpoolError(ValueError):
    """Rejected input; the message names the rule it broke.  Base of the other two.

    For a stack of inputs (leading batch axes), ``lanes`` holds the flat
    index of every input that broke the rule; it is empty when the input is
    a single matrix or vector, or when the rule is not one input's.
    """

    def __init__(self, *args, lanes=()):
        super().__init__(*args)
        self.lanes = tuple(lanes)


class ZeroProbabilityError(QpoolError):
    """Measurement outcome has numerically vanishing probability."""


class IncompatibleStatesError(QpoolError):
    """States of knowledge have numerically zero overlap; pooling is undefined."""
