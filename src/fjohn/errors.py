"""Exception types shared across the package."""


class FJohnError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(FJohnError):
    pass


class PointOnBoundary(FJohnError):
    pass


class SingularA(FJohnError):
    pass


class NotProper(FJohnError):
    pass


class NoCertificate(FJohnError):
    """An exact test found neither of its two certificates to hold; it does not guess."""


class NotJohnPosition(FJohnError):
    pass


class InfeasibleWeights(FJohnError):
    pass


class AtomOffContactSet(FJohnError):
    pass


class ZeroValueAtom(FJohnError):
    pass


class AllWeightsZero(FJohnError):
    pass


class NotConverged(FJohnError):
    """A solver stopped short of its tolerance; carries the record of the work it did.

    `reason` names the stop; a count or norm the solver did not reach is None.
    """

    def __init__(self, message, *, reason=None, iterations=None, evaluations=None,
                 grad_norm=None):
        super().__init__(message)
        self.reason = reason
        self.iterations = iterations
        self.evaluations = evaluations
        self.grad_norm = grad_norm


class DivergingIterates(FJohnError):
    """Minimization escaped along a flat or descent ray; carries the offending direction."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class BadR(FJohnError):
    pass


class NotInBr(FJohnError):
    pass
