"""Exception types shared across the package.

Bad input raises a ``ValueError`` and a numerical failure an
``ArithmeticError``; each class below subclasses the base of its category.
"""


class ConvergenceFailure(ArithmeticError):
    """Dense eigensolver did not converge within its iteration budget."""


class GapClosure(ArithmeticError):
    """Band construction hit degenerate eigenvalues on the momentum grid.

    Carries the offending quasi-momenta in ``k_samples``.
    """

    def __init__(self, k_samples):
        self.k_samples = list(k_samples)
        super().__init__(f"gap closes at {len(self.k_samples)} grid point(s)")

    def __reduce__(self):
        return type(self), (self.k_samples,)


class OrthogonalLink(ArithmeticError):
    """A link overlap in a discrete geometric-phase product is (numerically) zero."""


class DegenerateCoin(ArithmeticError):
    """Critical scaling factor undefined: sin(theta1/2)*sin(theta2/2) = 0."""


class InvalidRegion(ValueError):
    """Region boundary incompatible with the lattice size."""


class NoBracket(ArithmeticError):
    """Bisection requested on an interval where the predicate does not change."""


class CheckpointMismatch(ValueError):
    """Checkpoint file does not match the sweep configuration."""
