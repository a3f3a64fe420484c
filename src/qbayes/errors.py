"""Exception types shared across the package."""


class QbayesError(Exception):
    """Base class for all library-specific failures."""


class InvalidArgument(QbayesError, ValueError):
    """An argument outside the domain a function is defined on."""


class DimensionMismatch(QbayesError):
    """Operands live on incompatible Hilbert spaces."""


class NotHermitian(QbayesError):
    """Matrix fails the Hermiticity tolerance."""


class NotPsd(QbayesError):
    """Operator has an eigenvalue below the positivity tolerance."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NotUnitary(QbayesError):
    """Matrix fails the unitarity tolerance."""


class SingularOperator(QbayesError):
    """Inverse power requested of an operator with a (near-)zero eigenvalue."""


class NotResolution(QbayesError):
    """Candidate POVM elements do not sum to the identity."""

    def __init__(self, message, deficit=None):
        super().__init__(message)
        self.deficit = deficit


class DegenerateSpan(QbayesError):
    """Sampled effects do not span operator space well enough to invert."""


class NotAState(QbayesError):
    """Reconstructed operator fails the density-operator invariants."""


class NotAStateWarning(UserWarning):
    """Non-fatal report that a reconstruction is not a valid state."""


class ZeroLikelihoodEverywhere(QbayesError):
    """Observed data has zero likelihood under every prior support point."""


class NotCp(QbayesError):
    """Choi matrix is not positive semidefinite, so the map is not CP."""


class NotTracePreserving(QbayesError):
    """Kraus operators do not sum to the identity under A^dag A."""


class NotNormalized(QbayesError):
    """Amplitudes fail the normalization requirement."""


class InconsistentRefinement(QbayesError):
    """Claimed convex refinement does not reproduce the prior state."""


class RankDeficientState(QbayesError):
    """Operation requires a full-rank state."""


class DimensionBudgetExceeded(QbayesError):
    """A requested build (a tensor power, a joint table, an SQM) exceeds the memory budget."""


class NnlsNotConverged(QbayesError):
    """Nonnegative least squares reached its iteration limit without a KKT point."""
