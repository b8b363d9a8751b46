"""Exception types shared across the package."""


class SdchanError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SdchanError):
    """The channel document is malformed (not valid JSON / wrong structure)."""


class ValidationError(SdchanError):
    """A channel violates one of its invariants.

    The message names the violated invariant and the offending indices.
    """


class AlphabetTooLarge(SdchanError):
    """A derived alphabet exceeds the configured size cap."""


class BudgetExceeded(SdchanError):
    """A brute-force oracle was asked for more work than its budget allows."""


class NoConvergence(SdchanError):
    """An iterative optimizer hit its iteration cap before reaching tolerance.

    The partial result (with its certified gap) is attached as ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class PrecondFailed(SdchanError):
    """A protocol or operation precondition does not hold for this channel."""


class UnsupportedModel(SdchanError):
    """The requested state-information model / regime combination is not handled."""
