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


# Never raised (a capped optimizer returns its bracket); the benchmark's tracer imports it.
class NoConvergence(SdchanError):
    """An iterative optimizer hit its iteration cap before reaching tolerance."""


class PrecondFailed(SdchanError):
    """A protocol or operation precondition does not hold for this channel."""


class UnsupportedModel(SdchanError):
    """The requested state-information model / regime combination is not handled."""
