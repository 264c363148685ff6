"""Exception types shared across the package."""


class PerclipError(Exception):
    """Base class for every error raised by this package."""


class TooFewPoints(PerclipError, ValueError):
    """A curve or sample set has fewer points than the operation needs."""


class NonFiniteValue(PerclipError, ValueError):
    """A rate or quality value is NaN, infinite, or otherwise out of domain."""


class DuplicateRate(PerclipError, ValueError):
    """Two curve points share the same rate."""


class NonAscendingAbscissae(PerclipError, ValueError):
    """Interpolation abscissae are not strictly increasing."""


class OutOfDomain(PerclipError, ValueError):
    """Evaluation or integration requested outside the fitted knot range."""


class NoOverlap(PerclipError, ValueError):
    """Two curves have no common quality (or rate) interval to integrate."""


class AnchorOutOfRange(PerclipError, ValueError):
    """No bitrate-savings anchor falls inside both curves' quality ranges."""


class TooFewRaters(PerclipError, ValueError):
    """A stimulus has fewer scores than the statistic requires."""


class MissingPair(PerclipError, ValueError):
    """A distorted stimulus has no paired source stimulus."""


class NonConvergence(PerclipError, RuntimeError):
    """An iterative solver hit its sweep limit before converging."""


class DegenerateInput(PerclipError, ValueError):
    """Input has zero variance (or is otherwise uninformative) for a fit."""


class FitDiverged(PerclipError, RuntimeError):
    """A least-squares fit produced non-finite residuals."""


class BackendFailure(PerclipError, RuntimeError):
    """An encoder backend failed: bad exit, timeout, or unparseable output."""
