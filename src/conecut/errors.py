"""Exception hierarchy shared by all modules."""


class ConecutError(Exception):
    """Base class for all errors raised by this package."""


class DomainViolation(ConecutError):
    """A point fails a map's domain predicate (division by zero, log of a
    nonpositive number, an explicit guard, ...)."""


class ArityMismatch(ConecutError):
    """Vector or matrix dimensions do not match a declared arity."""


class UnknownGuardKind(ConecutError):
    """A domain guard names a kind other than the known ones."""


class ParseError(ConecutError):
    """Malformed textual expression; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class NotAdapted(ConecutError):
    """A map of pairs fails the sampled slice-preservation check."""


class NotVanishing(ConecutError):
    """A function required to vanish on the slice does not."""


class CenterPoint(ConecutError):
    """A representative lies on the blow-up center and has no image."""


class OutsideChart(ConecutError):
    """A point lies outside the domain of the requested chart."""


class OutsideBlupF(ConecutError):
    """A point is excluded from the domain of the induced blow-up map."""


class DegenerateCurve(ConecutError):
    """The zero polynomial cannot be resolved."""


class NotImmersive(ConecutError):
    """The normal derivative has a kernel where injectivity is required."""


class SamplingFailure(ConecutError):
    """No valid sample points could be produced."""


class SliceCrossing(ConecutError):
    """A flow was asked to cross the t = 0 slice from the body side."""


class NonConvergence(ConecutError):
    """An extrapolation did not settle below its tolerance."""


class InvariantBreach(ConecutError):
    """An internal algebraic invariant failed; indicates a bug."""
