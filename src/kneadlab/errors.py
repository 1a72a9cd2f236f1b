"""Exception types shared across the package."""


class KneadlabError(Exception):
    """Base class for all structured failures."""


# map_core
class OutOfDomain(KneadlabError):
    pass


class NotSelfMap(KneadlabError):
    """The map value left the invariant interval by more than the slack."""


# symbolic
class ContainsCriticalSymbol(KneadlabError):
    """Frequency patterns over {0,1} only; a 'c' matches nothing."""


class PrefixTooShort(KneadlabError):
    pass


class InsufficientOccurrences(KneadlabError):
    """Fewer than the required occurrences even at the smallest power."""


# orbits
class IrreducibleRequired(KneadlabError):
    pass


class EmptyCylinder(KneadlabError):
    """No periodic orbit with this itinerary exists for the map (legal outcome)."""


class NonContraction(KneadlabError):
    """Cylinder widths stalled above tolerance and no root could be isolated."""


class NoOrbitPredicted(KneadlabError):
    """The geometric frequency estimate is exactly zero."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class DivergentInput(KneadlabError):
    """z outside the guaranteed convergence disk of the zeta truncation."""


# nest
class NoReversingFixedPoint(KneadlabError):
    pass


class CriticalNonReturn(KneadlabError):
    """The critical orbit did not re-enter the current nest interval."""


class PrecisionExhausted(KneadlabError):
    pass


class TooShallow(KneadlabError):
    pass


# measure
class DegenerateOrbit(KneadlabError):
    """Orbit converged to a periodic attractor; carries the detected cycle."""

    def __init__(self, message, period=None, cycle=None):
        super().__init__(message)
        self.period = period
        self.cycle = list(cycle) if cycle is not None else None


class TooManyGaps(KneadlabError):
    pass
