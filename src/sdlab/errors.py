"""Exception hierarchy for sdlab.

Every domain error raised by the library derives from SdlabError so callers
(and the CLI) can map failures to structured reports in one place.
"""

import cmath


class SdlabError(Exception):
    """Base class for all sdlab domain errors."""


class ParseError(SdlabError):
    """Quiver text does not match the accepted grammar."""


class CyclicQuiver(SdlabError):
    """The arrow digraph contains a directed cycle (loops included)."""


class DimensionMismatch(SdlabError):
    """A vector length does not match the quiver's vertex count."""


class DisconnectedQuiver(SdlabError):
    """Operation requires a connected underlying graph."""


class NotDynkin(SdlabError):
    """Operation requires an ADE quiver."""


class QuiverMismatch(SdlabError):
    """Two representations or objects live over different quivers."""


class NotIndecomposable(SdlabError):
    """Representation failed the brick test (End dimension != 1)."""


class CatalogMiss(SdlabError):
    """An object left the cataloged components (regular modules)."""


class CatalogIncomplete(SdlabError):
    """Operation needs the full indecomposable list, only available
    for Dynkin quivers."""


class NotAStabilityFunction(SdlabError):
    """Some central charge value lies outside the closed upper half
    plane slit along the nonnegative reals."""


class NotAllSemistable(SdlabError):
    """Mass-type quantities need every summand semistable."""


class HeartEscape(SdlabError):
    """A group action produced a record outside the representable
    phase window.  Defensive: canonical re-slotting should prevent it."""


class HeartMismatch(SdlabError):
    """No rotation of the Serre eigenvector places all simples in the
    admissible half plane, so no Gepner point exists on this heart."""


class GldimTooLarge(SdlabError):
    """Global dimension exceeds what the operation tolerates."""


class NotConnectedSubset(SdlabError):
    """Vertex subset does not induce a connected full subquiver."""


class GenusTooSmall(SdlabError):
    """Closed-form curve bounds need genus at least 2."""


class EmptyGrid(SdlabError):
    """A scan grid must contain at least one point."""


class BudgetExceeded(SdlabError):
    """Dimension growth passed the configured budget."""


class ConfigError(SdlabError):
    """CLI/run configuration is invalid."""


def require_finite(name: str, value):
    """value, or ConfigError naming the input when it (or a part) is infinite or nan."""
    if not cmath.isfinite(value):
        raise ConfigError("%s must be finite, got %r" % (name, value))
    return value
