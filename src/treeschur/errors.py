"""Exception hierarchy shared by all treeschur modules."""


class TreeSchurError(Exception):
    """Base class for all library-specific failures."""


class NonFinite(TreeSchurError):
    """Input contains NaN or infinite entries."""


class NoConvergence(TreeSchurError):
    """An iterative computation hit its size/iteration cap before reaching tolerance."""


class UndeclaredTail(TreeSchurError):
    """A certified bound was requested for a symbol whose tail model cannot provide one."""


class DivergentDiagonals(TreeSchurError):
    """Partial sums show the Hankel matrix is not trace class at the working tolerance."""


class DivergentSeries(TreeSchurError):
    """A weighted series required by a bound does not converge under the declared tail."""


class SizeCap(TreeSchurError):
    """A requested structure would exceed the configured node/entry cap."""


class OrbitEscapesBall(TreeSchurError):
    """A climb orbit left the stored portion of the tree (chain extension too short)."""


class NotPrime(TreeSchurError):
    """The residue characteristic supplied for p-adic arithmetic is not prime."""


class ZeroDenominator(TreeSchurError):
    """Rational input with denominator zero."""

