"""Exception types shared across the package."""


class TreespecError(Exception):
    """Base class for all treespec errors."""


class DomainError(TreespecError, ValueError):
    """Mathematically invalid input (division by zero, forbidden start, ...)."""


class UnsupportedOperationError(TreespecError):
    """Operation not defined for this solution variant."""


class NoContinuousExtensionError(UnsupportedOperationError):
    """The solution has no real continuous extension in j."""


class NotATreeError(TreespecError, ValueError):
    """Edge list does not describe a tree on vertices 1..n."""


class BadVertexError(TreespecError, ValueError):
    """Vertex id outside 1..n or not a positive integer."""


class BadIndexError(TreespecError, ValueError):
    """Eigenvalue index out of range."""


class OutOfDomainError(TreespecError, ValueError):
    """(n, r) outside the domain where the alternating-sign formulas hold."""


class PatternNotFoundError(TreespecError):
    """The expected sign pattern did not appear within the scanned range."""


class PreconditionViolatedError(TreespecError, ValueError):
    """Tree transformation preconditions not met."""
