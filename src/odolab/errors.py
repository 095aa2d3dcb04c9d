"""Exception taxonomy.

CertificateError subclasses are mathematical refusals: the computation
declines to certify a claim rather than guessing.  Everything else is a
plain usage or input error.
"""


class OdolabError(Exception):
    pass


class CapExceeded(OdolabError):
    """Requested truncated basis is larger than the configured cap."""


class AllNsWord(OdolabError):
    """Successor requested for a word with no letter below n."""


class OnesChainWord(OdolabError):
    """Predecessor requested for a word consisting only of 1s."""


class NotIsometric(OdolabError):
    """Operation whose hypotheses require an isometric odometer map."""


class NotAProjection(OdolabError):
    """Matrix handed to the projection-symbol builder fails P = P* = P^2."""


class RangeNotContained(OdolabError):
    """Least-squares factorization left a residual above tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SymbolFormatError(OdolabError):
    """Malformed symbol file or entry table."""


class CertificateError(OdolabError):
    """Base for refusals backed by a failed safety certificate."""


class BoundaryZeroSuspected(CertificateError):
    """Grid modulus dipped below the Lipschitz safety margin on the circle."""


class IdenticallySingular(CertificateError):
    """det of the symbol vanishes identically; winding is undefined."""


class MethodDisagreement(CertificateError):
    """Two independent routes to the same quantity disagree."""

    def __init__(self, message, first=None, second=None):
        super().__init__(message)
        self.first = first
        self.second = second


class DefectUnstable(CertificateError):
    """Defect dimension still growing with depth; not certified finite."""


class SpectralUncertified(CertificateError):
    """A sparse eigensolver did not converge or its result failed the
    residual or inertia check."""
