"""Exception hierarchy shared by every module, with the CLI exit-code map.

Exit codes:
    1 -- malformed input (files, JSON, sizes, family and bound parameters),
         refused by every entry point before its first value gate
    2 -- a mathematical hypothesis of an operation is not met
    3 -- internal numerical inconsistency (the winding's two methods
         disagree, a pivot level residual is too large, a certificate or a
         self-verification fails)
    4 -- an audited bound was violated (used by the audit suites)
"""


class ObstructkitError(Exception):
    """Base class for all library errors; ``measured`` holds the value a gate saw."""

    exit_code = 2

    def __init__(self, message, measured=None):
        super().__init__(message)
        self.measured = measured


# ---------------------------------------------------------------------------
# input / parse problems (exit 1)
# ---------------------------------------------------------------------------

class ParseError(ObstructkitError):
    """Unreadable or structurally malformed input."""

    exit_code = 1


class InvalidMatrix(ParseError):
    """Matrix input is not square, not finite, or otherwise malformed."""


class InvalidSize(ParseError):
    """A size parameter is outside its valid range."""


class InvalidFamily(ParseError):
    """Unknown family name or invalid family parameters."""


class BoundViolation(ParseError):
    """A caller-supplied bound parameter is outside its admissible range."""


# ---------------------------------------------------------------------------
# hypothesis gates (exit 2)
# ---------------------------------------------------------------------------

class HypothesisViolation(ObstructkitError):
    """A quantitative hypothesis fails; carries the measured value."""


class NotInvertible(ObstructkitError):
    """Smallest singular value at or below the singularity tolerance."""


class NotUnitary(ObstructkitError):
    """Matrix expected to be unitary is not, within tolerance."""


class NotHermitian(ObstructkitError):
    """Matrix expected to be hermitian is not, within tolerance."""


class NotProjection(ObstructkitError):
    """Matrix expected to be an orthogonal projection is not."""


class SpectralGapViolation(ObstructkitError):
    """An eigenvalue sits inside the forbidden window around the cut."""

    def __init__(self, message, eigenvalue=None, cut=None, measured=None):
        super().__init__(message, measured)
        self.eigenvalue = eigenvalue
        self.cut = cut


class OpenPath(ObstructkitError):
    """The determinant path does not close up (det != 1 beyond tolerance)."""


class AsymmetricSet(ObstructkitError):
    """A word set required to be closed under inversion is not."""


class NotInCommutatorSubgroup(ObstructkitError):
    """Word has a nonzero exponent sum, so it is not a commutator product."""


class NotAnAutomorphism(ObstructkitError):
    """Integer matrix is not invertible over the integers (|det| != 1)."""


class SubdivisionTooCoarse(ObstructkitError):
    """A projection path has a consecutive gap of 1/4 or more."""

    def __init__(self, message, index=None, measured=None):
        super().__init__(message, measured)
        self.index = index


class ZeroMode(ObstructkitError):
    """The spectrum contains 0, so the regularized sum is not defined."""


# ---------------------------------------------------------------------------
# numerics (exit 3) and audits (exit 4)
# ---------------------------------------------------------------------------

class NumericalInconsistency(ObstructkitError):
    """Independent computations of the same quantity disagree."""

    exit_code = 3


class AuditViolation(ObstructkitError):
    """A randomized audit suite measured a ratio above its proved bound."""

    exit_code = 4
