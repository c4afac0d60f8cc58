"""Exception hierarchy and input bounds.

Every failure the library raises derives from PointedCatError. An input
beyond one of the bounds is rejected with ValidationError before anything of
its size is allocated.
"""

# |det B| of a Gram matrix, which is the rank of its pointed data.
MAX_RANK = 512
# Conductor of a parsed value, and the lcm of the conductors in one document;
# a lattice with |det B| <= MAX_RANK gives data of conductor <= 2 * |det B|.
MAX_CONDUCTOR = 2 * MAX_RANK
MAX_CANONICAL_RANK = 8  # rank bound of canonical_form, which branches once per symmetry
# Estimated work rank^4 (n + 4) of the dense checks at conductor n: the Verlinde
# sum's rank^4 products, each about n + 4 slots. On a 2-core Xeon verify takes
# about 7 ns a unit (SU(2)_48: 1.2e9, 8 s; Fib^7: 2.4e9, 15 s).
MAX_DENSE_WORK = 2_500_000_000


class PointedCatError(Exception):
    """Base class for all errors raised by this package."""


class NotSymmetric(PointedCatError):
    """Input matrix is not symmetric, so the bilinear pairing is ill-defined."""


class OddDiagonal(PointedCatError):
    """Input matrix has an odd diagonal entry, so twists are not well-defined mod 1."""


class Singular(PointedCatError):
    """Input matrix is singular; its cokernel is infinite."""


class NotInDiscriminantGroup(PointedCatError):
    """Numerator u over n fails the membership condition: n divides B*u."""


class NonIntegralFusion(PointedCatError):
    """A reconstructed fusion multiplicity is not a non-negative integer."""


class NotProbabilistic(PointedCatError):
    """A fusion outcome weight is not a non-negative rational."""


class NotModular(PointedCatError):
    """A defining identity of modular data fails structurally."""


class NoLatticeProvenance(PointedCatError):
    """Operation requires data constructed from a Gram matrix."""


class RankTooLarge(PointedCatError):
    """Rank exceeds the bound for exhaustive relabeling."""


class ParseError(PointedCatError):
    """Malformed document text. Carries 1-based line and column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}" if line else message)
        self.line = line
        self.column = column


class ValidationError(PointedCatError):
    """Parsed data violates a type invariant."""
