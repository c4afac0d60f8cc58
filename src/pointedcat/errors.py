"""Exception hierarchy, input bounds and the quoting of input in messages.

Every failure the library raises derives from PointedCatError. The CLI raises
PointedCatError itself for a file it cannot read or write and for a label or
color argument it cannot use; everything else is one of:

* ParseError: document text outside the grammar, with its line and column
  where it has one;
* ValidationError: input outside the contract, such as a Gram matrix that is
  not square, symmetric, even and nonsingular, a vector outside the
  discriminant group, a fusion weight that is not a non-negative rational or
  link data without provenance, or an input beyond one of the bounds below,
  rejected before anything of its size is allocated;
* NotModular: a defining identity of modular data that fails, such as charge
  conjugation or the integrality of a fusion multiplicity.

The CLI prints each as one ``error:`` line and exits 2; verify turns the
failures of its own checks into report lines instead. A message quotes input
text through quoted(), so the line stays short however long the input is and
however its characters escape.
"""

# |det B| of a Gram matrix, which is the rank of its pointed data.
MAX_RANK = 512
# Conductor of a parsed value, and the lcm of the conductors in one document;
# a lattice with |det B| <= MAX_RANK gives data of conductor <= 2 * |det B|.
MAX_CONDUCTOR = 2 * MAX_RANK
MAX_CANONICAL_RANK = 8  # rank bound of canonical_form, which branches once per symmetry
# Candidate matrices of an enumerate corpus. The largest corpora within it are
# dim <= 3, |entry| <= 6 (754215) and dim 1, |entry| <= 999999 (999999).
MAX_CANDIDATES = 1_000_000
# Dimension of a Gram matrix, checked before its O(dim^3) determinant: CLI
# construct on A_128 took 0.31 s on a 2-core Xeon (2026-10-19).
MAX_GRAM_DIM = 128
# Estimated work rank^4 (n + 4) w isqrt(w) of the dense checks at conductor n:
# the Verlinde sum's rank^4 products, each about n + 4 slots of w 64-bit words,
# w those of the largest packed coefficient (den included; 1 within 64 bits).
# In these units SU(2)_48 is 1.2e9 and Fib^7 2.4e9, both within the bound, and
# Fib^8 3.9e10. The power 3/2 of w fits SU(2)_k with S~_ij (i, j >= 1) times
# 10^1000 + 7 (w = 52) or 10^4000 + 7 (w = 208), whose measured time per unit
# was 0.8-1.9 times that at w = 1: k = 6, w = 52: 3.1e7; k = 6, w = 208:
# 2.5e8; k = 10, w = 208: 2.2e9; k = 16, w = 52: 2.3e9; k = 16, w = 208:
# 1.8e10, refused.
MAX_DENSE_WORK = 2_500_000_000


class PointedCatError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PointedCatError):
    """Malformed document text. Carries 1-based line and column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}" if line else message)
        self.line = line
        self.column = column


class ValidationError(PointedCatError):
    """Input outside the contract or beyond a bound."""


class NotModular(PointedCatError):
    """A defining identity of modular data fails."""


def check_conductor(conductors) -> None:
    """Raise ValidationError if the lcm of the conductors exceeds MAX_CONDUCTOR."""
    from math import lcm  # here, so that importing the CLI loads no math

    n = lcm(*conductors)
    if n > MAX_CONDUCTOR:
        raise ValidationError(f"conductor {n} exceeds the bound {MAX_CONDUCTOR}")


# UTF-8 bytes of a cut echo's repr: that of 40 plain ASCII characters
QUOTE_BYTES = 42


def quoted(text: str) -> str:
    """repr(text) when it has at most 40 characters and every one is printable,
    or its repr takes at most QUOTE_BYTES; else the repr of its longest prefix
    of at most 40 characters whose repr takes at most QUOTE_BYTES, and the
    length of the text. So a cut echo takes at most QUOTE_BYTES plus the
    length suffix, however many bytes each character escapes to."""
    whole = repr(text)
    if len(text) <= 40 and (text.isprintable() or len(whole.encode()) <= QUOTE_BYTES):
        return whole
    head = text[:40]
    while len(repr(head).encode()) > QUOTE_BYTES:
        head = head[:-1]
    return f"{head!r}... ({len(text)} characters)"
