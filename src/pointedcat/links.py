"""Colored framed links and their invariants e(k/m) on lattice data, as
integers (k, m) read off the exponent table. Only CLI link and
moddata.colored_link_invariant import this module."""

from __future__ import annotations

from .errors import ValidationError
from .record import record


@record
class FramedLink:
    """Symmetric linking matrix (framings on the diagonal) plus a coloring."""

    linking: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        m = len(self.linking)
        if any(len(row) != m for row in self.linking):
            raise ValidationError("linking matrix is not square")
        for i in range(m):
            for j in range(i + 1, m):
                if self.linking[i][j] != self.linking[j][i]:
                    raise ValidationError("linking matrix is not symmetric")
        if len(self.colors) != m:
            raise ValidationError("need one color per link component")


def framed_link(linking, colors) -> FramedLink:
    return FramedLink(
        tuple(tuple(int(x) for x in row) for row in linking),
        tuple(int(c) for c in colors),
    )


def link_exponent(md: ModularData, link: FramedLink) -> tuple[int, int]:
    """(k, m) with the invariant of a colored framed link e(k/m), 0 <= k < m,
    for lattice-constructed data.

    Framing of component i contributes its twist exponent, each crossing
    pair its Hopf-pairing exponent, summed as integers over the exponent
    table (ModularData._exponents, the lattice's forms over n and 2n):

        m = 2n,  k = sum_i L_ii t[c_i]  +  2 sum_{i<j} L_ij s[c_i][c_j]  mod m

    Unnormalized: the empty link maps to 1, the 0-framed unknot to d_i = 1
    and the Hopf link to the matrix entry.
    """
    if md.provenance is None:
        raise ValidationError("link invariants need lattice-constructed data")
    if any(not 0 <= c < md.rank for c in link.colors):
        raise ValidationError("link color out of range")
    (n, s, t), colors, linking = md._exponents, link.colors, link.linking
    exponent = 0
    for i, a in enumerate(colors):
        exponent += linking[i][i] * t[a]
        for j in range(i + 1, len(colors)):
            exponent += 2 * linking[i][j] * s[a][colors[j]]
    return exponent % (2 * n), 2 * n
