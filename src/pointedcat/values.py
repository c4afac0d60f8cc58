"""The crossings between the Cyclotomic values of modular data, its exponent
table (n, s, t) and its tokens, imported with cyclo on first use: the values
of a table, built on the first read of s_tilde or twists
(ModularData.__getattr__); the table of values that are all roots of unity
(ModularData._exponents); the twist and S~ tokens of either (serialize,
canonical_form); and the first entry of parsed data that differs from its
provenance lattice's table (serialization.parse). A pointed command that
checks, links or fuses data by its table never crosses, so it compiles
neither this module nor cyclo.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cyclo import format_root, format_rows, format_value, root_of_unity
from .errors import ValidationError
from .moddata import exponent_table


def table_values(n: int, s, t) -> dict:
    """s_tilde and twists of the table (n, s, t): S~_ij = e(s[i][j]/n) and
    theta_a = e(t[a]/2n), one object per value e(k/2n), shared by S~ (whose
    e(s/n) is e(2s/2n)) and the twists."""
    double = (2).__mul__
    roots = {k: root_of_unity(Fraction(k, 2 * n)) for k in {*t, *map(double, set().union(*s))}}
    return {"s_tilde": tuple(tuple(map(roots.__getitem__, map(double, row))) for row in s),
            "twists": tuple(map(roots.__getitem__, t))}


def value_exponents(rows, twists) -> tuple | None:
    """The exponent table (n, s, t) of S~ rows and twists given as values, or
    None unless every one is a root of unity; each distinct object is
    converted once."""
    roots = {}
    for x in itertools.chain(*rows, twists):
        if id(x) not in roots:
            q = x.root_exponent()
            if q is None:
                return None
            roots[id(x)] = q.numerator, q.denominator
    return exponent_table([list(map(id, row)) for row in rows], list(map(id, twists)), roots)


def tokens(md) -> tuple[list[str], list[list[str]]]:
    """The twists of md as cyclo.format_root prints them and its S~ rows as
    format_value does: from the exponent table when there is one
    (lattice.table_tokens), else from the values."""
    table = md._exponents
    if table is not None:
        from .lattice import table_tokens

        return table_tokens(*table)
    return [format_root(t) for t in md.twists], format_rows(md.s_tilde)


def check_provenance(md, n: int, s, t) -> None:
    """ValidationError at the first twist of md, then the first S~ entry,
    that differs from the table (n, s, t) of its provenance lattice."""
    from .lattice import root_token, value_token

    for i, (twist, k) in enumerate(zip(md.twists, t)):
        if twist.root_exponent() != Fraction(k, 2 * n):
            raise ValidationError(f"twist {i} is {format_root(twist)}, "
                                  f"but provenance gives {root_token(k, 2 * n)}")
    # S~ is symmetric (checked by ModularData), so the first bad entry in
    # row-major order lies on or above the diagonal.
    for i, (row, implied_row) in enumerate(zip(md.s_tilde, s)):
        for j in range(i, md.rank):
            if row[j].root_exponent() != Fraction(implied_row[j], n):
                raise ValidationError(f"s_tilde ({i},{j}) is {format_value(row[j])}, "
                                      f"but provenance gives {value_token(implied_row[j], n)}")
