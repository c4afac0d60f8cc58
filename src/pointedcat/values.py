"""The crossings between the Cyclotomic values of modular data, its exponent
table (n, s, t) and its tokens, imported on first use: the values of a table,
built on the first read of s_tilde or twists (ModularData.__getattr__); the
twist and S~ tokens of either (serialize, canonical_form); and the first entry
of parsed data whose token differs from that of its provenance lattice's table
(serialization.parse). Only values load cyclo and fractions, so table data is
serialized, and its mismatch reported, with neither. A pointed command that
checks, links, fuses or shows data by its table never crosses (show --approx
does), so it compiles neither this module nor cyclo.
"""

from .errors import ValidationError


def table_values(n: int, s, t) -> dict:
    """s_tilde and twists of the table (n, s, t): S~_ij = e(s[i][j]/n) and
    theta_a = e(t[a]/2n), one object per value e(k/2n), shared by S~ (whose
    e(s/n) is e(2s/2n)) and the twists."""
    from fractions import Fraction

    from .cyclo import root_of_unity

    double = (2).__mul__
    roots = {k: root_of_unity(Fraction(k, 2 * n)) for k in {*t, *map(double, set().union(*s))}}
    return {"s_tilde": tuple(tuple(map(roots.__getitem__, map(double, row))) for row in s),
            "twists": tuple(map(roots.__getitem__, t))}


def tokens(md) -> tuple[list[str], list[list[str]]]:
    """The twists of md as cyclo.format_root prints them and its S~ rows as
    format_value does: from the exponent table when there is one
    (lattice.table_tokens), else from the values."""
    table = md._exponents
    if table is not None:
        from .lattice import table_tokens

        return table_tokens(*table)
    from .cyclo import format_root, format_rows

    return [format_root(t) for t in md.twists], format_rows(md.s_tilde)


def check_provenance(md, table) -> None:
    """ValidationError at the first twist of md, then the first S~ entry,
    whose token (tokens) differs from that of the table of its provenance
    lattice (lattice.table_tokens): both forms are canonical."""
    from .lattice import table_tokens

    (twists, rows), (implied_twists, implied_rows) = tokens(md), table_tokens(*table)
    for i, (token, implied) in enumerate(zip(twists, implied_twists)):
        if token != implied:
            raise ValidationError(f"twist {i} is {token}, but provenance gives {implied}")
    # S~ is symmetric (checked by ModularData), so the first bad entry in
    # row-major order lies on or above the diagonal.
    for i, (row, implied_row) in enumerate(zip(rows, implied_rows)):
        for j in range(i, len(row)):
            if row[j] != implied_row[j]:
                raise ValidationError(
                    f"s_tilde ({i},{j}) is {row[j]}, but provenance gives {implied_row[j]}")
