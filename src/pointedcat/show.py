"""The text of CLI show: rank, labels, quantum dimensions, D^2, p+ and p-,
twists, S~ rows and provenance of one data document. Only show imports this
module.

Data with an exponent table, which is all data of roots of unity from its
construction on (ModularData._exponents), prints its dimensions, twists and
S~ rows from the table's tokens (lattice.table_tokens and value_token,
which print what cyclo.format_value prints for a root), and D^2, p+ and p-
from the counts of the roots e(k/2n) in them, reduced at conductor 2n
(gauss.gauss_vectors), by cyclo_core.format_vector, which cyclo.format_value
calls too and which prints a value the same at any conductor: it builds no
value and loads no cyclo. Other data, and --approx, format each distinct
value through cyclo once, D^2 and p+- as the sums of the values
(moddata.gauss_data).
"""

import sys

from .moddata import gauss_data, quantum_dimensions


def _approx(x) -> str:
    from .cyclo import format_value

    text = format_value(x)
    try:
        re, im = x.approx_complex()
    except OverflowError:
        return f"{text} (beyond float range)"
    # each of the terms, and each partial sum, errs by about 2^-52 sum |c|, so
    # six decimals are right only when that bound is below 5e-7
    sizes = [abs(c) for c in x._coeffs if c]
    if (len(sizes) + 3) * sum(sizes) >= 5e-7 * 2 ** 52:
        return f"{text} (beyond float precision)"
    return f"{text} ({re:+.6f}{im:+.6f}j)"


def show(md, approx: bool) -> None:
    """Write the show text of md to stdout, with floating approximations
    appended to every value when approx is set."""
    table = None if approx else md._exponents
    if table is None:
        from .cyclo import format_rows, format_value

        gauss = gauss_data(md)
        # each distinct object is formatted once, as parsed entries share them
        dims, (d_squared, p_plus, p_minus), twists, *s_tilde = format_rows(
            [quantum_dimensions(md), (gauss.d_squared, gauss.p_plus, gauss.p_minus),
             md.twists, *md.s_tilde], _approx if approx else format_value)
    else:
        from .cyclo_core import format_vector
        from .gauss import gauss_vectors
        from .lattice import table_tokens, value_token

        n, s, t = table
        s_tilde = table_tokens(n, s, t)[1]
        dims, twists = s_tilde[0], [value_token(k, 2 * n) for k in t]
        d_squared, p_plus, p_minus = (format_vector(2 * n, x) for x in gauss_vectors(n, s, t))
    sys.stdout.write(f"rank: {md.rank}\n")
    if md.label_names is not None:
        sys.stdout.write("labels: " + ", ".join(md.label_names) + "\n")
    sys.stdout.write(f"quantum dimensions: {', '.join(dims)}\n")
    sys.stdout.write(f"D^2: {d_squared}\np+: {p_plus}\np-: {p_minus}\n")
    sys.stdout.write("twists: " + ", ".join(twists) + "\ns_tilde:\n")
    for row in s_tilde:
        sys.stdout.write("  " + ", ".join(row) + "\n")
    if md.provenance is not None:
        from .lattice import format_gram

        sys.stdout.write(f"built from: [{format_gram(md.provenance)}]\n")
