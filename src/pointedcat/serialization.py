"""Bit-exact document serialization.

* ``modular_data`` - ``key: value`` lines with a ``kind:`` header, written by
  serialize and read by parse. Matrix values use ``,`` between entries and
  ``;`` between rows; cyclotomic values use the ``e(a/b)`` grammar from the
  cyclo module.
* ``report`` - output only: ``kind:`` header plus one ``check:`` line per
  verified relation and a closing ``result:`` line.
* matrix files - input only (parse_int_matrix_text, parse_gram_text): one row
  per line, space-separated integers; blank lines and lines starting with
  ``#`` are ignored. (No ``kind:`` header, so matrix files stay hand-editable.)

Malformed text raises ParseError. Text that parses but breaks the contract
(check_gram, a bound, provenance that contradicts the data) raises
ValidationError.

Serialization is deterministic (fixed key order, canonical value text), so
repeated runs produce byte-identical documents. Derived quantities are never
stored: a data file carries only the Hopf-link matrix, twists and optional
provenance, and everything else is recomputed on load.

Pointed data is read and written as integers. serialize prints data with an
exponent table from its exponents (lattice.root_token and value_token). parse
reads a document whose every S~ entry and twist is a root token as serialize
writes it (``1``, ``-1`` or ``e(a/b)`` in lowest terms, 0 <= a < b) straight
into an exponent table, one integer per distinct token text, and checks it
on integers. Any other token sends the whole document through the
Cyclotomic parse of the cyclo grammar, which generic data needs anyway, so
every error is the same whichever parse reads the document.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

from .errors import MAX_CONDUCTOR, ParseError, ValidationError, quoted
from .moddata import ModularData, RelationReport, check_fields, exponent_table, from_table
from .record import record

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_+-")


@record
class Document:
    kind: str
    body: str


# -- serialization -----------------------------------------------------------

def serialize(value) -> Document:
    """Deterministic document for modular data or a report."""
    if isinstance(value, ModularData):
        from .lattice import format_gram, root_token, value_token

        lines = ["kind: modular_data", f"rank: {value.rank}"]
        if value.label_names is not None:
            lines.append("labels: " + ", ".join(value.label_names))
        table = value._exponents
        if table is not None:
            n = table.n
            tokens = {k: value_token(k, n) for k in set().union(*table.s)}
            rows = [map(tokens.__getitem__, row) for row in table.s]
            twists = [root_token(k, 2 * n) for k in table.t]
        else:
            from . import cyclo

            rows = cyclo.format_rows(value.s_tilde)
            twists = [cyclo.format_root(t) for t in value.twists]
        lines.append("s_tilde: " + "; ".join(map(", ".join, rows)))
        lines.append("twists: " + ", ".join(twists))
        if value.provenance is not None:
            lines.append("provenance: " + format_gram(value.provenance))
        return Document("modular_data", "\n".join(lines) + "\n")
    if isinstance(value, RelationReport):
        lines = ["kind: report"]
        for check in value.checks:
            status = "pass" if check.passed else "fail"
            suffix = f": {check.detail}" if check.detail else ""
            lines.append(f"check: {check.name} {status}{suffix}")
        lines.append("result: " + ("pass" if value.passed else "fail"))
        return Document("report", "\n".join(lines) + "\n")
    raise TypeError(f"cannot serialize {type(value).__name__}")


# -- parsing -----------------------------------------------------------------

def parse(doc: Document):
    """Exact inverse of serialize on data documents.

    Raises ParseError or ValidationError.
    """
    if doc.kind == "modular_data":
        try:
            return _parse_table(doc.body)
        except _LeaveToValues:
            return _parse_values(doc.body)
    raise ParseError(f"unknown document kind {doc.kind!r}")


def parse_int_matrix_text(text: str) -> tuple[tuple[int, ...], ...]:
    """Rows of space-separated integers; blanks and '#' comment lines ignored."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append(tuple(int(tok) for tok in stripped.split()))
        except ValueError:
            raise ParseError("matrix rows must be space-separated integers",
                             lineno, line.index(stripped) + 1) from None
    if not rows:
        raise ParseError("no matrix rows found")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("matrix rows have unequal lengths")
    return tuple(rows)


def parse_gram_text(text: str) -> GramMatrix:
    """A matrix file as a Gram matrix: ParseError unless it is square, then
    ValidationError unless check_gram accepts it."""
    from .lattice import check_gram

    rows = parse_int_matrix_text(text)
    if len(rows) != len(rows[0]):
        raise ParseError(f"a Gram matrix must be square, not {len(rows)} x {len(rows[0])}")
    return check_gram(rows)


def _key_value_lines(body: str, kind: str, known: tuple[str, ...]):
    """Yield (key, value, lineno, value_column) for each content line."""
    header_seen = False
    for lineno, line in enumerate(body.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise ParseError("expected 'key: value'", lineno, 1)
        key, _, value = line.partition(":")
        key = key.strip()
        if not header_seen:
            if key != "kind" or value.strip() != kind:
                raise ParseError(f"expected 'kind: {kind}' header", lineno, 1)
            header_seen = True
            continue
        if key not in known:
            raise ParseError(f"unknown key {quoted(key)}", lineno, 1)
        yield key, value.strip(), lineno, line.index(":") + 2 + (len(value) - len(value.lstrip()))
    if not header_seen:
        raise ParseError(f"missing 'kind: {kind}' header")


def _split_tracking(text: str, sep: str, base_col: int):
    """Split on sep, yielding (chunk, column) with 1-based source columns."""
    offset = 0
    for chunk in text.split(sep):
        lead = len(chunk) - len(chunk.lstrip())
        yield chunk.strip(), base_col + offset + lead
        offset += len(chunk) + len(sep)


def _parse_inline_matrix(value: str, lineno: int, col: int):
    rows = []
    for row_text, row_col in _split_tracking(value, ";", col):
        try:
            rows.append(tuple(int(tok) for tok in row_text.split()))
        except ValueError:
            raise ParseError("expected space-separated integers", lineno, row_col) from None
    return tuple(rows)


def _read_fields(body: str, matrix, vector) -> dict:
    """The fields of a data document, with s_tilde read by matrix and twists
    by vector, each called as (value, lineno, col); ParseError on the first
    bad line, or for a missing key."""
    fields: dict[str, object] = {}
    known = ("rank", "labels", "s_tilde", "twists", "provenance")
    for key, value, lineno, col in _key_value_lines(body, "modular_data", known):
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        if key == "rank":
            try:
                fields["rank"] = int(value)
            except ValueError:
                raise ParseError("rank must be an integer", lineno, col) from None
        elif key == "labels":
            names = tuple(chunk for chunk, _ in _split_tracking(value, ",", col))
            for name in names:
                if not name or not set(name) <= _NAME_CHARS:
                    raise ParseError(f"bad label name {quoted(name)}", lineno, col)
            fields["labels"] = names
        elif key == "s_tilde":
            fields["s_tilde"] = matrix(value, lineno, col)
        elif key == "twists":
            fields["twists"] = vector(value, lineno, col)
        elif key == "provenance":
            fields["provenance"] = _parse_inline_matrix(value, lineno, col)
    for required in ("rank", "s_tilde", "twists"):
        if required not in fields:
            raise ParseError(f"missing required key {required!r}")
    return fields


def _provenance(fields: dict):
    """(gram, group) of the provenance field, or (None, None) without one."""
    if "provenance" not in fields:
        return None, None
    from .lattice import check_gram, discriminant_group

    try:
        gram = check_gram(fields["provenance"])
    except ValidationError as exc:
        raise ValidationError(f"invalid provenance matrix: {exc}") from None
    return gram, discriminant_group(gram)


def _implied(gram: GramMatrix, group, rank: int):
    """The exponent table (n, s, t) the provenance lattice implies."""
    from .lattice import pairing_exponents

    if group.order != rank:
        raise ValidationError(f"provenance has |det B| = {group.order}, but rank is {rank}")
    return pairing_exponents(gram, group)


class _LeaveToValues(Exception):
    """A document that _parse_table leaves to _parse_values."""


def _root_of(token: str) -> tuple[int, int]:
    """(a, b) with token the text e(a/b) as serialize writes it: 1, -1, or
    e(a/b) with 0 <= a < b <= MAX_CONDUCTOR and gcd(a, b) = 1;
    _LeaveToValues for any other text."""
    if token == "1":
        return 0, 1
    if token == "-1":
        return 1, 2
    a, _, b = token[2:-1].partition("/")
    try:
        a, b = int(a), int(b)
    except ValueError:
        raise _LeaveToValues from None
    if token != f"e({a}/{b})" or not 0 <= a < b <= MAX_CONDUCTOR or gcd(a, b) != 1:
        raise _LeaveToValues
    return a, b


def _parse_table(body: str) -> ModularData:
    """A document of root tokens as an exponent table (moddata.from_table).
    Each row is split once, and no column is worked out. A token that is no
    root as serialize writes it, a conductor past the bound, a d_a != 1 (data
    without an exponent table) or a contradiction of the provenance leaves
    the document to _parse_values, which builds it or names the first error;
    every other check is the code of _parse_values, in its order."""
    roots = {}  # (a, b) of each distinct chunk between separators, unstripped
    chunks = {}  # one string object per distinct chunk

    def tokens(text, *_):
        row = text.split(",")
        row = tuple(map(chunks.setdefault, row, row))
        for chunk in set(row).difference(roots):
            roots[chunk] = _root_of(chunk.strip())
        return row

    fields = _read_fields(body, lambda value, *_: tuple(map(tokens, value.split(";"))), tokens)
    # e(a/b) has conductor b, but 1 and -1 have conductor 1, as in cyclo
    if lcm(*(b for _, b in roots.values() if b > 2)) > MAX_CONDUCTOR:
        raise _LeaveToValues
    gram, group = _provenance(fields)
    table = exponent_table(fields["s_tilde"], fields["twists"], roots)
    check_fields(fields["rank"], table.s, table.t, fields.get("labels"), 0)
    # a document that matches its lattice has the lattice's table, n included
    if any(table.s[0]) or gram is not None and (table.n, table.s, table.t) != _implied(
            gram, group, fields["rank"]):
        raise _LeaveToValues
    return from_table(fields["rank"], table, gram, fields.get("labels"))


def _parse_values(body: str) -> ModularData:
    """A data document of any values of the cyclo grammar, as Cyclotomic."""
    from fractions import Fraction

    from .cyclo import check_conductor, format_root, format_value, parse_value

    def value_list(value, lineno, col):
        values = []
        for chunk, chunk_col in _split_tracking(value, ",", col):
            try:
                values.append(parse_value(chunk))
            except ValueError as exc:
                raise ParseError(str(exc), lineno, chunk_col) from None
        return tuple(values)

    def matrix(value, lineno, col):
        return tuple(value_list(row, lineno, row_col)
                     for row, row_col in _split_tracking(value, ";", col))

    fields = _read_fields(body, matrix, value_list)
    # every check computes at the lcm of all conductors
    values = itertools.chain(*fields["s_tilde"], fields["twists"])
    check_conductor(x.conductor for x in values)
    gram, group = _provenance(fields)
    md = ModularData(
        rank=fields["rank"],
        s_tilde=fields["s_tilde"],
        twists=fields["twists"],
        provenance=gram,
        label_names=fields.get("labels"),
    )
    if gram is None:
        return md
    # The rank, the twists and S~ must be those the provenance lattice implies.
    from .lattice import root_token, value_token

    n, s, t = _implied(gram, group, md.rank)
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
    return md
