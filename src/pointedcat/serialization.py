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

Pointed data is read and written as integers. data_document is the one
writer of a data document, from tokens: serialize passes those of
values.tokens, and CLI construct those of a lattice's exponent table
(lattice.table_tokens), with no moddata. parse reads each line and each
distinct chunk between separators once: a root token as serialize writes it
(``1``, ``-1`` or ``e(a/b)`` in lowest terms, 0 <= a < b) becomes its (a, b),
and any other chunk its Cyclotomic value (cyclo.parse_value, imported at the
first such chunk). A document of root tokens becomes its exponent table
(moddata.from_table), whatever its row 0, checked on integers; any other is
built from values. A provenance lattice is one comparison of exponent
tables; on a mismatch, values.check_provenance names the first twist or S~
entry whose token differs. moddata, values and cyclo are imported on first use.
"""

import itertools
from math import gcd

from .errors import MAX_CONDUCTOR, ParseError, ValidationError, check_conductor, quoted
from .record import record

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_+-")


@record
class Document:
    kind: str
    body: str


# -- serialization -----------------------------------------------------------

def serialize(value) -> Document:
    """Deterministic document for modular data (data_document of its tokens,
    values.tokens) or a report."""
    from .moddata import ModularData, RelationReport

    if isinstance(value, ModularData):
        from .values import tokens

        return data_document(*tokens(value), value.provenance, value.label_names)
    if isinstance(value, RelationReport):
        lines = ["kind: report"]
        for check in value.checks:
            status = "pass" if check.passed else "fail"
            suffix = f": {check.detail}" if check.detail else ""
            lines.append(f"check: {check.name} {status}{suffix}")
        lines.append("result: " + ("pass" if value.passed else "fail"))
        return Document("report", "\n".join(lines) + "\n")
    raise TypeError(f"cannot serialize {type(value).__name__}")


def data_document(twists, rows, provenance: "GramMatrix | None" = None,
                  label_names: tuple[str, ...] | None = None) -> Document:
    """The one writer of a data document of rank len(twists), from its twist
    tokens and S~ rows of tokens: serialize writes modular data through it,
    and CLI construct the tokens of a lattice's exponent table (table_tokens)."""
    lines = ["kind: modular_data", f"rank: {len(twists)}"]
    if label_names is not None:
        lines.append("labels: " + ", ".join(label_names))
    lines.append("s_tilde: " + "; ".join(map(", ".join, rows)))
    lines.append("twists: " + ", ".join(twists))
    if provenance is not None:
        from .lattice import format_gram

        lines.append("provenance: " + format_gram(provenance))
    return Document("modular_data", "\n".join(lines) + "\n")


# -- parsing -----------------------------------------------------------------

def parse(doc: Document) -> "ModularData":
    """Exact inverse of serialize on data documents (see the module
    docstring). Raises ParseError or ValidationError for the first of: a bad
    line or chunk, the conductor bound, the provenance matrix, check_fields,
    the rank against |det B|, a bad twist, a bad S~ entry."""
    from .moddata import check_fields, exponent_table, from_table

    if doc.kind != "modular_data":
        raise ParseError(f"unknown document kind {doc.kind!r}")
    fields, chunks = _read_fields(doc.body)
    rank, labels = fields["rank"], fields.get("labels")
    # every check computes at the lcm of all conductors: e(a/b) has conductor
    # b, and 1 and -1 conductor 1, as in cyclo
    check_conductor(x.conductor if not isinstance(x, tuple) else x[1] if x[1] > 2 else 1
                    for x in chunks.values())
    gram = None
    if "provenance" in fields:
        from .lattice import check_gram, check_rank_bound, pairing_exponents

        try:
            gram = check_gram(fields["provenance"])
        except ValidationError as exc:
            raise ValidationError(f"invalid provenance matrix: {exc}") from None
        check_rank_bound(gram)
    if all(isinstance(x, tuple) for x in chunks.values()):
        table = exponent_table(fields["s_tilde"], fields["twists"], chunks)
        check_fields(rank, table[1], table[2], labels, 0)
        md = from_table(table, gram, labels)
    else:
        md = _from_values(fields, chunks, gram)
    if gram is None:
        return md
    if abs(gram.determinant) != rank:
        raise ValidationError(
            f"provenance has |det B| = {abs(gram.determinant)}, but rank is {rank}")
    # a document that matches its lattice has the lattice's table, n included
    implied = pairing_exponents(gram)
    if md._exponents != implied:
        from .values import check_provenance

        check_provenance(md, implied)
    return md


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


def parse_gram_text(text: str) -> "GramMatrix":
    """A matrix file as a Gram matrix: ParseError unless it is square, then
    ValidationError unless check_gram accepts it."""
    from .lattice import check_gram

    rows = parse_int_matrix_text(text)
    if len(rows) != len(rows[0]):
        raise ParseError(f"a Gram matrix must be square, not {len(rows)} x {len(rows[0])}")
    return check_gram(rows)


def _key_value_lines(body: str):
    """Yield (key, value, lineno, value_column) for each content line of a
    data document."""
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
            if key != "kind" or value.strip() != "modular_data":
                raise ParseError("expected 'kind: modular_data' header", lineno, 1)
            header_seen = True
            continue
        if key not in ("rank", "labels", "s_tilde", "twists", "provenance"):
            raise ParseError(f"unknown key {quoted(key)}", lineno, 1)
        yield key, value.strip(), lineno, line.index(":") + 2 + (len(value) - len(value.lstrip()))
    if not header_seen:
        raise ParseError("missing 'kind: modular_data' header")


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


def _read_fields(body: str) -> tuple[dict, dict]:
    """The fields of a data document, with s_tilde a list of rows and twists
    one row, each row the list of its chunks between commas; and for each
    distinct chunk, its (a, b) if it is a root token e(a/b) (_root_of), else
    its Cyclotomic value (cyclo.parse_value). Each line and each distinct
    chunk is read once. ParseError at the first bad line or chunk, or for a
    missing key; a chunk's column is worked out only then."""
    fields: dict[str, object] = {}
    chunks: dict[str, object] = {}
    parse_value = None
    for key, value, lineno, col in _key_value_lines(body):
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
        elif key == "provenance":
            fields["provenance"] = _parse_inline_matrix(value, lineno, col)
        else:
            rows = [row.split(",") for row in (value.split(";") if key == "s_tilde" else [value])]
            for chunk in dict.fromkeys(itertools.chain(*rows)):
                if chunk in chunks:
                    continue
                token = chunk.strip()
                chunks[chunk] = _root_of(token)
                if chunks[chunk] is None:
                    if parse_value is None:
                        from .cyclo import parse_value
                    try:
                        chunks[chunk] = parse_value(token)
                    except ValueError as exc:
                        column = _column(value, col, token, key)
                        raise ParseError(str(exc), lineno, column) from None
            fields[key] = rows if key == "s_tilde" else rows[0]
    for required in ("rank", "s_tilde", "twists"):
        if required not in fields:
            raise ParseError(f"missing required key {required!r}")
    return fields, chunks


def _column(value: str, col: int, token: str, key: str) -> int:
    """The column of the first chunk of an s_tilde or twists value that
    strips to token."""
    rows = _split_tracking(value, ";", col) if key == "s_tilde" else [(value, col)]
    return next(chunk_col for row, row_col in rows
                for chunk, chunk_col in _split_tracking(row, ",", row_col) if chunk == token)


def _root_of(token: str) -> tuple[int, int] | None:
    """(a, b) with token the text e(a/b) as serialize writes it: 1, -1, or
    e(a/b) with 0 <= a < b <= MAX_CONDUCTOR and gcd(a, b) = 1; else None."""
    if token == "1":
        return 0, 1
    if token == "-1":
        return 1, 2
    a, _, b = token[2:-1].partition("/")
    try:
        a, b = int(a), int(b)
    except ValueError:
        return None
    if token == f"e({a}/{b})" and 0 <= a < b <= MAX_CONDUCTOR and gcd(a, b) == 1:
        return a, b
    return None


def _from_values(fields: dict, chunks: dict, gram: "GramMatrix | None") -> "ModularData":
    """The data of a document as Cyclotomic values: the value of each chunk
    that is no root token, and parse_value of each that is."""
    from .cyclo import parse_value
    from .moddata import ModularData

    values = {chunk: parse_value(chunk.strip()) if isinstance(x, tuple) else x
              for chunk, x in chunks.items()}
    return ModularData(
        rank=fields["rank"],
        s_tilde=tuple(tuple(map(values.__getitem__, row)) for row in fields["s_tilde"]),
        twists=tuple(map(values.__getitem__, fields["twists"])),
        provenance=gram,
        label_names=fields.get("labels"),
    )
