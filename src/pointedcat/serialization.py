"""Bit-exact document serialization.

Three document kinds are supported:

* ``gram_matrix`` - plain text, one row per line, space-separated integers;
  blank lines and lines starting with ``#`` are ignored. (No ``kind:`` header,
  so matrix files stay hand-editable.)
* ``modular_data`` - ``key: value`` lines with a ``kind:`` header. Matrix
  values use ``,`` between entries and ``;`` between rows; cyclotomic values
  use the ``e(a/b)`` grammar from the cyclo module.
* ``report`` - output only: ``kind:`` header plus one ``check:`` line per
  verified relation and a closing ``result:`` line.

Serialization is deterministic (fixed key order, canonical value text), so
repeated runs produce byte-identical documents. Derived quantities are never
stored: a data file carries only the Hopf-link matrix, twists and optional
provenance, and everything else is recomputed on load.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import cyclo
from .errors import ParseError, PointedCatError, ValidationError
from .lattice import GramMatrix, check_gram, discriminant_group, format_gram, pairing_exponents
from .moddata import LatticeProvenance, ModularData, RelationReport
from .record import record

_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_+-")


@record
class Document:
    kind: str
    body: str


# -- serialization -----------------------------------------------------------

def serialize(value) -> Document:
    """Deterministic document for any in-scope value."""
    if isinstance(value, GramMatrix):
        body = "\n".join(" ".join(str(x) for x in row) for row in value.entries) + "\n"
        return Document("gram_matrix", body)
    if isinstance(value, ModularData):
        lines = ["kind: modular_data", f"rank: {value.rank}"]
        if value.label_names is not None:
            lines.append("labels: " + ", ".join(value.label_names))
        lines.append("s_tilde: " + "; ".join(
            ", ".join(cyclo.format_value(x) for x in row) for row in value.s_tilde
        ))
        lines.append("twists: " + ", ".join(cyclo.format_root(t) for t in value.twists))
        if value.provenance is not None:
            lines.append("provenance: " + format_gram(value.provenance.gram))
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
    """Exact inverse of serialize on matrix and data documents.

    Raises ParseError or ValidationError.
    """
    if doc.kind == "gram_matrix":
        return parse_gram_text(doc.body)
    if doc.kind == "modular_data":
        return _parse_modular_data(doc.body)
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
            raise ParseError(f"unknown key {key!r}", lineno, 1)
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


def _parse_value_at(text: str, lineno: int, col: int):
    try:
        return cyclo.parse_value(text)
    except ValueError as exc:
        raise ParseError(str(exc), lineno, col) from None


def _parse_value_matrix(value: str, lineno: int, col: int):
    rows = []
    for row_text, row_col in _split_tracking(value, ";", col):
        row = [
            _parse_value_at(chunk, lineno, chunk_col)
            for chunk, chunk_col in _split_tracking(row_text, ",", row_col)
        ]
        rows.append(tuple(row))
    return tuple(rows)


def _parse_inline_matrix(value: str, lineno: int, col: int):
    rows = []
    for row_text, row_col in _split_tracking(value, ";", col):
        try:
            rows.append(tuple(int(tok) for tok in row_text.split()))
        except ValueError:
            raise ParseError("expected space-separated integers", lineno, row_col) from None
    return tuple(rows)


def _parse_modular_data(body: str) -> ModularData:
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
                    raise ParseError(f"bad label name {name!r}", lineno, col)
            fields["labels"] = names
        elif key == "s_tilde":
            fields["s_tilde"] = _parse_value_matrix(value, lineno, col)
        elif key == "twists":
            fields["twists"] = tuple(
                _parse_value_at(chunk, lineno, chunk_col)
                for chunk, chunk_col in _split_tracking(value, ",", col)
            )
        elif key == "provenance":
            fields["provenance"] = _parse_inline_matrix(value, lineno, col)
    for required in ("rank", "s_tilde", "twists"):
        if required not in fields:
            raise ParseError(f"missing required key {required!r}")
    # every check computes at the lcm of all conductors
    values = itertools.chain(*fields["s_tilde"], fields["twists"])
    cyclo.check_conductor(x.conductor for x in values)
    provenance = None
    if "provenance" in fields:
        try:
            gram = check_gram(fields["provenance"])
        except (PointedCatError, ValueError) as exc:
            raise ValidationError(f"invalid provenance matrix: {exc}") from None
        provenance = LatticeProvenance(gram, discriminant_group(gram))
    md = ModularData(
        rank=fields["rank"],
        s_tilde=fields["s_tilde"],
        twists=fields["twists"],
        provenance=provenance,
        label_names=fields.get("labels"),
    )
    if provenance is None:
        return md
    # The rank, the twists and S~ must be those the provenance lattice implies.
    group = provenance.group
    if group.order != md.rank:
        raise ValidationError(f"provenance has |det B| = {group.order}, but rank is {md.rank}")
    n, s, t = pairing_exponents(provenance.gram, group)
    for i, (twist, k) in enumerate(zip(md.twists, t)):
        if not _is_root(twist, k, 2 * n):
            implied = cyclo.root_of_unity(Fraction(k, 2 * n))
            raise ValidationError(f"twist {i} is {cyclo.format_root(twist)}, "
                                  f"but provenance gives {cyclo.format_root(implied)}")
    # S~ is symmetric (checked by ModularData), so the first bad entry in
    # row-major order lies on or above the diagonal.
    for i, (row, implied_row) in enumerate(zip(md.s_tilde, s)):
        for j in range(i, md.rank):
            if not _is_root(row[j], implied_row[j], n):
                implied = cyclo.root_of_unity(Fraction(implied_row[j], n))
                raise ValidationError(f"s_tilde ({i},{j}) is {cyclo.format_value(row[j])}, "
                                      f"but provenance gives {cyclo.format_value(implied)}")
    return md


def _is_root(value: cyclo.Cyclotomic, k: int, n: int) -> bool:
    """value == e(k/n), for 0 <= k < n, without building e(k/n)."""
    q = value.root_exponent()
    return q is not None and q.numerator * n == k * q.denominator
