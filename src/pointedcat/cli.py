"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors, and
141 (128 + SIGPIPE, as a shell reports it) when the reader closes stdout early.
All output is deterministic; two runs on the same inputs are byte-identical.
A CLI job (entry) flushes stdout and stderr and ends with os._exit, with no
interpreter teardown, so atexit handlers of site, sitecustomize or coverage
tools do not run in it; in-process callers use main, which returns the code.

Every job runs in a fresh interpreter and compiles each module it imports,
so this module holds only the option table (COMMANDS), the dispatch and one
small handler per command, which imports the rest on first use; usage holds
the help and usage text, and show the text of show. construct writes the
document of a lattice's exponent table (serialization, lattice). verify,
fusion, link and show read a document (serialization, moddata, and lattice
for provenance); link adds links. Pointed data stays an integer exponent
table, so pointed verify and link, and fusion by a group law, load no cyclo;
show prints D^2 and p+- through cyclo, and generic data is read as values.
enumerate loads enumeration and lattice, and no document module.
"""

from __future__ import annotations

import os
import sys

from .errors import MAX_CANONICAL_RANK, PointedCatError, quoted

EXIT_CLOSED_STDOUT = 141


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise PointedCatError(f"cannot read {path}: {exc}") from None


def _load_modular_data(path: str):
    from .serialization import Document, parse

    return parse(Document("modular_data", _read(path)))


def _cmd_construct(b: str, out: str | None) -> int:
    from .lattice import discriminant_group, pairing_exponents, table_tokens
    from .serialization import data_document, parse_gram_text

    gram = parse_gram_text(_read(b))
    table = pairing_exponents(gram, discriminant_group(gram))
    doc = data_document(len(table[2]), *table_tokens(*table), gram)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(doc.body)
        except OSError as exc:
            raise PointedCatError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(doc.body)
    return 0


def _cmd_verify(data: str) -> int:
    from .moddata import verify_all
    from .serialization import serialize

    report = verify_all(_load_modular_data(data))
    sys.stdout.write(serialize(report).body)
    return 0 if report.passed else 1


def _cmd_fusion(data: str, i: int, j: int) -> int:
    from .moddata import fusion_probabilities, verlinde_fusion

    md = _load_modular_data(data)
    if not (0 <= i < md.rank and 0 <= j < md.rank):
        raise PointedCatError(f"labels must lie in [0, {md.rank})")
    ft = None if md._law is not None else verlinde_fusion(md)  # a group law reads no ft
    for label, probability in fusion_probabilities(md, ft, i, j):
        if probability != 1:  # 1 prints as 1, with no cyclo (a group law's one outcome)
            from .cyclo import format_rational

            probability = format_rational(probability)
        sys.stdout.write(f"{label} {probability}\n")
    return 0


def _cmd_link(data: str, linking: str, colors: str) -> int:
    from .lattice import value_token
    from .links import framed_link, link_exponent
    from .serialization import parse_int_matrix_text

    md = _load_modular_data(data)
    matrix = parse_int_matrix_text(_read(linking))
    try:
        labels = [int(tok) for tok in colors.split(",")]
    except ValueError:
        raise PointedCatError(f"bad color list {quoted(colors)}") from None
    sys.stdout.write(value_token(*link_exponent(md, framed_link(matrix, labels))) + "\n")
    return 0


def _cmd_enumerate(max_dim: int, max_entry: int, max_rank: int) -> int:
    from .enumeration import corpus_report

    sys.stdout.write(corpus_report(max_dim, max_entry, max_rank))
    return 0


def _cmd_show(data: str, approx: bool) -> int:
    from .show import show

    show(_load_modular_data(data), approx)
    return 0


# command: (handler, summary, options); option: (name, type, required, default,
# metavar, help). type is int or str, or bool for a flag that takes no value.
# The handler takes each option as a keyword, with "-" in its name read as "_".
COMMANDS = {
    "construct": (_cmd_construct, "build modular data from a Gram matrix file", (
        ("b", str, True, None, "FILE", "Gram matrix file"),
        ("out", str, False, None, "FILE", "write the data document here"),
    )),
    "verify": (_cmd_verify, "verify all defining identities exactly", (
        ("data", str, True, None, "FILE", "modular data document"),
    )),
    "fusion": (_cmd_fusion, "fusion outcomes and probabilities for a label pair", (
        ("data", str, True, None, "FILE", "modular data document"),
        ("i", int, True, None, "N", "first label"),
        ("j", int, True, None, "N", "second label"),
    )),
    "link": (_cmd_link, "colored framed-link invariant", (
        ("data", str, True, None, "FILE", "modular data document"),
        ("linking", str, True, None, "FILE",
         "symmetric linking matrix, framings on the diagonal"),
        ("colors", str, True, None, "LIST", "comma-separated label per component, e.g. 1,1"),
    )),
    "enumerate": (_cmd_enumerate, "generate a corpus and classify by rank", (
        ("max-dim", int, True, None, "N", "largest Gram matrix dimension"),
        ("max-entry", int, True, None, "N", "bound on |entry|"),
        ("max-rank", int, False, MAX_CANONICAL_RANK, "N",
         f"cap on |det B| (default {MAX_CANONICAL_RANK}, the relabeling bound)"),
    )),
    "show": (_cmd_show, "pretty-print a data document", (
        ("data", str, True, None, "FILE", "modular data document"),
        ("approx", bool, False, False, "", "append floating approximations (display only)"),
    )),
}

_HELP = ("-h", "--help")


class _UsageError(Exception):
    pass


def _parse_options(command: str, argv: list[str]) -> dict | None:
    """The handler's keyword arguments, or None after printing help."""
    options = {name: (kind, required, default)
               for name, kind, required, default, _, _ in COMMANDS[command][2]}
    values = {}
    tokens = iter(argv)
    for token in tokens:
        if token in _HELP:
            from .usage import help_text

            sys.stdout.write(help_text(COMMANDS, command))
            return None
        name, has_value, value = token[2:].partition("=")
        if not token.startswith("--") or name not in options:
            raise _UsageError(f"unrecognized argument {quoted(token)}")
        kind = options[name][0]
        if kind is bool:
            if has_value:
                raise _UsageError(f"--{name} takes no value")
            values[name] = True
            continue
        if not has_value:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise _UsageError(f"--{name} expects a value")
        try:
            values[name] = kind(value)
        except ValueError:
            raise _UsageError(f"--{name}: invalid {kind.__name__} value {quoted(value)}") from None
    missing = [f"--{name}" for name, (_, required, _) in options.items()
               if required and name not in values]
    if missing:
        raise _UsageError("missing required option " + ", ".join(missing))
    return {name.replace("-", "_"): values.get(name, default)
            for name, (_, _, default) in options.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    try:
        if command in _HELP:
            from .usage import help_text

            sys.stdout.write(help_text(COMMANDS, None))
            return 0
        if command not in COMMANDS:
            raise _UsageError("no command given" if command is None
                              else f"unknown command {quoted(command)}")
        kwargs = _parse_options(command, argv[1:])
    except _UsageError as exc:
        from .usage import usage

        sys.stderr.write(f"{usage(COMMANDS, command)}error: {exc}\n")
        return 2
    if kwargs is None:
        return 0
    try:
        return COMMANDS[command][0](**kwargs)
    except (PointedCatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def __getattr__(name):
    # bench/traced.py wraps cli.verify_all; the name resolves to moddata's on
    # first use, so that importing this module loads no moddata
    if name == "verify_all":
        from .moddata import verify_all

        return verify_all
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): end quietly
        code = EXIT_CLOSED_STDOUT
    sys.stderr.flush()
    # The output is complete, and nothing registers an atexit handler or holds
    # an open file, so the interpreter's teardown would only cost time. An
    # exception main does not catch never gets here: it leaves with its traceback.
    os._exit(code)


if __name__ == "__main__":
    entry()
