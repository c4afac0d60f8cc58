"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors, and
141 (128 + SIGPIPE, as a shell reports it) when the reader closes stdout early.
All output is deterministic; two runs on the same inputs are byte-identical.
A CLI job (entry) flushes stdout and stderr and ends with os._exit, with no
interpreter teardown, so atexit handlers of site, sitecustomize or coverage
tools do not run in it; in-process callers use main, which returns the code.

Every job runs in a fresh interpreter, so this module imports at start-up
only what every command needs: the options come from one table (COMMANDS),
and errors. Each handler imports the rest on first use: construct, verify,
fusion, link and show import moddata and serialization, which read and
write documents. Pointed data stays an integer exponent table through
construct, verify and link, which import lattice and no cyclo; show and
fusion print values, and generic data is read as values, so those import
cyclo, and lattice only for provenance. enumerate imports enumeration,
which runs on integer exponent tables and loads neither cyclo, moddata nor
serialization.
"""

from __future__ import annotations

import os
import sys

from .errors import MAX_CANONICAL_RANK, PointedCatError, ValidationError, quoted

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
    from .moddata import from_lattice
    from .serialization import parse_gram_text, serialize

    doc = serialize(from_lattice(parse_gram_text(_read(b))))
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
    from .cyclo import format_rational
    from .moddata import fusion_probabilities, verlinde_fusion

    md = _load_modular_data(data)
    if not (0 <= i < md.rank and 0 <= j < md.rank):
        raise PointedCatError(f"labels must lie in [0, {md.rank})")
    ft = verlinde_fusion(md)
    for label, probability in fusion_probabilities(md, ft, i, j):
        sys.stdout.write(f"{label} {format_rational(probability)}\n")
    return 0


def _cmd_link(data: str, linking: str, colors: str) -> int:
    from .lattice import value_token
    from .moddata import framed_link, link_exponent
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
    # imported here, so that no other command compiles it
    from .enumeration import CorpusSpec, classify, format_classification, generate_gram_matrices

    spec = CorpusSpec(max_dim=max_dim, max_entry=max_entry, max_rank=max_rank)
    if max_rank > MAX_CANONICAL_RANK:
        raise ValidationError(
            f"rank cap {max_rank} exceeds the relabeling bound {MAX_CANONICAL_RANK}")
    corpus = generate_gram_matrices(spec)
    result = classify(corpus)
    sys.stdout.write(f"corpus: {len(corpus)} matrices\n")
    sys.stdout.write(format_classification(result))
    return 0


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


def _cmd_show(data: str, approx: bool) -> int:
    from .cyclo import format_rows, format_value
    from .moddata import gauss_data, quantum_dimensions

    md = _load_modular_data(data)
    gauss = gauss_data(md)
    # each distinct object is formatted once, as parsed entries share them
    dims, (d_squared, p_plus, p_minus), twists, *s_tilde = format_rows(
        [quantum_dimensions(md), (gauss.d_squared, gauss.p_plus, gauss.p_minus), md.twists,
         *md.s_tilde], _approx if approx else format_value)
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
_USAGE = "usage: pointedcat COMMAND [OPTIONS]\n"


class _UsageError(Exception):
    pass


def _flag(name: str, kind: type, metavar: str) -> str:
    return f"--{name}" if kind is bool else f"--{name} {metavar}"


def _usage(command: str) -> str:
    parts = [_flag(name, kind, metavar) if required else f"[{_flag(name, kind, metavar)}]"
             for name, kind, required, _, metavar, _ in COMMANDS[command][2]]
    return f"usage: pointedcat {command} " + " ".join(parts) + "\n"


def _help(command: str | None) -> str:
    if command is None:
        return "".join([
            _USAGE, "\nConstruct and exactly verify pointed modular data from even lattices.\n",
            "\ncommands:\n", *(f"  {name:<10} {entry[1]}\n" for name, entry in COMMANDS.items()),
            "\nRun 'pointedcat COMMAND --help' for the options of one command.\n"])
    return "".join([
        _usage(command), f"\n{COMMANDS[command][1]}\n\noptions:\n",
        *(f"  {_flag(name, kind, metavar):<16} {text}\n"
          for name, kind, _, _, metavar, text in COMMANDS[command][2])])


def _parse_options(command: str, argv: list[str]) -> dict | None:
    """The handler's keyword arguments, or None after printing help."""
    options = {name: (kind, required, default)
               for name, kind, required, default, _, _ in COMMANDS[command][2]}
    values = {}
    tokens = iter(argv)
    for token in tokens:
        if token in _HELP:
            sys.stdout.write(_help(command))
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
            sys.stdout.write(_help(None))
            return 0
        if command not in COMMANDS:
            raise _UsageError("no command given" if command is None
                              else f"unknown command {quoted(command)}")
        kwargs = _parse_options(command, argv[1:])
    except _UsageError as exc:
        usage = _usage(command) if command in COMMANDS else _USAGE
        sys.stderr.write(f"{usage}error: {exc}\n")
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
