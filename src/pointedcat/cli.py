"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors.
All output is deterministic; two runs on the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import sys

from . import cyclo
from .errors import MAX_CANONICAL_RANK, PointedCatError
from .lattice import format_gram
from .moddata import (
    ModularData,
    colored_link_invariant,
    framed_link,
    from_lattice,
    fusion_probabilities,
    gauss_data,
    quantum_dimensions,
    verify_all,
    verlinde_fusion,
)
from .serialization import (
    Document,
    parse,
    parse_gram_text,
    parse_int_matrix_text,
    serialize,
)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise PointedCatError(f"cannot read {path}: {exc}") from None


def _load_modular_data(path: str) -> ModularData:
    return parse(Document("modular_data", _read(path)))


def _cmd_construct(args) -> int:
    gram = parse_gram_text(_read(args.b))
    doc = serialize(from_lattice(gram))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(doc.body)
    else:
        sys.stdout.write(doc.body)
    return 0


def _cmd_verify(args) -> int:
    md = _load_modular_data(args.data)
    report = verify_all(md)
    sys.stdout.write(serialize(report).body)
    return 0 if report.passed else 1


def _cmd_fusion(args) -> int:
    md = _load_modular_data(args.data)
    if not (0 <= args.i < md.rank and 0 <= args.j < md.rank):
        raise PointedCatError(f"labels must lie in [0, {md.rank})")
    ft = verlinde_fusion(md)
    for label, probability in fusion_probabilities(md, ft, args.i, args.j):
        sys.stdout.write(f"{label} {cyclo.format_rational(probability)}\n")
    return 0


def _cmd_link(args) -> int:
    md = _load_modular_data(args.data)
    linking = parse_int_matrix_text(_read(args.linking))
    try:
        colors = [int(tok) for tok in args.colors.split(",")]
    except ValueError:
        raise PointedCatError(f"bad color list {args.colors!r}") from None
    value = colored_link_invariant(md, framed_link(linking, colors))
    sys.stdout.write(cyclo.format_value(value) + "\n")
    return 0


def _cmd_enumerate(args) -> int:
    # imported here, so that no other command compiles it
    from .enumeration import CorpusSpec, classify, format_classification, generate_gram_matrices

    cap = args.max_rank if args.max_rank is not None else MAX_CANONICAL_RANK
    spec = CorpusSpec(max_dim=args.max_dim, max_entry=args.max_entry, max_rank=cap)
    if cap > MAX_CANONICAL_RANK:
        raise PointedCatError(f"rank cap {cap} exceeds the relabeling bound {MAX_CANONICAL_RANK}")
    corpus = generate_gram_matrices(spec)
    result = classify(corpus)
    sys.stdout.write(f"corpus: {len(corpus)} matrices\n")
    sys.stdout.write(format_classification(result))
    return 0


def _cmd_show(args) -> int:
    md = _load_modular_data(args.data)

    def render(x) -> str:
        text = cyclo.format_value(x)
        if args.approx:
            re, im = x.approx_complex()
            return f"{text} ({re:+.6f}{im:+.6f}j)"
        return text

    sys.stdout.write(f"rank: {md.rank}\n")
    if md.label_names is not None:
        sys.stdout.write("labels: " + ", ".join(md.label_names) + "\n")
    dims = ", ".join(render(d) for d in quantum_dimensions(md))
    sys.stdout.write(f"quantum dimensions: {dims}\n")
    gauss = gauss_data(md)
    sys.stdout.write(f"D^2: {render(gauss.d_squared)}\n")
    sys.stdout.write(f"p+: {render(gauss.p_plus)}\n")
    sys.stdout.write(f"p-: {render(gauss.p_minus)}\n")
    sys.stdout.write("twists: " + ", ".join(render(t) for t in md.twists) + "\n")
    sys.stdout.write("s_tilde:\n")
    for row in md.s_tilde:
        sys.stdout.write("  " + ", ".join(render(x) for x in row) + "\n")
    if md.provenance is not None:
        sys.stdout.write(f"built from: [{format_gram(md.provenance.gram)}]\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointedcat",
        description="Construct and exactly verify pointed modular data from even lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build modular data from a Gram matrix file")
    p.add_argument("--b", required=True, metavar="FILE", help="Gram matrix file")
    p.add_argument("--out", metavar="FILE", help="write the data document here")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify all defining identities exactly")
    p.add_argument("--data", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fusion", help="fusion outcomes and probabilities for a label pair")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--i", required=True, type=int, metavar="N")
    p.add_argument("--j", required=True, type=int, metavar="N")
    p.set_defaults(func=_cmd_fusion)

    p = sub.add_parser("link", help="colored framed-link invariant")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--linking", required=True, metavar="FILE",
                   help="symmetric linking matrix, framings on the diagonal")
    p.add_argument("--colors", required=True, metavar="LIST",
                   help="comma-separated label per component, e.g. 1,1")
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("enumerate", help="generate a corpus and classify by rank")
    p.add_argument("--max-dim", required=True, type=int, metavar="N")
    p.add_argument("--max-entry", required=True, type=int, metavar="N")
    p.add_argument("--max-rank", type=int, metavar="N",
                   help=f"cap on |det B| (default {MAX_CANONICAL_RANK}, the relabeling bound)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("show", help="pretty-print a data document")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--approx", action="store_true",
                   help="append floating approximations (display only)")
    p.set_defaults(func=_cmd_show)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PointedCatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
