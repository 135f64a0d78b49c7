"""Command-line interface.

Subcommands: validate, bases, pairs, curvature, pair, coupling, catalog.
Reports print to standard output as JSON (default) or CSV; diagnostics go to
standard error. Exit status is 0 on success, 1 on a validation or build
failure, 2 on a parse error (bad file, bad flag, unknown catalog name).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .curvature import (
    PairFrame,
    canonical_pairs,
    compute_pair_report,
    downstep_coupling_table,
    global_curvature,
)
from .errors import (
    CurvatroidError,
    InvalidBasisArgument,
    NotAdjacent,
    ParseError,
    UnknownElement,
)
from .fileio import (
    bases_to_obj,
    catalog_to_obj,
    coupling_table_to_obj,
    global_report_to_obj,
    load_input,
    pair_report_to_obj,
    pairs_to_obj,
    render_csv,
    render_json,
    report_to_csv_rows,
    validation_to_obj,
)
from .matroid import Mask, Matroid, validate_exchange_axiom


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name, built at
    the first main() call and reused by later calls in the same process:
    parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="curvatroid",
        description="Exact curvature of the basis exchange walk on a matroid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def command(name: str, help: str, with_input: bool = True,
                rationals: bool = False) -> argparse.ArgumentParser:
        p = commands[name] = sub.add_parser(name, help=help)
        if with_input:
            p.add_argument("--input", required=True,
                           help="description file path, or named:KEY for a built-in")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")
        if rationals:
            p.add_argument("--decimal", action="store_true",
                           help="append 6-significant-digit decimal approximations")
        return p

    command("validate", "check the basis exchange axiom")
    command("bases", "list all bases in canonical order")
    command("pairs", "list all adjacent basis pairs")

    p = command("curvature", "global curvature report "
                             "(closed-form bounds only by default)", rationals=True)
    p.add_argument("--exact", action="store_true",
                   help="solve optimal transport for every adjacent pair")
    p.add_argument("--all-pairs", action="store_true",
                   help="audit: also minimize 1 - W/d over non-adjacent pairs "
                        "(implies --exact)")

    p = command("pair", "full report for one adjacent pair", rationals=True)
    p.add_argument("--s", required=True, metavar="LABELS",
                   help="first basis, comma-separated element labels")
    p.add_argument("--t", required=True, metavar="LABELS",
                   help="second basis, comma-separated element labels")

    p = command("coupling", "down-step coupling table for one pair", rationals=True)
    p.add_argument("--s", required=True, metavar="LABELS")
    p.add_argument("--t", required=True, metavar="LABELS")

    command("catalog", "list built-in matroids", with_input=False)

    return parser, commands


def _basis_argument(m: Matroid, text: str, flag: str) -> Mask:
    labels = [part.strip() for part in text.split(",") if part.strip()]
    if not labels:
        raise InvalidBasisArgument(f"--{flag} needs comma-separated element labels")
    try:
        mask = m.mask_from_labels(labels)
    except UnknownElement as e:
        raise InvalidBasisArgument(f"--{flag}: {e}") from None
    if mask not in m.bases:
        raise InvalidBasisArgument(f"--{flag}: {{{', '.join(labels)}}} is not a basis")
    return mask


def _pair_frame_from_args(m: Matroid, args: argparse.Namespace) -> PairFrame:
    s = _basis_argument(m, args.s, "s")
    t = _basis_argument(m, args.t, "t")
    try:
        return PairFrame(s, t)
    except NotAdjacent:
        raise InvalidBasisArgument(
            "--s and --t must differ by exactly one exchange") from None


def _run(args: argparse.Namespace) -> tuple[dict, int]:
    if args.command == "catalog":
        return catalog_to_obj(), 0

    m = load_input(args.input)

    if args.command == "validate":
        result = validate_exchange_axiom(m)
        return validation_to_obj(m, result), 0 if result.ok else 1

    if args.command == "bases":
        return bases_to_obj(m), 0

    if args.command == "pairs":
        return pairs_to_obj(m, canonical_pairs(m)), 0

    if args.command == "curvature":
        exact = args.exact or args.all_pairs
        report = global_curvature(m, exact=exact, audit_all_pairs=args.all_pairs)
        return global_report_to_obj(m, report, with_decimal=args.decimal), 0

    if args.command == "pair":
        report = compute_pair_report(m, _pair_frame_from_args(m, args))
        return pair_report_to_obj(m, report, with_decimal=args.decimal), 0

    if args.command == "coupling":
        frame = _pair_frame_from_args(m, args)
        table = downstep_coupling_table(m, frame)
        return coupling_table_to_obj(m, table, with_decimal=args.decimal), 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _parse(argv: list[str]) -> argparse.Namespace:
    """One argparse pass: a known command's own parser reads the rest of
    argv, so an unknown flag is reported with that command's usage. The
    top-level parser handles everything else: no argv, an unknown command,
    -h and --help."""
    parser, commands = _parsers()
    own = commands.get(argv[0]) if argv else None
    if own is None:
        return parser.parse_args(argv)
    return own.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        obj, code = _run(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CurvatroidError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.format == "csv":
        sys.stdout.write(render_csv(report_to_csv_rows(args.command, obj)))
    else:
        sys.stdout.write(render_json(obj))
    return code


if __name__ == "__main__":
    sys.exit(main())
