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
    canonical_pairs,
    compute_pair_report,
    downstep_coupling_table,
    global_curvature,
    make_pair_frame,
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
def _parser() -> argparse.ArgumentParser:
    """The parser, built at the first main() call and reused by later calls
    in the same process: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="curvatroid",
        description="Exact curvature of the basis exchange walk on a matroid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            p.add_argument("--input", required=True,
                           help="description file path, or named:KEY for a built-in")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")
        p.add_argument("--decimal", action="store_true",
                       help="append 6-significant-digit decimal approximations")

    p = sub.add_parser("validate", help="check the basis exchange axiom")
    common(p)

    p = sub.add_parser("bases", help="list all bases in canonical order")
    common(p)

    p = sub.add_parser("pairs", help="list all adjacent basis pairs")
    common(p)

    p = sub.add_parser("curvature", help="global curvature report")
    common(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="solve optimal transport for every adjacent pair")
    mode.add_argument("--bounds-only", action="store_true",
                      help="closed-form bounds only, no transport (default)")
    p.add_argument("--all-pairs", action="store_true",
                   help="audit: also minimize 1 - W/d over non-adjacent pairs "
                        "(implies --exact)")

    p = sub.add_parser("pair", help="full report for one adjacent pair")
    common(p)
    p.add_argument("--s", required=True, metavar="LABELS",
                   help="first basis, comma-separated element labels")
    p.add_argument("--t", required=True, metavar="LABELS",
                   help="second basis, comma-separated element labels")

    p = sub.add_parser("coupling", help="down-step coupling table for one pair")
    common(p)
    p.add_argument("--s", required=True, metavar="LABELS")
    p.add_argument("--t", required=True, metavar="LABELS")

    p = sub.add_parser("catalog", help="list built-in matroids")
    common(p, with_input=False)

    return parser


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


def _pair_frame_from_args(m: Matroid, args: argparse.Namespace):
    s = _basis_argument(m, args.s, "s")
    t = _basis_argument(m, args.t, "t")
    try:
        return make_pair_frame(m, s, t)
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
        frame = _pair_frame_from_args(m, args)
        report = compute_pair_report(m, frame.s_basis, frame.t_basis)
        return pair_report_to_obj(m, report, with_decimal=args.decimal), 0

    if args.command == "coupling":
        frame = _pair_frame_from_args(m, args)
        table = downstep_coupling_table(m, frame)
        return coupling_table_to_obj(m, table, with_decimal=args.decimal), 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "all_pairs", False) and getattr(args, "bounds_only", False):
        parser.error("--all-pairs needs exact values; drop --bounds-only")
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
