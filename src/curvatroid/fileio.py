"""Matroid description files and report serialization.

Input is a small JSON format with five construction types (uniform, graphic,
linear, explicit, named). Reports go out as JSON objects or CSV tables; every
rational is rendered as a "p/q" string so values survive round trips exactly.
An optional decimal mode appends 6-significant-digit approximations for
human readers, clearly marked as approximate.

The pair, curvature, validate and catalog reports are built as objects
(*_to_obj) and rendered whole (render_json, render_csv). The listing reports,
coupling, pairs and bases, grow with the family: they are written as text in
pieces of CHUNK_ROWS rows straight from the library's integer records
(coupling_text, pairs_text, bases_text), with no dict or label list per row.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Any

from . import __version__
from .catalog import CATALOG_NAMES, build_named
from .curvature import (
    DownstepCoupling,
    DropWitness,
    GlobalReport,
    PairFrame,
    PairReport,
)
from .errors import BadRational, ParseError, UnknownType, ValidationResult
from .matroid import (
    ExplicitSpec,
    GraphicSpec,
    LinearSpec,
    Mask,
    Matroid,
    MatroidSpec,
    NamedSpec,
    UniformSpec,
    build_matroid,
)
from .walk import exchange_distance

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")  # not \d: it takes any Unicode digit
_CSV_SPECIAL = re.compile('[,"\r\n]')


# ── rationals ───────────────────────────────────────────────────────────────


def parse_rational(value: Any) -> Fraction:
    """Exact rational from a "p" or "p/q" string (plain ints also accepted)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise BadRational(f"expected a rational string, got {value!r}")
    text = value.strip()
    if not _RATIONAL_RE.fullmatch(text):
        raise BadRational(f"not a p/q rational: {value!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise BadRational(f"zero denominator: {value!r}") from None
    except ValueError:  # past the interpreter's integer digit limit
        raise BadRational(f"rational of {len(text)} characters is too long") from None


def approx_decimal(x: Fraction) -> str:
    """6-significant-digit decimal rendering (approximate, display only)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 6
        return str(decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator))


# ── description files ───────────────────────────────────────────────────────


def _field(obj: dict, key: str, kind: type, where: str) -> Any:
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ParseError(f"{where}: field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _label(value: Any, where: str) -> str:
    # labels are strings; bare ints are accepted and read as their decimal form
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise ParseError(f"{where}: label must be a string, got {value!r}")


def _element_label(value: Any, where: str) -> str:
    # nonempty, no comma, no whitespace: it reads back from a --s/--t list and
    # a space-joined CSV cell; a basis member must be one of these to build
    label = _label(value, where)
    if "," in label or label.split() != [label]:
        raise ParseError(f"{where}: label {label!r} is empty or has a comma or whitespace")
    return label


def parse_matroid_obj(obj: Any) -> MatroidSpec:
    """Decode one already-parsed JSON object into a construction spec."""
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")
    if "type" not in obj:
        raise ParseError("missing field 'type'")
    kind = obj["type"]

    if kind == "uniform":
        return UniformSpec(n=_field(obj, "n", int, "uniform"),
                           k=_field(obj, "k", int, "uniform"))

    if kind == "graphic":
        vertices = _field(obj, "vertices", int, "graphic")
        raw = _field(obj, "edges", list, "graphic")
        edges = []
        for i, e in enumerate(raw):
            where = f"graphic edge {i}"
            if not isinstance(e, list) or len(e) != 3:
                raise ParseError(f"{where}: expected [u, v, label]")
            a, b, lab = e
            if isinstance(a, bool) or isinstance(b, bool) \
                    or not isinstance(a, int) or not isinstance(b, int):
                raise ParseError(f"{where}: endpoints must be integers")
            edges.append((a, b, _element_label(lab, where)))
        return GraphicSpec(vertex_count=vertices, edges=tuple(edges))

    if kind == "linear":
        raw = _field(obj, "matrix", list, "linear")
        matrix = []
        for i, row in enumerate(raw):
            if not isinstance(row, list):
                raise ParseError(f"linear row {i}: expected a list")
            matrix.append(tuple(parse_rational(x) for x in row))
        labels = None
        if "labels" in obj:
            labels = tuple(_element_label(x, "linear labels")
                           for x in _field(obj, "labels", list, "linear"))
        return LinearSpec(matrix=tuple(matrix), labels=labels)

    if kind == "explicit":
        ground = tuple(_element_label(x, "explicit ground")
                       for x in _field(obj, "ground", list, "explicit"))
        raw = _field(obj, "bases", list, "explicit")
        bases = []
        for i, b in enumerate(raw):
            if not isinstance(b, list):
                raise ParseError(f"explicit basis {i}: expected a list")
            bases.append(tuple(_label(x, f"explicit basis {i}") for x in b))
        return ExplicitSpec(ground=ground, bases=tuple(bases))

    if kind == "named":
        return NamedSpec(name=_field(obj, "name", str, "named"))

    raise UnknownType(f"unknown matroid type {kind!r}")


def parse_matroid_file(path: str) -> MatroidSpec:
    """Read and decode a matroid description file."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not valid UTF-8") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} line {e.lineno}: {e.msg}") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ParseError(f"{path}: a number is too long to read") from None
    except RecursionError:  # arrays or objects nested past the recursion limit
        raise ParseError(f"{path}: nesting is too deep to read") from None
    return parse_matroid_obj(obj)


def load_input(source: str) -> Matroid:
    """Build from "named:KEY" or from a description file path."""
    if source.startswith("named:"):
        return build_named(source[len("named:"):])
    return build_matroid(parse_matroid_file(source))


# ── report objects ──────────────────────────────────────────────────────────


def _meta(m: Matroid) -> dict:
    return {"version": __version__, "origin": m.origin,
            "originHash": m.origin_hash()}


def _labels(m: Matroid, mask: Mask) -> list[str]:
    return list(m.labels_of(mask))


def frame_to_obj(m: Matroid, frame: PairFrame) -> dict:
    return {
        "S": _labels(m, frame.s_basis),
        "T": _labels(m, frame.t_basis),
        "s": m.labels[frame.s_elem],
        "t": m.labels[frame.t_elem],
        "shared": [m.labels[u] for u in frame.shared],
    }


def witness_to_obj(m: Matroid, witness: tuple[DropWitness, ...]) -> dict:
    return {
        "J": [m.labels[e.drop] for e in witness],
        "entries": [
            {
                "u": m.labels[e.drop],
                "sizeNS": e.ns_size,
                "sizeNT": e.nt_size,
                "sizeCap": e.overlap_size,
                "A": _labels(m, e.s_only_adds),
            }
            for e in witness
        ],
    }


def _put_rational(obj: dict, key: str, value: Fraction | None,
                  with_decimal: bool) -> None:
    obj[key] = None if value is None else str(value)  # "p/q", or "p" for integers
    if with_decimal and value is not None:
        obj[key + "Approx"] = approx_decimal(value)


def pair_report_to_obj(m: Matroid, report: PairReport,
                       with_decimal: bool = False) -> dict:
    obj = _meta(m)
    obj["frame"] = frame_to_obj(m, report.frame)
    obj["witness"] = witness_to_obj(m, report.witness)
    _put_rational(obj, "exactKappa", report.kappa_exact, with_decimal)
    _put_rational(obj, "downstepLB", report.downstep_lb, with_decimal)
    _put_rational(obj, "theoremUB_forward", report.ub_forward, with_decimal)
    _put_rational(obj, "theoremUB_reverse", report.ub_reverse, with_decimal)
    _put_rational(obj, "theoremUB", report.theorem_ub, with_decimal)
    _put_rational(obj, "couplingExpectedDistance",
                  report.coupling_expected_distance, with_decimal)
    if with_decimal:
        obj["decimalsAreApproximate"] = True
    return obj


def global_report_to_obj(m: Matroid, report: GlobalReport,
                         with_decimal: bool = False) -> dict:
    obj = _meta(m)
    _put_rational(obj, "kappaExact", report.kappa_exact, with_decimal)
    if report.argmin_pair is None:
        obj["argminPair"] = None
    else:
        x, y = report.argmin_pair
        obj["argminPair"] = {"S": _labels(m, x), "T": _labels(m, y)}
    _put_rational(obj, "theoremLBGlobal", report.theorem_lb, with_decimal)
    _put_rational(obj, "downstepLBGlobal", report.downstep_lb, with_decimal)
    _put_rational(obj, "theoremUBGlobal", report.theorem_ub, with_decimal)
    obj["pairCount"] = report.pair_count
    obj["degenerate"] = report.degenerate
    obj["audited"] = report.audited
    if with_decimal:
        obj["decimalsAreApproximate"] = True
    return obj


def validation_to_obj(m: Matroid, result: ValidationResult) -> dict:
    obj = _meta(m)
    obj["ok"] = result.ok
    obj["detail"] = result.detail
    if result.witness:
        b1, b2, u = result.witness
        obj["witness"] = {"B1": _labels(m, b1), "B2": _labels(m, b2),
                          "dropped": m.labels[u]}
    else:
        obj["witness"] = None
    return obj


def catalog_to_obj() -> dict:
    entries = []
    for name in CATALOG_NAMES:
        m = build_named(name)
        entries.append({"name": name, "elements": m.n, "rank": m.rank,
                        "bases": len(m.bases)})
    return {"version": __version__, "catalog": entries}


# ── CSV renderings ──────────────────────────────────────────────────────────


def _join(labels: list[str]) -> str:
    return " ".join(labels)


def _kv_rows(obj: dict, keys: list[str]) -> list[list[str]]:
    rows = [["field", "value"]]
    for key in keys:
        value = obj.get(key)
        if value is None:
            rows.append([key, ""])
        elif isinstance(value, bool):
            rows.append([key, "true" if value else "false"])
        else:
            rows.append([key, str(value)])
        if f"{key}Approx" in obj:
            rows.append([f"{key}Approx", obj[f"{key}Approx"]])
    return rows


def report_to_csv_rows(command: str, obj: dict) -> list[list[str]]:
    """Tabular form of a report; same numbers as the JSON rendering."""
    if command == "validate":
        rows = _kv_rows(obj, ["ok", "detail", "version", "origin", "originHash"])
        if obj.get("witness"):
            w = obj["witness"]
            rows.append(["witness.B1", _join(w["B1"])])
            rows.append(["witness.B2", _join(w["B2"])])
            rows.append(["witness.dropped", w["dropped"]])
        return rows

    if command == "curvature":
        rows = _kv_rows(obj, ["kappaExact", "theoremLBGlobal", "downstepLBGlobal",
                              "theoremUBGlobal", "pairCount", "degenerate",
                              "audited", "version", "origin", "originHash"])
        if obj.get("argminPair"):
            rows.append(["argminPair.S", _join(obj["argminPair"]["S"])])
            rows.append(["argminPair.T", _join(obj["argminPair"]["T"])])
        return rows

    if command == "pair":
        rows = _kv_rows(obj, ["exactKappa", "downstepLB", "theoremUB_forward",
                              "theoremUB_reverse", "theoremUB",
                              "couplingExpectedDistance", "version", "origin",
                              "originHash"])
        f = obj["frame"]
        rows.append(["frame.S", _join(f["S"])])
        rows.append(["frame.T", _join(f["T"])])
        rows.append(["frame.s", f["s"]])
        rows.append(["frame.t", f["t"]])
        rows.append(["witness.J", _join(obj["witness"]["J"])])
        for e in obj["witness"]["entries"]:
            u = e["u"]
            rows.append([f"witness[{u}].sizeNS", str(e["sizeNS"])])
            rows.append([f"witness[{u}].sizeNT", str(e["sizeNT"])])
            rows.append([f"witness[{u}].sizeCap", str(e["sizeCap"])])
            rows.append([f"witness[{u}].A", _join(e["A"])])
        return rows

    if command == "catalog":
        rows = [["name", "elements", "rank", "bases"]]
        rows += [[e["name"], str(e["elements"]), str(e["rank"]), str(e["bases"])]
                 for e in obj["catalog"]]
        return rows

    raise ValueError(f"no CSV rendering for command {command!r}")


def render_csv(rows: list[list[str]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows(rows)
    return out.getvalue()


_quote = json.encoder.encode_basestring  # the C quoter when available


def _json_text(o: Any, newline: str) -> str:
    """o as indented JSON; newline is a line break plus the indentation of
    o's own line, and each level indents two more spaces.

    A value inside a dict or list is told apart by type() first, so a
    string or an int costs no recursive call. Anything else, a subclass
    such as an IntEnum member or a str subclass among it, recurses and is
    written as json.dumps writes it.
    """
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + "  "
        return ("{" + inner + ("," + inner).join([
            _quote(key) + ": " + (_quote(value) if (t := type(value)) is str
                                  else int.__repr__(value) if t is int
                                  else _json_text(value, inner))
            for key, value in o.items()]) + newline + "}")
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        return ("[" + inner + ("," + inner).join([
            _quote(item) if (t := type(item)) is str
            else int.__repr__(item) if t is int
            else _json_text(item, inner)
            for item in o]) + newline + "]")
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    return json.dumps(o)  # a float; json raises TypeError for anything else


def render_json(obj: Any) -> str:
    """The text of json.dumps(obj, indent=2, ensure_ascii=False) plus a
    newline, for report values: dicts with string keys, lists, tuples,
    strings, ints, bools and None (a non-string key raises TypeError).

    json.dumps with an indent runs its pure-Python encoder, one generator
    frame per nested value. This writes the same text with the C string
    quoter, each dict or list in one join, so a list of strings such as a
    basis's labels costs one quoting call per label.
    """
    return _json_text(obj, "\n") + "\n"


# ── listing reports ─────────────────────────────────────────────────────────
#
# One row per coupling cell, adjacent pair or basis, written as the text
# render_json or render_csv would write for the whole report. Each label is
# quoted once per report, and the text of each basis a report names more
# than once is built once (_Names).

CHUNK_ROWS = 2048  # rows per piece of a listing's text


class _Names(dict):
    """Basis mask -> its text, built at the first lookup: the words of its
    elements, lowest index first, joined by sep between the two ends. No
    basis is empty: a Matroid has rank at least 1."""

    def __init__(self, words: Sequence[str], sep: str = " ",
                 ends: tuple[str, str] = ("", "")):
        super().__init__()
        self.words, self.sep, self.ends = words, sep, ends

    def text(self, mask: Mask) -> str:
        words = self.words
        out = []
        while mask:  # the set bits, lowest first, as bits() yields them
            low = mask & -mask
            out.append(words[low.bit_length() - 1])
            mask ^= low
        return self.ends[0] + self.sep.join(out) + self.ends[1]

    def __missing__(self, mask: Mask) -> str:
        text = self[mask] = self.text(mask)
        return text


def _json_names(m: Matroid, newline: str) -> _Names:
    """Each basis as _json_text writes the list of its labels, the list's
    own line indented as newline; each label is quoted once."""
    inner = newline + "  "
    return _Names([_quote(label) for label in m.labels], "," + inner,
                  ("[" + inner, newline + "]"))


def _chunks(rows: Iterable) -> Iterator[list]:
    rows = iter(rows)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        yield chunk


def _json_listing(head: dict, key: str, rows: Iterable[str],
                  tail: dict) -> Iterator[str]:
    """render_json's text of head's fields, then the list under key, then
    tail's fields. Each row is the text of one list item, from the line
    break before it."""
    field = "\n  " + _quote(key) + ": "
    # a line break and two spaces open only the line of a top-level field
    before, _, after = _json_text({**head, key: [], **tail}, "\n").partition(field + "[]")
    chunks = _chunks(rows)
    first = next(chunks, None)
    if first is None:
        yield before + field + "[]" + after + "\n"
        return
    yield before + field + "[" + ",".join(first)
    for chunk in chunks:
        yield "," + ",".join(chunk)
    yield "\n  ]" + after + "\n"


def _csv_field(text: str) -> str:
    """text as csv.writer (the excel dialect) writes it as one field of a
    row of more than one. Only a comma, a quote or a line break can make
    csv quote a field, so any other text is the field as it is."""
    if not _CSV_SPECIAL.search(text):
        return text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((text, ""))
    return out.getvalue()[:-2]


class _CsvNames(_Names):
    """_Names of CSV fields: each basis its labels joined by spaces, in
    quotes with each quote doubled when csv quotes one of its labels. A
    space makes csv quote nothing, so the joined text needs quotes exactly
    when a label does. fields holds each label's own field."""

    def __init__(self, labels: Sequence[str]):
        super().__init__([label.replace('"', '""') for label in labels])
        self.fields = [_csv_field(label) for label in labels]
        self.quoted = sum(1 << e for e, label in enumerate(labels)
                          if self.fields[e] != label)

    def text(self, mask: Mask) -> str:
        text = super().text(mask)
        return '"' + text + '"' if mask & self.quoted else text


def _csv_listing(header: list[str], rows: Iterable[str]) -> Iterator[str]:
    """render_csv's text of the header and the rows, each row the text of
    one line whose fields are quoted already (_CsvNames)."""
    yield ",".join(header) + "\n"
    for chunk in _chunks(rows):
        yield "".join(chunk)


def _coupling_cells(table: DownstepCoupling, with_decimal: bool) -> Iterator[tuple]:
    """(drop from S, drop from T, add to S, add to T, X, Y, distance, mass,
    mass approximation or None) per cell. No Fraction per cell is built:
    each mass is the cell's weight over its drop's denominator reduced by
    one gcd (the text of str(Fraction)), and each distance is
    exchange_distance, a popcount."""
    for drop_s, drop_t, denominator, cells in table.drops:
        for add_s, add_t, x, y, w in cells:
            g = gcd(w, denominator)
            p, q = w // g, denominator // g
            yield (drop_s, drop_t, add_s, add_t, x, y, exchange_distance(x, y),
                   f"{p}/{q}" if q != 1 else str(p),
                   approx_decimal(Fraction(p, q)) if with_decimal else None)


def coupling_text(m: Matroid, table: DownstepCoupling, fmt: str,
                  with_decimal: bool = False) -> Iterator[str]:
    """The coupling report in fmt ("json" or "csv"), cell by cell from the
    table's integer weights. expectedDistance is the table's own integer
    sum."""
    labels = m.labels
    cells = _coupling_cells(table, with_decimal)
    if fmt == "csv":
        names = _CsvNames(labels)
        fields = names.fields
        header = ["dropS", "dropT", "addS", "addT", "x", "y", "mass", "distance"]
        if with_decimal:
            header.append("massApprox")
        return _csv_listing(header, (
            f"{fields[ds]},{fields[dt]},{fields[a_s]},{fields[a_t]},{names[x]},{names[y]},"
            f"{mass},{distance}" + ("\n" if approx is None else f",{approx}\n")
            for ds, dt, a_s, a_t, x, y, distance, mass, approx in cells))
    names = _json_names(m, "\n      ")
    quoted = names.words
    head = _meta(m)
    head["frame"] = frame_to_obj(m, table.frame)
    tail: dict = {}
    _put_rational(tail, "expectedDistance", table.expected_distance(), with_decimal)
    if with_decimal:
        tail["decimalsAreApproximate"] = True
    return _json_listing(head, "cells", (
        f'\n    {{\n      "dropS": {quoted[ds]},\n      "dropT": {quoted[dt]},'
        f'\n      "addS": {quoted[a_s]},\n      "addT": {quoted[a_t]},'
        f'\n      "x": {names[x]},\n      "y": {names[y]},'
        f'\n      "distance": {distance},\n      "mass": "{mass}"'
        + ("" if approx is None else f',\n      "massApprox": "{approx}"')
        + "\n    }"
        for ds, dt, a_s, a_t, x, y, distance, mass, approx in cells), tail)


def pairs_text(m: Matroid, pairs: list[tuple[Mask, Mask]], fmt: str) -> Iterator[str]:
    """The pairs report in fmt ("json" or "csv"), one row per (S, T)."""
    if fmt == "csv":
        names = _CsvNames(m.labels)
        return _csv_listing(["S", "T"], (f"{names[x]},{names[y]}\n" for x, y in pairs))
    names = _json_names(m, "\n      ")
    head = _meta(m)
    head["pairCount"] = len(pairs)
    return _json_listing(head, "pairs", (
        f'\n    {{\n      "S": {names[x]},\n      "T": {names[y]}\n    }}'
        for x, y in pairs), {})


def bases_text(m: Matroid, fmt: str) -> Iterator[str]:
    """The bases report in fmt ("json" or "csv"), in canonical order. Each
    basis is listed once, so its text is not kept."""
    bases = m.sorted_bases()
    if fmt == "csv":
        text = _CsvNames(m.labels).text
        return _csv_listing(["index", "elements"],
                            (f"{i},{text(b)}\n" for i, b in enumerate(bases)))
    text = _json_names(m, "\n    ").text
    head = _meta(m)
    head.update(n=m.n, rank=m.rank, count=len(bases))
    return _json_listing(head, "bases", ("\n    " + text(b) for b in bases), {})
