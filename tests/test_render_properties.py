"""render_json writes exactly the text of json.dumps(indent=2,
ensure_ascii=False) plus a newline, on random report-shaped values. The
listing reports (coupling, pairs, bases), written row by row from masks,
equal that text and csv.writer's for the report objects that
tests/oracles.py builds, on random families whose labels JSON escapes, at
any number of rows per piece."""

import json
from enum import IntEnum
from unittest import mock

import pytest

import curvatroid as cv
from curvatroid import fileio
from curvatroid.fileio import render_json
from oracles import (bases_report, escaped_label_specs, fraction_coupling_report,
                     listing_text, pairs_report)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# labels and rationals, plus quotes, backslashes, control characters and
# non-ASCII text, which the string quoter must escape or pass through
texts = st.text(st.one_of(st.characters(),
                          st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€😀 ')),
                max_size=8)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), texts)
values = st.recursive(
    scalars | st.lists(texts),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(texts, inner, max_size=5)),
    max_leaves=20)


class Level(IntEnum):
    LOW = 1


class Label(str):
    """A str subclass: rendered as the string it holds, key or value."""


def reference(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(values)
@hypothesis.example({"ok": True, "count": 1, "flags": [True, 1, False, 0, None]})
@hypothesis.example({"yes": True, "no": False, "zero": 0, "neg": -3, "big": 2**80,
                     "items": [False, True, 0, -1, 10**30, None]})
@hypothesis.example({"level": Level.LOW, "levels": [Level.LOW, 2],
                     Label("key"): Label("value"), "labels": [Label("a"), "b"]})
@hypothesis.example({"empty": {}, "none": [], "nested": [[], {}, [[]], {"a": {}}]})
@hypothesis.example([[], [{}], {"a": [[], {}], "b": {"c": []}}, ((),)])
@hypothesis.example({"S": ["a", "b\"c", "d\\e", "\x01", "é"], "": ""})
def test_render_json_matches_json_dumps(obj):
    assert render_json(obj) == reference(obj)


def test_render_json_rejects_what_json_cannot_write():
    with pytest.raises(TypeError):
        render_json({"x": object()})
    with pytest.raises(TypeError):
        render_json({1: "non-string key"})


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(escaped_label_specs(), st.integers(1, 4), st.data())
def test_listing_text_matches_the_oracle_routes(spec, chunk_rows, data):
    m = cv.build_matroid(spec)
    pairs = cv.canonical_pairs(m)
    with mock.patch.object(fileio, "CHUNK_ROWS", chunk_rows):
        for fmt in ("json", "csv"):
            assert "".join(fileio.bases_text(m, fmt)) == \
                listing_text("bases", bases_report(m), fmt), (spec, fmt)
            assert "".join(fileio.pairs_text(m, pairs, fmt)) == \
                listing_text("pairs", pairs_report(m), fmt), (spec, fmt)
        if not pairs or not cv.validate_exchange_axiom(m).ok:
            return
        x, y = data.draw(st.sampled_from(pairs))
        frame = cv.PairFrame(*((y, x) if data.draw(st.booleans()) else (x, y)))
        table = cv.downstep_coupling_table(m, frame)
        for with_decimal in (False, True):
            want = fraction_coupling_report(m, frame, with_decimal)[0]
            for fmt in ("json", "csv"):
                assert "".join(fileio.coupling_text(m, table, fmt, with_decimal)) == \
                    listing_text("coupling", want, fmt), (spec, fmt, with_decimal)
