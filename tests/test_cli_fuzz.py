"""Fuzz of the CLI exit contract on random description files.

Every file, whether random bytes, a random JSON value, a random object
shaped like one of the five construction types or a well-formed explicit
family of k-sets, must make validate,
curvature and pair exit 0, 1 or 2, print at most one error line and never
a traceback. Values stay small, so a well-formed file builds in
milliseconds; huge inputs have their own cases in test_io_cli.py.

A file whose labels hold a comma or whitespace is refused at parse (exit
2); any other family prints an argmin pair that `pair` reads back.
"""

import contextlib
import io
import itertools
import json
import os
import tempfile

import pytest

from curvatroid.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COMMANDS = (["validate"], ["curvature"], ["pair", "--s", "a,b", "--t", "a,c"])

small_ints = st.integers(-2, 7)
labels = st.one_of(st.sampled_from("abcdef"), small_ints, st.none(), st.booleans())
label_lists = st.lists(labels, max_size=6)
rationals = st.one_of(small_ints, st.sampled_from(["1", "-1/2", "2/3", "1/0", "x", ""]),
                      st.none())
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), small_ints, st.text(max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=12)

constructions = st.one_of(
    st.fixed_dictionaries({"type": st.just("uniform"), "n": small_ints, "k": small_ints}),
    st.fixed_dictionaries({"type": st.just("graphic"), "vertices": small_ints,
                           "edges": st.lists(st.one_of(
                               st.tuples(small_ints, small_ints, labels).map(list),
                               json_values), max_size=6)}),
    st.fixed_dictionaries({"type": st.just("linear"),
                           "matrix": st.lists(st.lists(rationals, max_size=6), max_size=4)},
                          optional={"labels": label_lists}),
    st.fixed_dictionaries({"type": st.just("explicit"), "ground": label_lists,
                           "bases": st.lists(label_lists, max_size=8)}),
    st.fixed_dictionaries({"type": st.sampled_from(["named", "other", 3]),
                           "name": st.sampled_from(["fano", "k4", "nope", ""])}),
)

# well-formed explicit families of k-sets over a-f, matroids or not
families = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from("abcdef"), min_size=k, max_size=k, unique=True),
    min_size=1, max_size=10)).map(
    lambda bases: {"type": "explicit", "ground": list("abcdef"), "bases": bases})

files = st.one_of(
    st.binary(max_size=64),
    json_values.map(lambda v: json.dumps(v).encode()),
    constructions.map(lambda v: json.dumps(v).encode()),
    families.map(lambda v: json.dumps(v).encode()),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(files)
@hypothesis.example(b"[" * 200_000 + b"]" * 200_000)  # nested past the recursion limit
def test_cli_exit_contract_on_random_files(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(data)
        for command in COMMANDS:
            code, out, text = run([command[0], "--input", path, *command[1:]])
            assert code in (0, 1, 2), (command, data)
            assert "Traceback" not in out + text, (command, data)
            assert text.count("error:") <= 1 and text.count("\n") <= 1, (command, data)
            assert code or text == "", (command, data)
            hypothesis.event(f"{command[0]} exit {code}")


# uniform families U(k, n) whose last label may be one that contains a
# comma or whitespace, or is empty
AWKWARD_LABELS = [",", " ", "", "a,b", " a", "b c", "c\t", "\u00a0"]
labelled_uniform = st.tuples(
    st.lists(st.sampled_from("abcdefg7"), min_size=2, max_size=5, unique=True),
    st.one_of(st.none(), st.sampled_from(AWKWARD_LABELS)),
).flatmap(lambda drawn: st.tuples(
    st.just(drawn[0][:-1] + [drawn[0][-1] if drawn[1] is None else drawn[1]]),
    st.integers(1, len(drawn[0]) - 1)))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(labelled_uniform)
@hypothesis.example((["a,b", "c", "d"], 2))
def test_a_printed_argmin_names_its_pair_on_the_command_line(family):
    ground, k = family
    bases = [list(c) for c in itertools.combinations(ground, k)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"type": "explicit", "ground": ground, "bases": bases}, fh)
        code, out, err = run(["curvature", "--input", path, "--exact"])
        if code == 2:  # a label the command line cannot name is refused at parse
            assert err.startswith("error: explicit ground: label ") and out == "", err
            hypothesis.event("refused at parse")
            return
        assert code == 0, err
        report = json.loads(out)
        pair = report["argminPair"]
        code, out, err = run(["pair", "--input", path, "--s", ",".join(pair["S"]),
                              "--t", ",".join(pair["T"])])
        assert code == 0, err
        assert json.loads(out)["exactKappa"] == report["kappaExact"]
        hypothesis.event("round trip")
