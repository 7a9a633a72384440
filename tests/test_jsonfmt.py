import json
import math
from collections import OrderedDict
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from conftest import expand_records, reference_dumps, run_cli
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torus_spectra import cli, coeffs_to_json, enumerate_shell, jsonfmt, random_coeffs


def outcome(dumps, obj, pretty):
    """The rendered text, or the type and message of the exception raised."""
    try:
        return dumps(obj, pretty)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_parity(obj):
    for pretty in (True, False):
        assert outcome(jsonfmt.dumps, obj, pretty) == outcome(reference_dumps, obj, pretty)


@pytest.mark.parametrize(
    "argv",
    [
        ["shell", "--dim", "3", "--lambda", "41"],
        ["spectrum", "--dim", "5", "--lambda", "5", "--random", "gaussian", "--seed", "7"],
        ["spectrum", "--dim", "3", "--lambda", "9", "--random", "sparse:4", "--seed", "1"],
        ["spectrum", "--dim", "2", "--lambda", "25", "--coeffs", "{file}", "--p", "2"],
        ["lemma", "--dim", "3", "--lambda", "9", "--extra-points", "1"],
        ["lemma", "--dim", "4", "--lambda", "12", "--mode", "sampled", "--count", "4000",
         "--seed", "0"],
        ["extremize", "--dim", "5", "--lambda", "5", "--restarts", "2", "--iters", "200",
         "--seed", "3"],
        ["extremize", "--dim", "3", "--lambda", "9", "--restarts", "2", "--iters", "50"],
        ["spectrum", "--dim", "4", "--lambda", "12", "--random", "sparse:1", "--seed", "5"],
    ],
)
def test_cli_objects_render_as_the_reference_writer(argv, tmp_path, monkeypatch):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(coeffs_to_json(random_coeffs(enumerate_shell(2, 25), seed=3))))
    argv = [str(path) if a == "{file}" else a for a in argv]
    emitted = []
    dumps = jsonfmt.dumps

    def capture(obj, pretty=True):
        emitted.append(obj)
        return dumps(obj, pretty)

    monkeypatch.setattr(cli.jsonfmt, "dumps", capture)
    for layout in ([], ["--json"]):
        emitted.clear()
        code, out, err = run_cli(argv + layout)
        assert code in (0, 1), err
        (obj,) = emitted
        if argv[0] == "spectrum":
            assert isinstance(obj["entries"], jsonfmt.Records)
        expanded = expand_records(obj)
        assert out == reference_dumps(expanded, pretty=not layout) + "\n"
        for pretty in (True, False):
            assert dumps(obj, pretty) == reference_dumps(expanded, pretty)
        if argv[0] == "extremize":
            for pretty in (True, False):
                assert dumps(obj["coeffs"], pretty) == reference_dumps(obj["coeffs"], pretty)
    if argv[:3] == ["lemma", "--dim", "4"]:
        assert obj["violations"]  # a budget excess is rendered too
    if "sparse:1" in argv:
        assert len(expanded["entries"]) == 1  # a single point has the single tau 0



@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3], [4, 5, 6]],
        [[-7, 0], [2**70, -(2**70)]],
        [[1, 2], [3]],  # ragged
        [[1, 2], [3, 4, 5]],
        [[1, True], [0, 1]],  # bools
        [[False], [1]],
        [[np.int64(1), 2], [3, 4]],  # numpy ints
        [[np.int32(-5)], [np.uint8(7)]],
        [[], []],  # empty inner lists
        [[], [1]],
        [[1], []],
        [[1.0, 2], [3, 4]],
        [[1, 2], (3, 4)],
        [[[1]], [[2]]],
        [[1, "2"], [3, 4]],
    ],
)
def test_integer_rows_render_as_the_reference_writer(rows):
    """Lists of equal-width exact-int lists take one row template; every other list does not."""
    for obj in (rows, tuple(rows), {"points": rows}, [rows, rows]):
        assert_parity(obj)


class Label(str):
    """A user str subclass: it renders as the string it holds."""


str_subclasses = st.one_of(st.text().map(Label), st.text().map(np.str_))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    st.text(),
    st.sampled_from(["", '"', "\\", "\n\t\x00\x1f", "é", " ", "😀", "\ud800"]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    str_subclasses,
)
keys = st.one_of(st.text(), st.sampled_from(["tau", "re", "im", '"q"', "\\", "\x7f", "ü"]),
                 str_subclasses)


def containers(children):
    return st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(st.integers()),
        st.dictionaries(keys, children),
        st.dictionaries(keys, children).map(lambda d: OrderedDict(reversed(d.items()))),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(scalars, containers, max_leaves=40))
@example({Label("k"): [Label('a"\n'), np.str_("é")], np.str_("q"): Label("")})
def test_nested_values_render_as_the_reference_writer(obj):
    for pretty in (True, False):
        assert jsonfmt.dumps(obj, pretty) == reference_dumps(obj, pretty)


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.one_of(scalars, st.sampled_from([math.nan, -math.inf, np.float64(math.inf), np.bool_(True),
                                        {1, 2}, Decimal(1), 1j, Fraction(1, 3)])),
    lambda children: st.one_of(
        containers(children),
        st.dictionaries(st.one_of(keys, st.integers(), st.none()), children),
    ),
    max_leaves=20,
))
def test_errors_and_fallback_values_match_the_reference_writer(obj):
    assert_parity(obj)


@pytest.mark.parametrize(
    "obj,exc",
    [
        (math.nan, ValueError),
        (math.inf, ValueError),
        ({"x": [1.0, -math.inf]}, ValueError),
        (np.float32("nan"), ValueError),
        ({1: "a"}, TypeError),
        ({"a": 1, None: 2}, TypeError),
        (np.bool_(False), TypeError),
        ({1, 2}, TypeError),
        ([1, {"s": set()}], TypeError),
        (1 + 2j, TypeError),
    ],
)
def test_error_parity(obj, exc):
    for pretty in (True, False):
        with pytest.raises(exc):
            jsonfmt.dumps(obj, pretty)
    assert_parity(obj)


floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.tuples(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=dim, max_size=dim),
              floats, floats),
    max_size=6,
).map(lambda rows: jsonfmt.Records(("tau", "re", "x"), (
    np.array([r[0] for r in rows], dtype=np.int64).reshape(-1, dim),
    np.array([r[1] for r in rows]),
    np.array([r[2] for r in rows]),
)))))
def test_records_render_as_their_rows_as_dicts(rec):
    for obj in (rec, {"entries": rec, "n": [1, {"x": rec}]}):
        for pretty in (True, False):
            assert outcome(jsonfmt.dumps, obj, pretty) == \
                outcome(reference_dumps, expand_records(obj), pretty)


@pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 0), (3, 0)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_column_raises_as_the_reference_writer(pos, bad):
    # the first non-finite value in row order is reported: re[3] loses to im[1]
    taus = np.arange(12, dtype=np.int64).reshape(4, 3)
    re = np.linspace(-1, 1, 4)
    im = np.linspace(2, 3, 4)
    im[1] = -math.inf
    (re, im)[pos[1]][pos[0]] = bad
    rec = jsonfmt.Records(("tau", "re", "im"), (taus, re, im))
    for pretty in (True, False):
        got = outcome(jsonfmt.dumps, {"entries": rec}, pretty)
        assert got[0] is ValueError
        assert got == outcome(reference_dumps, {"entries": expand_records(rec)}, pretty)


@pytest.mark.parametrize("columns", [
    (np.zeros((2, 0), np.int64),),
    (np.zeros(2, np.int64),),
    (np.zeros((2, 2)),),
    (np.zeros(2, np.complex128),),
    (np.array(["a", "b"]),),
])
def test_records_refuse_other_columns(columns):
    with pytest.raises(TypeError):
        jsonfmt.dumps(jsonfmt.Records(("c",), columns))


def test_records_validate_their_shape():
    with pytest.raises(ValueError):
        jsonfmt.Records(("a", "b"), (np.zeros(2),))
    with pytest.raises(ValueError):
        jsonfmt.Records(("a", "b"), (np.zeros(2), np.zeros(3)))
    assert jsonfmt.dumps(jsonfmt.Records(("a",), (np.zeros(0),))) == "[]"
    assert jsonfmt.dumps(jsonfmt.Records(('%d"', "%%"), (np.ones(1), np.zeros((1, 1), int))),
                         pretty=False) == '[{"%d\\"":1,"%%":[0]}]'
