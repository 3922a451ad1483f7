"""Tests for report objects and their file serializations."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cotrig.experiments import exp_lemma_3111
from cotrig.reports import (Assertion, ConstantReading, ExperimentReport,
                            _unknown_type, canonical_json, write_csv,
                            write_json, write_plot_data, write_report_files)


def _sanitize(obj):
    """Make an object JSON-safe: Fractions to strings, non-finite floats
    to strings, tuples to lists, numpy scalars to Python ones; any other
    type is a TypeError, not its str()."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):
        return _sanitize(obj.item())
    raise _unknown_type(obj)


def small_report():
    return ExperimentReport(
        experiment="toy",
        seed=7,
        parameters={"n": (2, 4), "b": Fraction(1, 3)},
        grid=[{"n": 2, "error": 0.5}, {"n": 4, "error": 0.125, "extra": 1}],
        constants=[ConstantReading("c0", 2.0, "sup ratio")],
        assertions=[Assertion("halves", True, "0.125 <= 0.5")],
        plots=[("n", "error")],
        runtime_s=1.25,
    )


def test_assertion_and_reading_dicts():
    a = Assertion("bound", False, "1.2 > 1.0")
    assert a.to_dict() == {"name": "bound", "passed": False, "detail": "1.2 > 1.0"}
    c = ConstantReading("c3", 0.25, "ratio of sups")
    assert c.to_dict() == {"name": "c3", "value": 0.25, "mode": "empirical",
                           "formula": "ratio of sups"}


def test_report_pass_state():
    rep = small_report()
    assert rep.passed
    rep.assertions.append(Assertion("fails", False))
    assert not rep.passed
    lines = rep.summary_lines()
    assert lines[0].startswith("experiment toy: FAIL")
    assert any("[FAIL] fails" in ln for ln in lines)
    assert "  constant c0 = 2 [empirical] sup ratio" in lines


def test_fingerprint_ignores_runtime():
    one, two = small_report(), small_report()
    two.runtime_s = 99.0
    assert one.fingerprint() == two.fingerprint()
    assert len(one.fingerprint()) == 16
    two.seed = 8
    assert one.fingerprint() != two.fingerprint()


def test_sanitize_through_canonical_json():
    doc = json.loads(canonical_json({
        "frac": Fraction(1, 3),
        "inf": float("inf"),
        "nan": float("nan"),
        "tup": (1, 2),
        "npfloat": np.float64(0.5),
        "npint": np.int64(3),
        "none": None,
    }))
    assert doc["frac"] == "1/3"
    assert doc["inf"] == "inf"
    assert doc["nan"] == "nan"
    assert doc["tup"] == [1, 2]
    assert doc["npfloat"] == 0.5
    assert doc["npint"] == 3
    assert doc["none"] is None
    # a type it does not know fails instead of landing as its str()
    with pytest.raises(TypeError, match="of type object as JSON"):
        canonical_json({"unknown": object()})


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_LEAVES = st.one_of(
    st.text(), st.integers(), st.booleans(), st.none(), _FLOATS,
    st.fractions(), _FLOATS.map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_))


@given(st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple),
    # integer keys as well: 1 and "1" name one JSON key, the later value's
    st.dictionaries(st.one_of(st.text(), st.integers()), inner))))
@example({1: "int", "1": "str", "t": (np.float64("-inf"), Fraction(-1, 3))})
def test_canonical_json_is_json_dumps_of_the_sanitized_form(obj):
    # one pass writes what json's indenting encoder writes, character for
    # character, for every type a report holds
    assert canonical_json(obj) == json.dumps(_sanitize(obj), sort_keys=True,
                                             indent=2)


def test_write_json_canonical(tmp_path):
    path = str(tmp_path / "sub" / "doc.json")
    write_json(path, {"b": 1, "a": 2})
    text = open(path).read()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2, "b": 1}


def test_write_csv_union_header(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, [{"n": 2, "err": 0.5}, {"n": 4, "err": 0.25, "theta": 1.0},
                     {"n": 8, "b": Fraction(1, 2)}])
    lines = open(path).read().splitlines()
    assert lines[0] == "n,err,theta,b"
    assert lines[1] == "2,0.5,,"
    assert lines[3] == "8,,,1/2"


def test_write_plot_data(tmp_path):
    path = str(tmp_path / "p.dat")
    write_plot_data(path, [1, 2], [0.5, 0.25])
    assert open(path).read() == "1 0.5\n2 0.25\n"


def odd_cells_report():
    rep = small_report()
    rep.grid.append({"n": np.int64(8), "error": np.float64(0.5),
                     "extra": Fraction(1, 3), "inf": float("inf"),
                     "nan": float("nan"), "flag": np.bool_(True)})
    return rep


@pytest.mark.parametrize("make", [
    small_report, odd_cells_report,
    lambda: exp_lemma_3111(3, 0.5, trials=40, seed=1),
], ids=["small", "odd-cells", "lemma-3111"])
def test_report_json_is_the_canonical_report(tmp_path, make):
    # report.json encodes each value once, and its fingerprint hashes the
    # content's entries joined: the same text as encoding the whole dict;
    # the table, written from the grid as it is, is the sanitized grid's
    rep = make()
    write_report_files(rep, str(tmp_path / "run"))
    text = (tmp_path / "run" / "report.json").read_text()
    assert text == canonical_json(rep.to_dict()) + "\n"
    assert json.loads(text)["fingerprint"] == rep.fingerprint()
    table = tmp_path / "run" / "tables" / f"{rep.experiment}.csv"
    write_csv(str(tmp_path / "sanitized.csv"), _sanitize(rep.grid))
    assert table.read_bytes() == (tmp_path / "sanitized.csv").read_bytes()


def test_an_unwritable_cell_writes_nothing(tmp_path):
    # report.json is encoded before any file is opened
    rep = small_report()
    rep.grid.append({"n": 8, "error": object()})
    with pytest.raises(TypeError, match="of type object as JSON"):
        write_report_files(rep, str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_write_report_files(tmp_path):
    rep = small_report()
    paths = write_report_files(rep, str(tmp_path))
    assert paths["report"].endswith("report.json")
    doc = json.loads(open(paths["report"]).read())
    assert doc["experiment"] == "toy"
    assert doc["parameters"]["b"] == "1/3"
    assert doc["fingerprint"] == rep.fingerprint()
    table = open(paths["table"]).read().splitlines()
    assert table[0].startswith("n,")
    dat = paths["toy_error_vs_n.dat"]
    xs, ys = np.loadtxt(dat, unpack=True)
    assert xs.tolist() == [2.0, 4.0]
    assert math.isclose(ys[1], 0.125)
