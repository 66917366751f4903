"""The ``records`` emission against the encoding it replaced.

``emit(report, "records")`` builds each flow and install line straight from
the record's fields.  Line for line it must equal ``json.dumps`` of
``dataclasses.asdict`` with sorted keys (``helpers.asdict_line``), on every
golden case, on the benchmark workloads at seeds 1 to 3 and on drawn
records of every field type: text with any character a JSON string escapes,
ints of any size and sign, both bools, empty and long tuples.  A field value
whose type is not its field's declared type is an error, never turned into
text, even where ``json.dumps`` would encode it.
"""

from dataclasses import fields, replace
from ipaddress import IPv4Address
from typing import get_type_hints

import pytest
from helpers import asdict_line
from hypothesis import given, settings, strategies as st
from test_golden import CASES, _run
from test_workloads import SEEDS, WORKLOADS, run_workload

from sdnsec.metrics import FlowRecord, InstallRecord, MetricsReport, emit

RUNS = [*CASES, *(f"workload:{name}@{seed}" for name in sorted(WORKLOADS) for seed in SEEDS)]


def _report(case: str):
    if case.startswith("workload:"):
        name, _, seed = case.removeprefix("workload:").partition("@")
        return run_workload(name, int(seed))[0]
    return _run(case)[1]


@pytest.mark.parametrize("case", RUNS)
def test_records_lines_equal_the_asdict_encoding(case):
    report = _report(case)
    _, *lines = emit(report, "records").splitlines()
    expected = [asdict_line(record) for record in (*report.flows, *report.installs)]
    assert len(lines) == len(expected)
    for index, (line, want) in enumerate(zip(lines, expected)):
        assert line == want, f"line {index + 1}"


def test_a_field_json_cannot_encode_is_an_error():
    report = _run("minimal/reactive")[1]
    report.flows[0].dst = IPv4Address("10.0.0.2")
    with pytest.raises(TypeError):
        emit(report, "records")


# what a JSON string escapes or passes through: quotes, backslashes, control
# characters, DEL, non-ASCII text, astral characters and lone surrogates
TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\x80\xe9\u2028\u20ac\ud800\udbff\udc00\udfff\U0001f600'),
        st.characters(codec=None, exclude_categories=()),
    ),
    max_size=8,
)
FIELD_VALUES = {
    str: TEXT,
    int: st.one_of(st.integers(-(2**16), 2**16), st.integers(-(10**60), 10**60)),
    bool: st.booleans(),
    # a long tuple draws from a few texts, which keeps the draw cheap
    tuple[str, ...]: st.one_of(
        st.just(()),
        st.lists(TEXT, max_size=4).map(tuple),
        st.lists(st.sampled_from(["AS1", "SW2", '"\\\u00e9\x01']), min_size=30, max_size=60).map(tuple),
    ),
}


def _records(record_class):
    declared = get_type_hints(record_class)
    return st.builds(record_class, **{f.name: FIELD_VALUES[declared[f.name]] for f in fields(record_class)})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(flow=_records(FlowRecord), install=_records(InstallRecord))
def test_drawn_records_lines_equal_the_asdict_encoding(flow, install):
    report = MetricsReport("drawn", "reactive", True, flows=[flow], installs=[install])
    _, *lines = emit(report, "records").splitlines()
    assert lines == [asdict_line(flow), asdict_line(install)]


# a str field given an IPv4Address is test_a_field_json_cannot_encode_is_an_error
@pytest.mark.parametrize(
    ("name", "value"),
    [
        ("index", "5"),
        ("index", 1.5),
        ("index", True),
        ("from_flood", 1),
        ("as_path", ["AS1"]),
        ("as_path", ("AS1", 2)),
    ],
    ids=["int-str", "int-float", "int-bool", "bool-int", "tuple-list", "tuple-int-element"],
)
def test_a_value_not_of_its_fields_declared_type_is_an_error(name, value):
    report = _run("minimal/reactive")[1]
    report.flows[0] = replace(report.flows[0], **{name: value})
    with pytest.raises(TypeError):
        emit(report, "records")


def test_a_record_of_another_class_is_an_error():
    report = _run("minimal/reactive")[1]
    report.flows.append(report.installs[0])
    with pytest.raises(TypeError):
        emit(report, "records")
