"""The ``records`` emission against the encoding it replaced.

``emit(report, "records")`` builds each flow and install line straight from
the record's fields.  Line for line it must equal ``json.dumps`` of
``dataclasses.asdict`` with sorted keys (``helpers.asdict_line``), on every
golden case and on the benchmark workloads at seeds 1 to 3.  A field value
that JSON cannot encode is an error, never turned into text.
"""

from ipaddress import IPv4Address

import pytest
from helpers import asdict_line
from test_golden import CASES, _run
from test_workloads import SEEDS, WORKLOADS, run_workload

from sdnsec.metrics import emit

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
