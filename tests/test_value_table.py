"""A document read with one value table gives what reading each of its
policies alone gives.

The reader keeps one value table per document, shared by every domain of a
scenario.  The compact reader looks up each raw field text in the table for
its compact position and converts a text it has not seen once; the
repository reader does the same per (column, field text).  One
``EndpointSelector`` per distinct set of selector fields is shared among
the whole document's expressions, across domains.  These tests read whole
documents (the bundled scenarios, the benchmark workloads at each seed and
random repositories whose texts repeat) and compare every expression with a
read of it alone.  A bad text enters no table, so it raises at each of its
occurrences with the message a read of it alone gives.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_pe
from sdnsec.formats import (
    COMPACT_COLUMNS,
    PolicyParseError,
    format_compact_pe,
    parse_compact_pe,
    parse_record,
    parse_repository,
    serialize_repository,
)
from sdnsec.labels import parse_label_constraint
from sdnsec.policy import Action, EndpointSelector
from sdnsec.scenario import bundled_scenario_path, list_bundled_scenarios, parse_scenario
from test_workloads import SEEDS, WORKLOADS


def _read(item, table=None):
    """One scenario policy, read as the scenario reader reads it."""
    if isinstance(item, str):
        return parse_compact_pe(item, pe_id="", table=table)
    return parse_record(item, "record", table=table)


def _assert_selectors_shared(pes) -> None:
    """Equal selectors of one document are one object."""
    selectors = [selector for pe in pes for selector in (pe.source, pe.dest)]
    assert len({id(selector) for selector in selectors}) == len(set(selectors))


def _assert_document_reads_as_its_policies_alone(document) -> None:
    parsed = parse_scenario(document)
    assert len(parsed.domains) == len(document["domains"])
    for raw, domain in zip(document["domains"], parsed.domains):
        assert list(domain.policies) == [_read(item) for item in raw.get("policies", [])]
    # one table for the whole document: equal selectors are one object,
    # whichever domains hold them
    pes = [pe for domain in parsed.domains for pe in domain.policies]
    _assert_selectors_shared(pes)
    # a second read into the same table converts nothing again
    items = [item for raw in document["domains"] for item in raw.get("policies", [])]
    table: dict = {}
    once = [_read(item, table) for item in items]
    again = [_read(item, table) for item in items]
    assert again == once == pes
    assert all(a.source is b.source and a.dest is b.dest for a, b in zip(once, again))


@pytest.mark.parametrize("name", list_bundled_scenarios())
def test_bundled_scenario_reads_as_its_policies_alone(name):
    _assert_document_reads_as_its_policies_alone(json.loads(bundled_scenario_path(name).read_text()))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_reads_as_its_policies_alone(name, seed):
    document, _ = WORKLOADS[name](seed)
    _assert_document_reads_as_its_policies_alone(json.loads(json.dumps(document, sort_keys=True)))


def test_a_selector_written_three_ways_is_one_object():
    # one source selector as a domain descriptor in both element orders and
    # as a record's columns, in one document
    document = json.loads(bundled_scenario_path("minimal").read_text())
    items = [
        "p1 = <*, (AS1, SL2), *, *, *, *, *, *, *, *, *, *, *>:<Allow>",
        "p2 = <*, (SL2, AS1), *, *, *, *, *, *, *, *, *, *, *>:<Deny>",
        {"id": "p3", "srcasid": "AS1", "srcastrulabel": "SL2", "action": "allow"},
    ]
    document["domains"][0]["policies"] = items
    pes = parse_scenario(document).domains[0].policies
    assert len({id(pe.source) for pe in pes}) == 1
    assert pes[0].source == EndpointSelector(as_id="AS1", label_req=parse_label_constraint("SL2"))
    assert list(pes) == [_read(item) for item in items]


# (compact position, text) of a field no reader accepts; the last two fail
# in the expression's own checks, after every column converted
BAD_FIELDS = (
    (3, "10.0.0.300"),
    (10, "(70000)"),
    (8, "(SL0)"),
    (7, "(u1, u2)"),
    (12, "(SW1; SW1)"),
    (11, "(bogus)"),
)


def _bad_compact(position: int, text: str) -> str:
    fields = ["*"] * len(COMPACT_COLUMNS)
    fields[position] = text
    return f"bad = <{', '.join(fields)}>:<Allow>"


@st.composite
def _documents(draw):
    """Random expressions drawn from small token pools, so field texts
    repeat, and maybe one bad field at two indices."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pes = [random_pe(rng, f"p{index}", rng.choice(tuple(Action))) for index in range(draw(st.integers(1, 24)))]
    bad = draw(st.none() | st.sampled_from(BAD_FIELDS))
    if bad is None:
        return pes, bad, ()
    first = draw(st.integers(0, len(pes)))
    return pes, bad, (first, draw(st.integers(first + 1, len(pes) + 1)))


def _read_each(read, items) -> list:
    """Each item read in turn with one shared table (``read(item, index,
    table)``): its expression, or its error's message."""
    table: dict = {}
    results = []
    for index, item in enumerate(items):
        try:
            results.append(read(item, index, table))
        except PolicyParseError as exc:
            results.append(str(exc))
    return results


def _read_compact(text, index, table):
    return parse_compact_pe(text, table=table)


def _read_record(record, index, table):
    return parse_record(record, f"record {index}", table=table)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_documents())
def test_a_shared_table_reads_as_no_table(drawn):
    pes, bad, at = drawn
    texts = [format_compact_pe(pe) for pe in pes]
    records = json.loads(serialize_repository(pes))
    for index in at:
        texts.insert(index, _bad_compact(*bad))
        records.insert(index, {"id": "bad", "action": "allow", COMPACT_COLUMNS[bad[0]]: bad[1]})
    for read, items in ((_read_compact, texts), (_read_record, records)):
        shared = _read_each(read, items)
        alone = _read_each(lambda item, index, _table: read(item, index, None), items)
        assert shared == alone
        assert [index for index, result in enumerate(shared) if isinstance(result, str)] == list(at)
        assert [result for result in shared if not isinstance(result, str)] == pes
    if at:
        with pytest.raises(PolicyParseError) as raised:
            parse_repository(records)
        assert str(raised.value) == alone[at[0]]
    else:
        _assert_selectors_shared(parse_repository(records))
