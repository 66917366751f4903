"""The scenario reader's verdict on a deterministic corpus of broken documents.

Every bundled scenario and every benchmark workload document at seed 1 is
mutated one fault at a time, on the first object of each kind it holds: the
top level, ``capacity``, ``defense`` and ``costs``, a domain, a switch, a
host, a switch link, a domain link, the users map, a policy, a plain traffic
item and a flood.  For each field of that kind the corpus drops the field,
gives it each wrong JSON type, gives it out-of-range or malformed values,
and, where it names something, an undefined or repeated reference.  Each
object also gains one unknown field, then two (``zeta`` before ``alpha``: the
first in document order is the one reported).  A traffic item, a host and a
switch take every pair of wrong-typed fields, and every wrong-typed field
beside an unknown one, which pins which fault of two is reported.

Each mutation's result is ``path: message`` of its :class:`ScenarioError`,
``accepted`` when the document parses, or ``!Type: message`` for any other
exception.  ``golden/scenario_faults.json`` pins them.  After an intended
change to what the reader accepts or reports, regenerate it with::

    PYTHONPATH=src python tests/test_scenario_faults.py > tests/golden/scenario_faults.json
"""

import json
import sys
from copy import copy
from dataclasses import fields
from itertools import combinations
from pathlib import Path

import pytest

from sdnsec.controller import CostModel
from sdnsec.scenario import ScenarioError, bundled_scenario_path, list_bundled_scenarios, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "scenario_faults.json"
sys.path.insert(0, str(ROOT / "benchmarks"))

from workloads import WORKLOADS  # noqa: E402

NAMES = [*list_bundled_scenarios(), *(f"{name}@1" for name in sorted(WORKLOADS))]

# a wrong value of each other JSON type, per the JSON type a field takes
WRONG = {
    "str": [7, None],
    "int": ["7", True, 1.5],
    "num": ["7", True],
    "bool": [1, "yes"],
    "list": [{}, "x"],
    "obj": [[], 7],
}

# per object kind: field -> (JSON type, malformed or out-of-range values)
KINDS = {
    "top": {
        "name": ("str", [""]),
        "mode": ("str", ["batch", "Reactive"]),
        "enforcement": ("bool", []),
        "max_ttl": ("int", [0, -1]),
        "table_capacity": ("int", [0]),
        "costs": ("obj", [{}]),
        "capacity": ("obj", [{}]),
        "defense": ("obj", [{}, {"response": "throttle"}]),
        "domains": ("list", [[]]),
        "links": ("list", [[["AS1"]], [["AS1", "AS1"]], [["AS1", "AS99"]], [[1, 2]]]),
        "traffic": ("list", [[7], [[]]]),
    },
    "capacity": {
        "controller_rps": ("num", [0, -1.5, 2.5]),
        "switches_per_controller": ("int", [0]),
        "hosts_per_switch": ("int", [0]),
    },
    "defense": {
        "response": ("str", ["explode", "drop_rule", "none"]),
        "window_ticks": ("int", [0]),
    },
    "costs": {field.name: ("int", [-1, 0]) for field in fields(CostModel)},
    "domain": {
        "id": ("str", ["X1", "AS\n1", ""]),
        "subnet": ("str", ["10.0.0.0/33", "10.0.0.1/24", "nope", ""]),
        "type": ("str", [""]),
        "label": ("str", ["SL9", "high", ""]),
        "handle_key": ("str", [""]),
        "switches": ("list", [[], [7]]),
        "links": ("list", [[7], [["NOPE", "NOPE2"]]]),
        "hosts": ("list", [[7]]),
        "users": (
            "obj",
            [
                {"zz": "u"},
                {"00:00:00:00:00:01": 7},
                {"00:00:00:00:00:0a": "u", "00:00:00:00:00:0A": "v"},
                {"00-00-00-00-00-0b": "u"},
            ],
        ),
        "policies": ("list", [[7], ["<*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>"], ["x = <"], [{}]]),
    },
    "switch": {
        "id": ("str", ["AS5", "S\t1", ""]),
        "label": ("str", ["SL0", "x"]),
    },
    "host": {
        "id": ("str", ["h\n", ""]),
        "ip": ("str", ["10.0.0.256", "203.0.113.9", "", "1.2.3"]),
        "mac": ("str", ["zz", "", "00:00:00:00:00"]),
        "switch": ("str", ["NOPE", ""]),
    },
    "flow": {
        "at": ("int", [-1]),
        "from": ("str", ["nobody", ""]),
        "to": ("str", ["nobody", "10.0.0.300", ""]),
        "port": ("int", [0, 65536, -1]),
        "type": ("str", ["", "SYN\nX", "t p", "SYN "]),
        "proto": ("str", ["", "t p", "tcp\n", "udp"]),
    },
    "flood": {
        "kind": ("str", ["burst", "", "Flood"]),
        "at": ("int", [-1]),
        "from": ("str", ["nobody"]),
        "to": ("str", ["nobody", "10.0.0.300"]),
        "rate": ("int", [0, 70000]),
        "seconds": ("int", [0, 1000]),
        "type": ("str", ["", "SYN\nX", "t p"]),
        "port_base": ("int", [0, 65536, 65535]),
        "proto": ("str", ["", "t p", "udp"]),
    },
}

# kinds whose every pair of faults is tried
PAIRED = ("switch", "host", "flow", "flood")


def _label(path: tuple) -> str:
    return "$" + "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)


def _edit(document, path: tuple, change):
    """A copy of ``document`` sharing every container off ``path``; ``change``
    edits a shallow copy of the container at ``path``."""
    target = copy(document)
    if path:
        target[path[0]] = _edit(document[path[0]], path[1:], change)
    else:
        change(target)
    return target


def _setting(**values):
    def change(obj):
        obj.update(values)

    return change


def _dropping(key):
    def change(obj):
        del obj[key]

    return change


def _appending(item):
    def change(items):
        items.append(item)

    return change


def _field_faults(kind: str, path: tuple, obj: dict):
    """Mutations of each field of one ``kind`` object at ``path``."""
    where = _label(path)
    wrongs = []
    for key, (json_type, bad) in KINDS[kind].items():
        if key in obj:
            yield f"{where} drop {key}", path, _dropping(key)
        for value in WRONG[json_type]:
            wrongs.append((key, value))
            yield f"{where}.{key} = {json.dumps(value)}", path, _setting(**{key: value})
        for value in bad:
            yield f"{where}.{key} = {json.dumps(value)}", path, _setting(**{key: value})
    yield f"{where} + unknown zz_extra", path, _setting(zz_extra=1)
    yield f"{where} + unknown zeta, alpha", path, _setting(zeta=1, alpha=2)
    if kind in PAIRED:
        for (key_a, a), (key_b, b) in combinations([wrong for wrong in wrongs if wrong[1] in (7, "7")], 2):
            yield f"{where}.{key_a} = {json.dumps(a)}, {key_b} = {json.dumps(b)}", path, _setting(**{key_a: a, key_b: b})
        for key, value in wrongs:
            if value in (7, "7"):
                yield f"{where}.{key} = {json.dumps(value)} + unknown zz_extra", path, _setting(zz_extra=1, **{key: value})


def _reference_faults(document: dict):
    """Mutations naming an undefined id or repeating a declared one."""
    domains = document["domains"]
    nodes = [(d, "switches", i, s["id"]) for d, dom in enumerate(domains) for i, s in enumerate(dom["switches"])]
    nodes += [(d, "hosts", i, h["id"]) for d, dom in enumerate(domains) for i, h in enumerate(dom.get("hosts", []))]
    hosts = [node for node in nodes if node[1] == "hosts"]
    switch_path = ("domains", 0, "switches", 0)
    switches = [node for node in nodes if node[1] == "switches" and node[:3] != (0, "switches", 0)]
    for other in hosts[:1] + switches[:1]:
        yield f"{_label(switch_path)}.id = {other[3]!r} (declared)", switch_path, _setting(id=other[3])
    if hosts:
        d, _, i, host_id = hosts[0]
        host_path = ("domains", d, "hosts", i)
        yield f"{_label(host_path)}.id = {nodes[0][3]!r} (declared)", host_path, _setting(id=nodes[0][3])
        for other in hosts[1:2]:
            twin = domains[other[0]]["hosts"][other[2]]
            yield f"{_label(host_path)}.ip = {twin['ip']!r} (declared)", host_path, _setting(ip=twin["ip"])
            yield f"{_label(host_path)}.mac = {twin['mac']!r} (declared)", host_path, _setting(mac=twin["mac"])
        traffic_path = ("traffic", 0)
        if document.get("traffic"):
            yield f"{_label(traffic_path)}.from = switch {nodes[0][3]!r}", traffic_path, _setting(**{"from": nodes[0][3]})
            yield f"{_label(traffic_path)}.to = switch {nodes[0][3]!r}", traffic_path, _setting(to=nodes[0][3])
    for d, domain in enumerate(domains):
        if domain.get("links"):
            links_path = ("domains", d, "links")
            a, b = domain["links"][0]
            for pair in ([b, a], [a, b], [a], [a, b, a], [a, "NOPE"], [a, a]):
                yield f"{_label(links_path)} + {json.dumps(pair)}", links_path, _appending(pair)
            break
    if len(domains) > 1:
        second = ("domains", 1)
        yield f"{_label(second)}.id = {domains[0]['id']!r} (declared)", second, _setting(id=domains[0]["id"])
        yield f"{_label(second)}.subnet = {domains[0]['subnet']!r} (overlaps)", second, _setting(subnet=domains[0]["subnet"])
        linked = {frozenset(link) for link in document.get("links", [])}
        ids = [domain["id"] for domain in domains]
        unlinked = [[a, b] for a, b in combinations(ids, 2) if frozenset((a, b)) not in linked]
        for pair in unlinked[:1] + [list(link) for link in document.get("links", [])[:1]]:
            yield f"$.links + {json.dumps(pair)}", ("links",), _appending(pair)
        yield f"$.links + {json.dumps([ids[0], 'AS99'])}", ("links",), _appending([ids[0], "AS99"])
    policies = domains[0].get("policies", [])
    if policies:
        policies_path = ("domains", 0, "policies")
        yield f"{_label(policies_path)} + first again", policies_path, _appending(policies[0])
        yield f"{_label(policies_path)} + 7", policies_path, _appending(7)


def _objects(document: dict):
    """``(kind, path, object)`` of the first object of each kind."""
    yield "top", (), document
    for key in ("capacity", "defense", "costs"):
        if isinstance(document.get(key), dict):
            yield key, (key,), document[key]
    domain = document["domains"][0]
    yield "domain", ("domains", 0), domain
    yield "switch", ("domains", 0, "switches", 0), domain["switches"][0]
    for d, domain in enumerate(document["domains"]):
        if domain.get("hosts"):
            yield "host", ("domains", d, "hosts", 0), domain["hosts"][0]
            break
    for kind, flood in (("flow", False), ("flood", True)):
        for index, item in enumerate(document.get("traffic", [])):
            if ("kind" in item) == flood:
                yield kind, ("traffic", index), item
                break


def corpus(document: dict):
    """``(label, mutated document)`` for every mutation of ``document``."""
    for kind, path, obj in _objects(document):
        for label, at, change in _field_faults(kind, path, obj):
            yield label, _edit(document, at, change)
    for label, at, change in _reference_faults(document):
        yield label, _edit(document, at, change)


def verdict(document: dict) -> str:
    try:
        parse_scenario(document)
    except ScenarioError as exc:
        return str(exc)
    except Exception as exc:  # anything but a ScenarioError is a reader fault, pinned as seen
        return f"!{type(exc).__name__}: {exc}"
    return "accepted"


def load_document(name: str) -> dict:
    workload, _, seed = name.partition("@")
    if seed:
        return WORKLOADS[workload](int(seed))[0]
    return json.loads(bundled_scenario_path(name).read_text())


def verdicts(name: str) -> dict[str, str]:
    results: dict[str, str] = {}
    for label, mutated in corpus(load_document(name)):
        assert label not in results, label
        results[label] = verdict(mutated)
    return results


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_the_corpus_covers_every_document(golden):
    assert sorted(golden) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_each_fault_reads_as_pinned(name, golden):
    results = verdicts(name)
    assert list(results) == list(golden[name])
    wrong = {label: (got, golden[name][label]) for label, got in results.items() if got != golden[name][label]}
    assert not wrong


def test_the_corpus_leaves_its_source_documents_unchanged():
    for name in NAMES:
        document = load_document(name)
        before = json.dumps(document)
        for _ in corpus(document):
            pass
        assert json.dumps(document) == before


if __name__ == "__main__":
    print(json.dumps({name: verdicts(name) for name in NAMES}, indent=1, ensure_ascii=False))
