"""The ``cached`` descriptor: a derived field without a lock.

``sdnsec.frozen.cached`` computes a field on an instance's first read and
stores it in the instance's ``__dict__``, as ``functools.cached_property``
does.  It computes once; read on the class it is the descriptor; a
``dataclasses.replace()`` copy computes its own value; and on a
derandomized hypothesis draw of policy expressions every cached field reads
what a ``functools.cached_property`` of the same function reads.  A guard
fails if ``functools.cached_property`` is named anywhere in ``src/sdnsec``,
and the eight derived fields of the per-flow path use ``cached``.
"""

import ast
import functools
from dataclasses import replace
from fractions import Fraction
from ipaddress import IPv4Network
from pathlib import Path

from hypothesis import given, settings, strategies as st

import sdnsec
from sdnsec.dataplane import Packet
from sdnsec.frozen import cached, frozen
from sdnsec.labels import LabelWindow
from sdnsec.policy import Action, Constraint, ConstraintKind, EndpointSelector, PolicyExpression

CACHED_FIELDS = {
    Packet: {"matches"},
    EndpointSelector: {"_subnet_bits"},
    PolicyExpression: {"switch_path", "domain_path", "constraints", "rates", "selection_key", "label_window"},
}


@frozen
class _Counted:
    value: int
    computed = 0  # calls of doubled's function, over every instance; no field

    @cached
    def doubled(self) -> int:
        """Twice the value; counts its computations."""
        _Counted.computed += 1
        return 2 * self.value


def test_cached_computes_once_and_stores_the_value_in_the_instance_dict():
    _Counted.computed = 0
    record = _Counted(4)
    assert "doubled" not in vars(record)
    assert record.doubled == 8
    assert vars(record)["doubled"] == 8
    assert record.doubled == 8 and record.doubled == 8
    assert _Counted.computed == 1
    # the value lives on this instance only
    assert _Counted(5).doubled == 10
    assert _Counted.computed == 2


def test_cached_read_on_the_class_is_the_descriptor():
    descriptor = _Counted.doubled
    assert isinstance(descriptor, cached)
    assert descriptor.name == "doubled"
    assert descriptor.__doc__ == "Twice the value; counts its computations."
    assert isinstance(PolicyExpression.__dict__["constraints"], cached)
    assert PolicyExpression.constraints is PolicyExpression.__dict__["constraints"]


def test_a_replaced_copy_computes_its_own_value():
    rate = Constraint(ConstraintKind.RATE_THRESHOLD, rate=Fraction(5))
    label = Constraint(ConstraintKind.LABEL_PATH, label=LabelWindow(2, 3))
    expression = PolicyExpression("p", Action.ALLOW, flow_cons=(rate,))
    assert expression.constraints == (rate,) and expression.rates == (Fraction(5),)
    same = replace(expression, id="q")
    assert "constraints" not in vars(same) and "rates" not in vars(same)
    assert same.constraints == (rate,)
    changed = replace(expression, flow_cons=(label,))
    assert changed.constraints == (label,) and changed.rates == ()
    assert changed.label_window == LabelWindow(2, 3)
    assert expression.constraints == (rate,) and expression.label_window == LabelWindow()


def _with_cached_property(cls: type) -> type:
    """A subclass of ``cls`` whose ``cached`` fields are each a
    ``functools.cached_property`` of the same function."""
    namespace = {
        name: functools.cached_property(value.func) for name, value in vars(cls).items() if isinstance(value, cached)
    }
    assert namespace, cls
    return type(f"{cls.__name__}WithCachedProperty", (cls,), namespace)


SelectorWithCachedProperty = _with_cached_property(EndpointSelector)
ExpressionWithCachedProperty = _with_cached_property(PolicyExpression)

_windows = st.builds(LabelWindow, st.integers(1, 4), st.none() | st.integers(1, 4))
_rates = st.fractions(min_value=Fraction(1, 4), max_value=50)
_constraints = st.one_of(
    st.builds(Constraint, st.just(ConstraintKind.LABEL_PATH), label=_windows),
    st.builds(Constraint, st.just(ConstraintKind.RATE_THRESHOLD), rate=_rates),
    st.builds(Constraint, st.just(ConstraintKind.PACKET_ATTR), attr=st.just("type"), value=st.just("SYN")),
    st.builds(Constraint, st.just(ConstraintKind.SIGNATURE), signature=st.sampled_from(["SYN", "SCAN"])),
)
_subnets = st.none() | st.builds(
    lambda octet, prefix: IPv4Network(f"10.{octet}.0.0/{prefix}"), st.integers(0, 255), st.integers(16, 24)
)
# a path names domains or switches, never both
_paths = st.none() | st.sampled_from([("AS1", "AS2", "AS3"), ("SW1", "SW2", "SW3")]).flatmap(
    lambda names: st.lists(st.sampled_from(names), min_size=1, unique=True).map(tuple)
)


@st.composite
def _expression_fields(draw) -> tuple:
    """The fields of one policy expression, its two selectors as tuples."""
    selectors = [
        (
            draw(st.none() | st.sampled_from(["AS1", "AS2"])),
            draw(_subnets),
            draw(st.none() | st.just("enterprise")),
            draw(st.none() | _windows),
        )
        for _ in range(2)
    ]
    return (
        draw(st.sampled_from(["p1", "p2", "web"])),
        draw(st.sampled_from(Action)),
        draw(st.none() | st.just("10.0.0.1>10.0.0.2:80/TCP")),
        *selectors,
        draw(st.none() | st.just("alice")),
        tuple(draw(st.lists(_constraints, max_size=3))),
        tuple(draw(st.lists(_constraints, max_size=3))),
        draw(st.none() | st.frozensets(st.integers(1, 1024), min_size=1, max_size=3)),
        draw(st.none() | st.sampled_from([frozenset({"conf"}), frozenset({"conf", "intg"})])),
        draw(_paths),
        draw(st.none() | st.just("SW2")),
        draw(st.none() | st.tuples(st.integers(0, 5), st.integers(5, 9))),
    )


def _build(expression_class: type, selector_class: type, values: tuple):
    pe_id, action, flow_id, source, dest, *rest = values
    return expression_class(pe_id, action, flow_id, selector_class(*source), selector_class(*dest), *rest)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_expression_fields())
def test_cached_reads_what_functools_cached_property_reads(values):
    expression = _build(PolicyExpression, EndpointSelector, values)
    twin = _build(ExpressionWithCachedProperty, SelectorWithCachedProperty, values)
    for name in sorted(CACHED_FIELDS[PolicyExpression]):
        assert getattr(expression, name) == getattr(twin, name), name
        assert vars(expression)[name] == vars(twin)[name], name
    for ours, theirs in ((expression.source, twin.source), (expression.dest, twin.dest)):
        if ours.subnet is not None:
            assert ours._subnet_bits == theirs._subnet_bits
            assert vars(ours)["_subnet_bits"] == vars(theirs)["_subnet_bits"]


def test_the_per_flow_derived_fields_use_cached():
    for cls, names in CACHED_FIELDS.items():
        assert {name for name, value in vars(cls).items() if isinstance(value, cached)} == names, cls


def _names_of(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name in ``tree``; docstrings and
    comments are no part of it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_module_uses_functools_cached_property():
    # cached_property takes a lock on each instance's first read; the
    # package's derived fields use sdnsec.frozen.cached instead
    sources = sorted(Path(sdnsec.__file__).parent.rglob("*.py"))
    assert len(sources) > 10
    users = [path.name for path in sources if "cached_property" in _names_of(ast.parse(path.read_text()))]
    assert users == []
