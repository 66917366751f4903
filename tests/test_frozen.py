"""Every frozen record is built by ``sdnsec.frozen.frozen``, and its one-step
``__init__`` behaves as the one a plain ``dataclass(frozen=True, ...)``
generates: the same field values, ``==``, ``hash``, ``repr``, order,
signature, ``__post_init__`` errors and ``FrozenInstanceError``.  The
reference is a twin class, built here by ``dataclasses.make_dataclass`` from
the record's fields and its own ``__post_init__``."""

import dataclasses
import importlib
import inspect
import pkgutil
from dataclasses import KW_ONLY, FrozenInstanceError, InitVar, field, fields, make_dataclass
from fractions import Fraction
from ipaddress import IPv4Network

import pytest
from hypothesis import given, settings, strategies as st

import sdnsec
from sdnsec.controller import CostModel
from sdnsec.dataplane import ActionKind, FlowMatch, FlowRule, Packet
from sdnsec.defense import CapacityModel, ResponseMode
from sdnsec.frozen import frozen
from sdnsec.interdomain import PolicyTransferToken
from sdnsec.labels import LabelWindow, SecurityLabel
from sdnsec.policy import ANY_ENDPOINT, Action, Constraint, ConstraintKind, DomainInfo, EndpointSelector, PolicyExpression
from sdnsec.scenario import DomainSpec, FloodSpec, FlowSpec, HostSpec, SwitchSpec


def _frozen_dataclasses() -> list[type]:
    """Every frozen dataclass an ``sdnsec`` module defines."""
    found = []
    for info in pkgutil.iter_modules(sdnsec.__path__):
        module = importlib.import_module(f"sdnsec.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
                and value.__dataclass_params__.frozen
            ):
                found.append(value)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


FROZEN = _frozen_dataclasses()
IDS = [cls.__qualname__ for cls in FROZEN]


def _twin(cls: type) -> type:
    """A plain ``dataclass(frozen=True, ...)`` with ``cls``'s fields, options
    and ``__post_init__``."""
    specs = [
        (spec.name, spec.type, field(default=spec.default, init=spec.init, repr=spec.repr, hash=spec.hash, compare=spec.compare))
        for spec in fields(cls)
    ]
    namespace = {"__qualname__": cls.__qualname__}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return make_dataclass(
        cls.__name__,
        specs,
        namespace=namespace,
        frozen=True,
        order=cls.__dataclass_params__.order,
        slots="__slots__" in vars(cls),
    )


TWINS = {cls: _twin(cls) for cls in FROZEN}

# --- drawn field values, by the field's declared type ---------------------

_ints = st.one_of(st.integers(-2, 3), st.integers(0, 70_000))
_texts = st.one_of(st.text(max_size=5), st.sampled_from(["AS1", "SW1", "defense:x", "a=b", "*", " a"]))
_names = st.lists(st.sampled_from(["AS1", "AS2", "SW1", "SW2"]), max_size=3).map(tuple)
_fractions = st.fractions(min_value=-1, max_value=5, max_denominator=4)
_networks = st.sampled_from([IPv4Network("10.0.0.0/8"), IPv4Network("192.168.1.0/24")])
_security_labels = st.builds(SecurityLabel, st.integers(1, 4))
_windows = st.builds(LabelWindow, st.integers(1, 4), st.none() | st.integers(1, 4))
_constraints = st.sampled_from(
    [
        Constraint(ConstraintKind.LABEL_PATH, label=LabelWindow(2)),
        Constraint(ConstraintKind.RATE_THRESHOLD, rate=Fraction(3)),
        Constraint(ConstraintKind.PACKET_ATTR, attr="type", value="SYN"),
        Constraint(ConstraintKind.SIGNATURE, signature="scan"),
    ]
)
_packets = st.sampled_from([Packet(1, 2, "m1", "m2", "tcp", 80, "SYN"), Packet(3, 4, "m3", "m4", "udp", 53, "DATA")])
_rules = st.sampled_from(
    [
        FlowRule(FlowMatch(src_ip=2), ActionKind.FORWARD, "SW2"),
        FlowRule(FlowMatch(packet_type="ARP"), ActionKind.TO_CONTROLLER),
    ]
)
_switches = st.sampled_from([SwitchSpec("SW1", SecurityLabel(1)), SwitchSpec("SW2", SecurityLabel(3))])
_hosts = st.sampled_from([HostSpec("h1", 1, "m1", "SW1"), HostSpec("h2", 2, "m2", "SW2")])
_DOMAIN = DomainSpec("AS1", IPv4Network("10.0.0.0/8"), "EDU", SecurityLabel(1), "k1", (), (), (), {}, ())
_traffic = st.sampled_from([FlowSpec(0, "h1", 2, 80, "SYN"), FloodSpec(0, "h1", 2, rate=5, seconds=1)])


def _tuples(elements):
    return st.lists(elements, max_size=3).map(tuple)


def _optional(values):
    return st.none() | values


VALUES = {
    "int": _ints,
    "bool": st.booleans(),
    "str": _texts,
    "Fraction": _fractions,
    "IPv4Network": _networks,
    "SecurityLabel": _security_labels,
    "ConstraintKind": st.sampled_from(ConstraintKind),
    "Action": st.sampled_from(Action),
    "ResponseMode": st.sampled_from(ResponseMode),
    "EndpointSelector": st.sampled_from([ANY_ENDPOINT, EndpointSelector(as_id="AS1", host_ip=7)]),
    "Packet": _packets,
    "DomainInfo": st.sampled_from([DomainInfo("AS1"), DomainInfo("AS2", as_type="EDU", label=SecurityLabel(2))]),
    "CostModel": st.builds(CostModel, st.integers(0, 5)),
    "tuple[str, ...]": _names,
    "tuple[Constraint, ...]": _tuples(_constraints),
    "tuple[tuple[str, FlowRule], ...]": _tuples(st.tuples(st.sampled_from(["SW1", "SW2"]), _rules)),
    "tuple[SwitchSpec, ...]": _tuples(_switches),
    "tuple[HostSpec, ...]": _tuples(_hosts),
    "tuple[tuple[str, str], ...]": _tuples(st.tuples(st.sampled_from(["SW1", "SW2"]), st.sampled_from(["SW1", "h1"]))),
    "tuple[PolicyExpression, ...]": _tuples(st.sampled_from([PolicyExpression("p1", Action.ALLOW), PolicyExpression("p2", Action.DENY)])),
    "tuple[FlowSpec | FloodSpec, ...]": _tuples(_traffic),
    "tuple[DomainSpec, ...]": _tuples(st.sampled_from([_DOMAIN])),
    "dict[str, str]": st.dictionaries(st.sampled_from(["m1", "m2"]), st.sampled_from(["alice", "bob"]), max_size=2),
    "int | None": _optional(_ints),
    "str | None": _optional(_texts),
    "Fraction | None": _optional(_fractions),
    "IPv4Network | None": _optional(_networks),
    "SecurityLabel | None": _optional(_security_labels),
    "LabelWindow | None": _optional(_windows),
    "tuple[str, ...] | None": _optional(_names),
    "tuple[int, int] | None": _optional(st.tuples(_ints, _ints)),
    "frozenset[int] | None": _optional(st.frozensets(st.integers(1, 9), max_size=3)),
    "frozenset[str] | None": _optional(st.frozensets(st.sampled_from(["conf", "intg", "bogus"]), max_size=2)),
    "PolicyTransferToken | None": _optional(st.sampled_from([PolicyTransferToken((), "t0")])),
    "CapacityModel | None": _optional(st.sampled_from([CapacityModel(Fraction(100), 2, 4)])),
}


@st.composite
def _call(draw, cls: type):
    """Arguments for ``cls``: the required fields and a drawn number of the
    defaulted ones, each passed by position or by keyword."""
    init = [spec for spec in fields(cls) if spec.init]
    required = sum(spec.default is dataclasses.MISSING for spec in init)
    given_fields = init[: draw(st.integers(required, len(init)))]
    values = [draw(VALUES[spec.type]) for spec in given_fields]
    positional = draw(st.integers(0, len(values)))
    keywords = {spec.name: value for spec, value in zip(given_fields[positional:], values[positional:])}
    return tuple(values[:positional]), keywords


def _outcome(work):
    """``work()``'s value, or the type and message of what it raised."""
    try:
        return work(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def _values(record) -> list:
    return [getattr(record, spec.name) for spec in fields(record)]


def test_the_walk_finds_every_frozen_record():
    # every field type a record declares has drawn values above
    assert len(FROZEN) == 22, IDS
    missing = {spec.type for cls in FROZEN for spec in fields(cls) if spec.init} - set(VALUES)
    assert not missing


@pytest.mark.parametrize("cls", FROZEN, ids=IDS)
def test_every_frozen_dataclass_is_built_by_frozen(cls):
    # a plain dataclass's generated __init__ names the record's own module
    assert cls.__init__.__module__ == frozen.__module__
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@pytest.mark.parametrize("cls", FROZEN, ids=IDS)
def test_one_step_init_has_the_dataclass_signature_and_options(cls):
    twin = TWINS[cls]
    assert inspect.signature(cls) == inspect.signature(twin)
    assert inspect.signature(cls.__init__) == inspect.signature(twin.__init__)
    assert repr(cls.__dataclass_params__) == repr(twin.__dataclass_params__)
    assert cls.__match_args__ == twin.__match_args__


@pytest.mark.parametrize("cls", FROZEN, ids=IDS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_step_init_builds_what_a_plain_frozen_dataclass_builds(cls, data):
    twin = TWINS[cls]
    args, kwargs = data.draw(_call(cls))
    made, error = _outcome(lambda: cls(*args, **kwargs))
    twin_made, twin_error = _outcome(lambda: twin(*args, **kwargs))
    # a failing __post_init__ fails alike
    assert error == twin_error
    if error is not None:
        return
    assert _values(made) == _values(twin_made)
    assert repr(made) == repr(twin_made)
    assert _outcome(lambda: hash(made)) == _outcome(lambda: hash(twin_made))
    assert made == cls(*args, **kwargs) and dataclasses.replace(made) == made

    other_args, other_kwargs = data.draw(_call(cls))
    other, other_error = _outcome(lambda: cls(*other_args, **other_kwargs))
    if other_error is None:
        twin_other = twin(*other_args, **other_kwargs)
        assert (made == other) == (twin_made == twin_other)
        if cls.__dataclass_params__.order:
            assert (made < other) == (twin_made < twin_other)

    for spec in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(made, spec.name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(made, spec.name)


# --- field options the one-step __init__ does not reproduce -----------------


def test_frozen_refuses_a_default_factory():
    with pytest.raises(TypeError, match=r"Record\.items: .* does not reproduce default_factory"):

        @frozen
        class Record:
            items: tuple = field(default_factory=tuple)


def test_frozen_refuses_a_keyword_only_field():
    with pytest.raises(TypeError, match=r"Record\.name: .* does not reproduce kw_only"):

        @frozen
        class Record:
            name: str = field(kw_only=True)


def test_frozen_refuses_fields_after_the_keyword_only_marker():
    with pytest.raises(TypeError, match=r"Record\.name: .* does not reproduce kw_only"):

        @frozen(slots=True)
        class Record:
            tick: int
            _: KW_ONLY
            name: str


def test_frozen_refuses_an_init_only_variable():
    with pytest.raises(TypeError, match=r"Record\.scale: .* does not reproduce InitVar"):

        @frozen
        class Record:
            tick: int
            scale: InitVar[int]

            def __post_init__(self, scale: int) -> None:
                pass


def test_frozen_refuses_a_non_init_field_with_a_default():
    with pytest.raises(TypeError, match=r"Record\.count: .* does not reproduce init=False with a default"):

        @frozen
        class Record:
            tick: int
            count: int = field(init=False, default=0)
