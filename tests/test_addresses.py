"""Integer addresses against ``ipaddress``, at the parse and print edges.

The program carries addresses as plain integers.  ``format_ipv4`` prints one
as ``str(IPv4Address(n))`` does, over the whole 32-bit range;
``parse_ipv4`` reads a dotted quad, leading zeros allowed, to the integer
``IPv4Address`` gives its canonical text; and a malformed or out-of-range
address in a scenario is still rejected at the same field path, with the
message ``IPv4Address`` gives.
"""

from ipaddress import IPv4Address

import pytest
from helpers import text_parse_ipv4
from hypothesis import example, given, settings, strategies as st
from test_scenario import minimal_doc

from sdnsec.formats import parse_ipv4
from sdnsec.policy import format_ipv4
from sdnsec.scenario import ScenarioError, parse_scenario

OCTET = st.integers(0, 255)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
@example(0)
@example(2**32 - 1)
def test_format_ipv4_prints_what_ipaddress_prints(n):
    assert format_ipv4(n) == str(IPv4Address(n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(OCTET, st.integers(1, 4)), min_size=4, max_size=4))
def test_parse_ipv4_reads_leading_zeros_to_the_canonical_integer(octets):
    text = ".".join(f"{octet:0{width}d}" for octet, width in octets)
    canonical = ".".join(str(octet) for octet, _ in octets)
    assert parse_ipv4(text) == int(IPv4Address(canonical))
    assert format_ipv4(parse_ipv4(text)) == canonical


def _outcome(parse, text: str):
    """The integer ``parse`` reads from ``text``, or its error message."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def _reference(text: str):
    return _outcome(text_parse_ipv4, text)


# dotted text that is no address: an octet over 255, three or five parts, an
# empty part, a sign, a letter, a non-ASCII digit, inner whitespace
_OCTET_TEXT = st.integers(0, 999).map(str) | st.sampled_from(["", "-1", "+1", "0x1", "a", "\u0661", " 1 2"])
MALFORMED = st.lists(_OCTET_TEXT, min_size=3, max_size=5).map(".".join).filter(
    lambda text: isinstance(_reference(text), str)
)


def _error(document) -> ScenarioError:
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(document)
    return caught.value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(MALFORMED)
def test_malformed_addresses_are_rejected_at_their_field_path(text):
    message = _reference(text)
    assert _outcome(parse_ipv4, text) == message

    host = minimal_doc()
    host["domains"][0]["hosts"][0]["ip"] = text
    error = _error(host)
    assert (error.path, str(error)) == ("$.domains[0].hosts[0].ip", f"$.domains[0].hosts[0].ip: {message}")

    traffic = minimal_doc()
    traffic["traffic"][0]["to"] = text
    error = _error(traffic)
    assert error.path == "$.traffic[0].to"
    assert str(error).endswith(f"{text!r} is neither a declared host nor an IPv4 address")

    # a CIDR is stripped before it is split at the "/"
    subnet = minimal_doc()
    subnet["domains"][0]["subnet"] = f"{text}/24"
    error = _error(subnet)
    assert (error.path, str(error)) == ("$.domains[0].subnet", f"$.domains[0].subnet: {_reference(text.lstrip())}")

    # a compact field is stripped before it is parsed
    policy = minimal_doc()
    policy["domains"][0]["policies"] = [f"p = <*, *, *, {text}, *, *, *, *, *, *, *, *, *>:<Allow>"]
    error = _error(policy)
    assert error.path == "$.domains[0].policies[0]"
    assert str(error).endswith(f"bad srcip value {text.strip()!r}: {_reference(text.strip())}")
