import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from ipaddress import IPv4Network

import pytest
from hypothesis import given, settings, strategies as st

from sdnsec.labels import LabelWindow, parse_label, parse_label_constraint
from sdnsec.policy import Action, Constraint, ConstraintKind, EndpointSelector, PolicyExpression, derive_flow_id, match_pe
from sdnsec.formats import (
    PolicyParseError,
    format_compact_pe,
    parse_compact_pe,
    parse_ipv4,
    parse_network,
    parse_repository,
    serialize_repository,
    _split_top,
)

from helpers import ip, make_ctx, random_ctx, random_pe, text_parse_ipv4, walk_split_top

# Verbatim policy-database record as a restricted transit domain would store it.
DB_SAMPLE = """
[{
  "id": "21",
  "flowid": "*",
  "srcasid": "*",
  "srcassub": "10.0.0.0/25",
  "srcastype": "EDU",
  "srcastrulabel": "SL2",
  "dstasid": "*",
  "dstassub": "192.168.52.0/24",
  "dstastype": "EDU",
  "dstastrulabel": "SL4",
  "srcip": "10.0.0.2",
  "dstip": "192.168.52.72",
  "srcmac": "00:00:00:00:00:01",
  "dstmac": "00:00:00:00:01:01",
  "user": "",
  "flowcons": "*",
  "domcons": "SL2+=",
  "services": "*",
  "secprof": "conf",
  "seq": "AS1, AS2",
  "action": "allow"
}]
"""


def test_db_sample_parses_to_expected_expression():
    (pe,) = parse_repository(DB_SAMPLE)
    assert pe.id == "21"
    assert pe.action is Action.ALLOW
    assert pe.flow_id is None
    assert pe.source.subnet == IPv4Network("10.0.0.0/25")
    assert pe.source.host_ip == ip("10.0.0.2")
    assert pe.dest.host_ip == ip("192.168.52.72")
    assert pe.user is None
    assert len(pe.dom_cons) == 1
    assert pe.dom_cons[0].kind is ConstraintKind.LABEL_PATH
    assert pe.dom_cons[0].label == parse_label_constraint("SL2+=")
    assert pe.path == ("AS1", "AS2")
    assert pe.services is None
    assert pe.sec_profile == frozenset({"conf"})


def test_db_sample_matches_its_flow_context():
    (pe,) = parse_repository(DB_SAMPLE)
    ctx = make_ctx(traversed_path=("AS1", "AS2"))
    assert match_pe(pe, ctx)


def test_empty_repository():
    assert parse_repository("[]") == []


def test_all_wildcard_record_matches_anything():
    record = {name: "*" for name in json.loads(DB_SAMPLE)[0]}
    record["id"] = "w"
    record["action"] = "allow"
    (pe,) = parse_repository(json.dumps([record]))
    rng = random.Random(3)
    for _ in range(100):
        assert match_pe(pe, random_ctx(rng))


def test_unknown_field_rejected():
    record = json.loads(DB_SAMPLE)[0]
    record["color"] = "red"
    with pytest.raises(PolicyParseError, match="unknown fields"):
        parse_repository(json.dumps([record]))


@pytest.mark.parametrize("missing", ["id", "action"])
def test_missing_required_field_rejected(missing):
    record = json.loads(DB_SAMPLE)[0]
    del record[missing]
    with pytest.raises(PolicyParseError, match=missing):
        parse_repository(json.dumps([record]))


def test_duplicate_id_rejected():
    records = json.loads(DB_SAMPLE) * 2
    with pytest.raises(PolicyParseError, match="duplicate id"):
        parse_repository(json.dumps(records))


@pytest.mark.parametrize(
    "document, message",
    [
        ("[1]", "record 0: record is not an object"),
        ('[{"id": "a", "action": "allow", "user": null}]', "record 0 (id 'a'): field 'user' must be a string"),
        ('[{"id": 5, "action": "allow"}]', "record 0 (id 5): field 'id' must be a string"),
        ('[{"id": "a"', "repository is not valid JSON"),
        ('{"id": "a", "action": "allow"}', "repository must be a JSON array of records"),
    ],
    ids=["not-object", "null-user", "int-id", "not-json", "not-array"],
)
def test_malformed_record_rejected(document, message):
    with pytest.raises(PolicyParseError) as caught:
        parse_repository(document)
    assert str(caught.value).startswith(message)


def test_repository_round_trip():
    pes = parse_repository(DB_SAMPLE)
    again = parse_repository(serialize_repository(pes))
    assert again == pes


# --- compact format ---------------------------------------------------------

HTTP_PATH_PE = (
    "3 = <*, *, *, 172.56.16.04, 172.56.16.06, 48:2C:6A:1E:60:FF, *, *, *, *, 80,"
    " {Conf, Intg}, (SW1;SW5;SW4)>:<Allow>"
)
FTP_PATH_PE = (
    "4 = <*, *, *, 172.56.16.02, 172.56.16.08, 48:2C:6A:1E:59:2F, *, *, *, *,"
    " (20;21;22;23), Conf, (SW1;SW3;SW4)>:<Allow>"
)
BYOD_PE = (
    "8 = <*, *, AS2, *, (172.16.10.66), (79:c8:82:b2:7b:1a), *, Alice, *, *,"
    " (80,443), *, *>:<allow>"
)
TRANSIT_GUEST_PE = (
    "14 = <*, (10.0.0.0/25, EDU, SL1), *, *, *, *, *, *, *, SL1, (80,443), *,"
    " (AS1, AS2)>:<allow>"
)


def test_http_path_expression():
    pe = parse_compact_pe(HTTP_PATH_PE)
    assert pe.id == "3"
    assert pe.services == frozenset({80})
    assert pe.sec_profile == frozenset({"conf", "intg"})
    assert pe.path == ("SW1", "SW5", "SW4")
    assert pe.switch_path == pe.path
    assert pe.domain_path is None
    assert pe.source.host_ip == ip("172.56.16.4")
    assert pe.dest.host_ip == ip("172.56.16.6")
    assert pe.source.host_mac == "48:2c:6a:1e:60:ff"
    assert pe.action is Action.ALLOW


def test_ftp_path_expression():
    pe = parse_compact_pe(FTP_PATH_PE)
    assert pe.services == frozenset({20, 21, 22, 23})
    assert pe.sec_profile == frozenset({"conf"})
    assert pe.path == ("SW1", "SW3", "SW4")


def test_all_wildcard_allow():
    pe = parse_compact_pe("<*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>")
    assert pe.action is Action.ALLOW
    rng = random.Random(11)
    for _ in range(50):
        assert match_pe(pe, random_ctx(rng))


def test_byod_expression_field_placement():
    # hand-built field table: position 5 is the destination host IP,
    # position 6 the source (device) MAC, position 8 the user
    pe = parse_compact_pe(BYOD_PE)
    assert pe.user == "Alice"
    assert pe.dest.as_id == "AS2"
    assert pe.dest.host_ip == ip("172.16.10.66")
    assert pe.source.host_mac == "79:c8:82:b2:7b:1a"
    assert pe.dest.host_mac is None
    assert pe.services == frozenset({80, 443})


def test_domain_descriptor_populates_selector():
    pe = parse_compact_pe(TRANSIT_GUEST_PE)
    assert pe.source.subnet == IPv4Network("10.0.0.0/25")
    assert pe.source.as_type == "EDU"
    assert pe.source.label_req == parse_label_constraint("SL1")
    assert pe.dom_cons[0].label == parse_label_constraint("SL1")
    assert pe.path == ("AS1", "AS2")


def test_action_exit_attribute():
    pe = parse_compact_pe(
        "1 = <*, (10.0.0.0/24, EDU, SL2), (192.168.52.0/24), 10.0.0.2, *, *, *, *, *,"
        " SL2+=, (80,443), conf, *>:<(1SW2, Allow)>"
    )
    assert pe.action is Action.ALLOW
    assert pe.action_exit == "1SW2"


def test_field_count_mismatch_reports_expected_vs_found():
    with pytest.raises(PolicyParseError, match="expected 13 condition fields, found 4"):
        parse_compact_pe("<*,*,*,*>:<Allow>")


@pytest.mark.parametrize(
    "compact, action",
    [(True, "(Allow, Deny)"), (True, "(Deny; allow)"), (False, "allow, deny")],
    ids=["compact-allow-deny", "compact-deny-allow", "record-allow-deny"],
)
def test_action_naming_both_verbs_rejected(compact, action):
    # keeping either verb would guess which one the author meant
    with pytest.raises(PolicyParseError, match="action names more than one verb"):
        if compact:
            parse_compact_pe(f"t = <{', '.join(['*'] * 13)}>:<{action}>")
        else:
            parse_repository([{"id": "t", "action": action}])


@pytest.mark.parametrize(
    "position, descriptor, column",
    [
        (1, "(AS1, AS2)", "srcasid"),
        (1, "(10.0.0.0/24, 10.1.0.0/24)", "srcassub"),
        (1, "(EDU, ISP)", "srcastype"),
        (2, "(SL1, *, SL2+=)", "dstastrulabel"),
    ],
    ids=["two-ids", "two-subnets", "two-types", "two-labels"],
)
def test_domain_descriptor_rejects_a_second_element_of_one_shape(position, descriptor, column):
    # keeping either element would silently narrow the selector
    fields = ["*"] * 13
    fields[position] = descriptor
    with pytest.raises(PolicyParseError, match=f"two {column} elements in domain descriptor"):
        parse_compact_pe(f"t = <{', '.join(fields)}>:<Allow>")


@pytest.mark.parametrize("compact", [True, False], ids=["compact", "record"])
def test_policy_id_with_the_block_provenance_prefix_rejected(compact):
    # a defense block rule's installs carry this prefix, and a policy's
    # installs carry its id; the report must tell the two apart
    with pytest.raises(PolicyParseError, match="reserved prefix 'defense:'"):
        if compact:
            parse_compact_pe(f"defense:m1 = <{', '.join(['*'] * 13)}>:<Allow>")
        else:
            parse_repository([{"id": "defense:m1", "action": "allow"}])


# ids one format took and the other could not read back: the compact reader
# ends a name at its first '=' or '<' and strips it
UNREADABLE_IDS = ["a=b", "a<b", " a", "a ", "\ta"]


@pytest.mark.parametrize("compact", [True, False], ids=["compact", "record"])
@pytest.mark.parametrize("pe_id", UNREADABLE_IDS)
def test_policy_id_that_cannot_be_read_back_is_rejected_naming_it(pe_id, compact):
    with pytest.raises(PolicyParseError, match=re.escape(f"policy id {pe_id!r} must not be '*'")):
        if compact:
            parse_compact_pe(f"<{', '.join(['*'] * 13)}>:<Allow>", pe_id=pe_id)
        else:
            parse_repository([{"id": pe_id, "action": "allow"}])


def test_wildcard_policy_id_is_rejected():
    # a record reads '*' as a missing id, so a compact name '*' could not be
    # written as a record
    with pytest.raises(PolicyParseError, match=re.escape("policy id '*' must not be '*'")):
        parse_compact_pe(f"* = <{', '.join(['*'] * 13)}>:<Allow>")
    with pytest.raises(PolicyParseError, match="missing required field 'id'"):
        parse_repository([{"id": "*", "action": "allow"}])
    with pytest.raises(ValueError, match=re.escape("policy id '*'")):
        PolicyExpression(id="*", action=Action.ALLOW)


@pytest.mark.parametrize("pe_id", ["a>b", "a:b", "a b", "r-1.2", "é"])
def test_legal_policy_ids_round_trip_through_both_formats(pe_id):
    pe = PolicyExpression(id=pe_id, action=Action.DENY)
    assert parse_compact_pe(format_compact_pe(pe)) == pe
    assert parse_repository(serialize_repository([pe])) == [pe]


def test_compact_round_trip():
    for text in [HTTP_PATH_PE, FTP_PATH_PE, BYOD_PE, TRANSIT_GUEST_PE]:
        pe = parse_compact_pe(text)
        assert parse_compact_pe(format_compact_pe(pe)) == pe


def test_cross_format_round_trip():
    pes = parse_repository(DB_SAMPLE)
    again = [parse_compact_pe(format_compact_pe(pe)) for pe in pes]
    assert again == pes


def test_validity_token_round_trips():
    pe = parse_compact_pe("t = <*,*,*,*,*,*,*,*, valid[5,9), *,*,*,*>:<Allow>")
    assert pe.validity == (5, 9)
    assert parse_compact_pe(format_compact_pe(pe)) == pe
    again = parse_repository(serialize_repository([pe]))
    assert again == [pe]


@pytest.mark.parametrize("compact", [True, False], ids=["compact", "repository"])
def test_disjoint_validity_tokens_give_an_empty_window(compact):
    # the two windows share no tick; an empty window is a legal expression
    # that is valid at no tick, not an inverted window nobody wrote
    tokens = "valid[0,5); valid[10,20)"
    if compact:
        pe = parse_compact_pe(f"t = <*,*,*,*,*,*,*,*, ({tokens}), *,*,*,*>:<Allow>")
    else:
        (pe,) = parse_repository([{"id": "t", "action": "allow", "flowcons": tokens}])
    assert pe.validity == (10, 10)
    assert not any(match_pe(pe, make_ctx(timestamp=tick)) for tick in range(25))
    assert parse_compact_pe(format_compact_pe(pe)) == pe
    assert parse_repository(serialize_repository([pe])) == [pe]


def test_rate_and_signature_tokens():
    pe = parse_compact_pe("t = <*,*,*,*,*,*,*,*, (rate<=100; sig.SYN), *,*,*,*>:<Deny>")
    kinds = {c.kind for c in pe.flow_cons}
    assert kinds == {ConstraintKind.RATE_THRESHOLD, ConstraintKind.SIGNATURE}
    assert parse_compact_pe(format_compact_pe(pe)) == pe


def test_leading_zero_addresses_normalize():
    assert parse_ipv4("172.56.16.04") == ip("172.56.16.4")
    assert parse_network("010.0.0.0/25") == IPv4Network("10.0.0.0/25")
    with pytest.raises(ValueError):
        parse_network("10.0.0.0")


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.text(alphabet="(){}[],; a*", max_size=20), st.sampled_from([",", ",;"]))
def test_split_top_agrees_with_the_character_walk(text, seps):
    assert _split_top(text, seps) == walk_split_top(text, seps)


# dotted decimals, with leading zeros and octets over 255, and odd parts:
# whitespace, signs, 0x prefixes, exponents and non-ASCII digits
_DECIMAL = st.tuples(st.sampled_from([0, 255, 256]) | st.integers(0, 300), st.integers(1, 4)).map(
    lambda number_width: f"{number_width[0]:0{number_width[1]}d}"
)
_ODD = st.sampled_from(["", " 7", "7 ", "-1", "+1", "0x1f", "1e2", "\u0663", "\uff11\uff12", "\u00b2"]) | st.text(
    alphabet="0123456789 x", max_size=4
)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    st.lists(_DECIMAL, min_size=4, max_size=4) | st.lists(_DECIMAL, min_size=3, max_size=5),
    st.none() | st.tuples(st.integers(0, 4), _ODD),
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", " ", "\n"]),
)
def test_parse_ipv4_agrees_with_parsing_the_text(parts, odd, before, after):
    if odd is not None:
        index, token = odd
        parts[min(index, len(parts) - 1)] = token
    text = before + ".".join(parts) + after
    assert _outcome(parse_ipv4, text) == _outcome(text_parse_ipv4, text)


# An empty set would match nothing, and both serializers print it as "*".
# A path naming a switch twice would be cut short where the later rule on
# that switch replaces the earlier one.
@pytest.mark.parametrize(
    "column, position, text",
    [
        ("services", 10, "(80-20)"),
        ("services", 10, "(80, 90-85)"),
        ("services", 10, "(;)"),
        ("secprof", 11, "(;)"),
        ("seq", 12, "(SW1;SW5;SW4;SW3;SW4)"),
    ],
    ids=["reversed-range", "reversed-range-in-list", "empty-services", "empty-secprof", "repeated-path"],
)
def test_empty_or_reversed_sets_rejected(column, position, text):
    fields = ["*"] * 13
    fields[position] = text
    with pytest.raises(PolicyParseError):
        parse_compact_pe(f"t = <{', '.join(fields)}>:<Allow>")
    with pytest.raises(PolicyParseError):
        parse_repository([{"id": "t", "action": "allow", column: text}])


def _compact(position: int, text: str) -> str:
    fields = ["*"] * 13
    fields[position] = text
    return f"t = <{', '.join(fields)}>:<Allow>"


# every number in policy text is ASCII 0-9: int() and Fraction() alone also
# take other scripts' digits, and int() signs and underscores
@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_ipv4, "\u0661\u0660.0.0.1"),
        (parse_label, "SL\u0663"),
        (parse_label_constraint, "SL\u0663+="),
        (parse_compact_pe, _compact(10, "(\u0668\u0660)")),
        (parse_compact_pe, _compact(10, "(+80)")),
        (parse_compact_pe, _compact(10, "(8_0)")),
        (parse_compact_pe, _compact(10, "(80-\u0669\u0660)")),
        (parse_compact_pe, _compact(8, "(valid[\u0660,\u0661\u0660))")),
        (parse_compact_pe, _compact(8, "(valid[+0,1_0))")),
        (parse_compact_pe, _compact(8, "(rate<=\u0663)")),
        (parse_compact_pe, _compact(8, "(rate<=1_0)")),
        (parse_compact_pe, _compact(8, "(rate<=1e1)")),
        (parse_compact_pe, _compact(8, "(rate<=+3)")),
    ],
    ids=[
        "ipv4-octet",
        "label-rank",
        "label-constraint-rank",
        "port-arabic-indic",
        "port-sign",
        "port-underscore",
        "port-range-end",
        "validity-arabic-indic",
        "validity-sign-underscore",
        "rate-arabic-indic",
        "rate-underscore",
        "rate-exponent",
        "rate-sign",
    ],
)
def test_numbers_are_ascii_digits(parse, text):
    with pytest.raises(ValueError):
        parse(text)


@pytest.mark.parametrize(
    "token, rate",
    [("3", Fraction(3)), ("1.5", Fraction(3, 2)), ("3/2", Fraction(3, 2)), (" 04 ", Fraction(4))],
)
def test_rate_token_reads_digits_a_decimal_or_a_ratio(token, rate):
    (constraint,) = parse_compact_pe(_compact(8, f"(rate<={token})")).flow_cons
    assert constraint.rate == rate


@pytest.mark.parametrize("token", [".5", "5.", "1/2/3", "1.5/2", "3 /2", "0", "0/4", "1/0", ""])
def test_rate_token_rejects_other_shapes(token):
    with pytest.raises(PolicyParseError, match="rate"):
        parse_compact_pe(_compact(8, f"(rate<={token})"))


WILD_CONDITIONS = ", ".join(["*"] * 13)


def _unnamed(position: int, text: str, prefix: str = "") -> str:
    """``_compact``'s expression with ``prefix`` for its ``t = ``."""
    return prefix + _compact(position, text).removeprefix("t = ")


# the compact expression's name, else the reader's pe_id argument ('q'),
# names every fault, found before, during or after the conversions
@pytest.mark.parametrize(
    "text, message",
    [
        (_compact(8, "(pkt.type)"), "policy expression 't': bad packet-attribute token 'pkt.type' (attr: type, port)"),
        (_compact(8, "(sig.)"), "policy expression 't': bad signature token 'sig.'"),
        (
            _compact(8, "(SLx)"),
            "policy expression 't': bad constraint token 'SLx' (expected SL<n> with optional += or -= suffix)",
        ),
        (_compact(10, "(70000)"), "policy expression 't': service port '70000' out of range 1..65535"),
        (_compact(11, "(conf; avail)"), "policy expression 't': unknown security-profile tokens: ['avail']"),
        (_compact(8, "(valid[10,5))"), "policy expression 't': validity window start 10 after end 5"),
        (f"t = <{WILD_CONDITIONS}>:<(1SW2, 2SW3, Allow)>", "policy expression 't': unrecognized action token '2SW3'"),
        (f"t = <{WILD_CONDITIONS}>:<(1SW2)>", "policy expression 't': action must be allow or deny, got '(1SW2)'"),
        ("t = Allow", "policy expression 't': expected <conditions>:<action>"),
        (f"t = <{WILD_CONDITIONS}>", "policy expression 't': expected exactly one ':' between conditions and action"),
        (
            f"t = <{WILD_CONDITIONS}>:<Allow>:<Deny>",
            "policy expression 't': expected exactly one ':' between conditions and action",
        ),
        (_unnamed(10, "(70000)"), "policy expression 'q': service port '70000' out of range 1..65535"),
        (_unnamed(1, "(AS1, AS2)"), "policy expression 'q': two srcasid elements in domain descriptor '(AS1, AS2)'"),
        (
            f"<{WILD_CONDITIONS}>:<Allow, Deny>",
            "policy expression 'q': action names more than one verb in 'Allow, Deny'",
        ),
        ("<*, *>:<Allow>", "policy expression 'q': expected 13 condition fields, found 2"),
        (_unnamed(10, "(70000)", " = "), "policy expression 'q': service port '70000' out of range 1..65535"),
        (f" = <{WILD_CONDITIONS}>:<(1SW2)>", "policy expression 'q': action must be allow or deny, got '(1SW2)'"),
        (" = Allow", "policy expression 'q': expected <conditions>:<action>"),
    ],
    ids=[
        "packet-attribute",
        "signature",
        "label",
        "port-70000",
        "security-profile",
        "reversed-validity",
        "action-extra-token",
        "action-no-verb",
        "no-template",
        "no-colon",
        "two-colons",
        "unnamed-port-70000",
        "unnamed-domain-descriptor",
        "unnamed-two-verbs",
        "unnamed-field-count",
        "empty-name-port-70000",
        "empty-name-action-no-verb",
        "empty-name-no-template",
    ],
)
def test_compact_rejection_names_its_fault(text, message):
    with pytest.raises(PolicyParseError) as raised:
        parse_compact_pe(text, pe_id="q")
    assert str(raised.value) == message
    # the same message when the fields were seen before, as in a document
    table: dict = {}
    parse_compact_pe(f"seen = <{WILD_CONDITIONS}>:<Allow>", table=table)
    with pytest.raises(PolicyParseError) as raised:
        parse_compact_pe(text, pe_id="q", table=table)
    assert str(raised.value) == message


# (faulty fields, the fault reported): a domain descriptor's fault comes
# before any field's conversion fault, then the first in field order
@pytest.mark.parametrize(
    "faults, message",
    [
        ({0: "a;b", 1: "(AS1, AS2)"}, "two srcasid elements in domain descriptor '(AS1, AS2)'"),
        ({1: "(AS1, 10.0.0.0/33)", 2: "(SL1, SL2)"}, "two dstastrulabel elements in domain descriptor '(SL1, SL2)'"),
        ({1: "(AS1, AS2)", 2: "(SL1, SL2)"}, "two srcasid elements in domain descriptor '(AS1, AS2)'"),
        ({0: "a;b", 10: "(70000)"}, "bad flowid value 'a;b': a one-value column holds no ',' or ';'"),
        ({10: "(70000)", 11: "(bogus)"}, "service port '70000' out of range 1..65535"),
    ],
    ids=["flowid-then-descriptor", "conversion-then-descriptor", "two-descriptors", "two-conversions", "port-first"],
)
def test_a_domain_descriptor_fault_is_reported_first(faults, message):
    fields = ["*"] * 13
    for position, text in faults.items():
        fields[position] = text
    text = f"t = <{', '.join(fields)}>:<Allow>"
    # read alone, then twice through a table that has read other texts: a
    # bad text enters no table
    warm: dict = {}
    parse_compact_pe(f"seen = <{WILD_CONDITIONS}>:<Allow>", table=warm)
    for table in (None, warm, warm):
        with pytest.raises(PolicyParseError) as raised:
            parse_compact_pe(text, table=table)
        assert str(raised.value) == f"policy expression 't': {message}"


@pytest.mark.parametrize("compact", [True, False], ids=["compact", "repository"])
@pytest.mark.parametrize(
    "token, message",
    [
        ("pkt.proto=tcp", "bad packet-attribute token 'pkt.proto=tcp' (attr: type, port)"),
        ("pkt.Type=HTTP", "bad packet-attribute token 'pkt.Type=HTTP'"),
        ("pkt.port=http", "bad service port 'pkt.port=http'"),
        ("pkt.port=+80", "bad service port 'pkt.port=+80'"),
        ("pkt.port=\u0668\u0660", "bad service port"),
        ("pkt.port=0", "service port 'pkt.port=0' out of range 1..65535"),
        ("pkt.port=65536", "service port 'pkt.port=65536' out of range 1..65535"),
    ],
    ids=["unknown-attr", "attr-case", "port-name", "port-sign", "port-arabic-indic", "port-0", "port-65536"],
)
def test_packet_attribute_that_can_never_hold_is_rejected(token, message, compact):
    # a packet has a type and a port only, and its port is a number
    with pytest.raises(PolicyParseError, match=re.escape(message)):
        if compact:
            parse_compact_pe(_compact(8, f"({token})"))
        else:
            parse_repository([{"id": "t", "action": "allow", "flowcons": token}])


def test_packet_attribute_constraint_names_a_packet_field():
    with pytest.raises(ValueError, match="PACKET_ATTR constraint requires attr"):
        Constraint(ConstraintKind.PACKET_ATTR, attr="proto", value="tcp")


@pytest.mark.parametrize("compact", [True, False], ids=["compact", "repository"])
def test_packet_port_reads_as_a_port(compact):
    # leading zeros are tolerated, as in services, and stored canonically
    if compact:
        pe = parse_compact_pe(_compact(8, "(pkt.port=080)"))
    else:
        (pe,) = parse_repository([{"id": "t", "action": "allow", "flowcons": " pkt.port = 0080 "}])
    assert pe.flow_cons == (Constraint(ConstraintKind.PACKET_ATTR, attr="port", value="80"),)
    assert "pkt.port=80" in format_compact_pe(pe).split(", ")
    assert json.loads(serialize_repository([pe]))[0]["flowcons"] == "pkt.port=80"


@pytest.mark.parametrize("text", ["(*)", "{*}", "( * )", "((*))"])
@pytest.mark.parametrize("column, position", [("flowcons", 8), ("domcons", 9), ("services", 10), ("secprof", 11), ("seq", 12)])
def test_parenthesised_wildcard_list_is_the_wildcard(column, position, text):
    wild = PolicyExpression(id="t", action=Action.ALLOW)
    from_compact = parse_compact_pe(_compact(position, text))
    (from_repository,) = parse_repository([{"id": "t", "action": "allow", column: text}])
    assert from_compact == from_repository == wild
    assert format_compact_pe(from_repository) == f"t = <{WILD_CONDITIONS}>:<Allow>"
    assert json.loads(serialize_repository([from_compact]))[0][column] == "*"


@pytest.mark.parametrize("compact", [True, False], ids=["compact", "repository"])
@pytest.mark.parametrize("column, position", [("flowcons", 8), ("domcons", 9), ("seq", 12)])
def test_empty_list_rejected_naming_the_column(column, position, compact):
    # "(;)" once parsed to the wildcard, so an empty path or constraint list
    # matched everything
    fields = ["*"] * 13
    fields[position] = "(;)"
    with pytest.raises(PolicyParseError, match=f"empty {column} list"):
        if compact:
            parse_compact_pe(f"t = <{', '.join(fields)}>:<Allow>")
        else:
            parse_repository([{"id": "t", "action": "allow", column: "(;)"}])


@pytest.mark.parametrize("field", ["services", "sec_profile"])
def test_expression_rejects_empty_set(field):
    with pytest.raises(ValueError, match="nonempty"):
        PolicyExpression(id="t", action=Action.ALLOW, **{field: frozenset()})


def _varied_pe(rng: random.Random, index: int) -> PolicyExpression:
    """``random_pe`` plus the fields it leaves fixed: flow id, domain
    constraints, rate tokens, exit switch and deny."""
    pe = random_pe(rng, f"pe{index}", rng.choice((Action.ALLOW, Action.DENY)))
    rate = Constraint(ConstraintKind.RATE_THRESHOLD, rate=Fraction(rng.randrange(1, 400), rng.choice((1, 2, 3))))
    relation = rng.choice(("+=", "-=", ""))
    label = Constraint(ConstraintKind.LABEL_PATH, label=parse_label_constraint(f"SL{rng.randrange(1, 6)}{relation}"))
    flow_id = derive_flow_id("10.0.0.2", "192.168.52.72", "tcp", rng.choice((22, 80)))
    return replace(
        pe,
        flow_id=flow_id if rng.random() < 0.3 else None,
        flow_cons=pe.flow_cons + ((rate,) if rng.random() < 0.3 else ()),
        dom_cons=tuple(c for c in (label, rate) if rng.random() < 0.4),
        action_exit="1SW2" if rng.random() < 0.3 else None,
    )


def test_random_expressions_round_trip_through_both_formats():
    rng = random.Random(5)
    for index in range(300):
        pe = _varied_pe(rng, index)
        from_repository = parse_repository(serialize_repository([pe]))
        from_compact = parse_compact_pe(format_compact_pe(pe))
        assert from_repository == [pe]
        assert from_compact == pe
        assert parse_compact_pe(format_compact_pe(from_repository[0])) == pe
        assert parse_repository(serialize_repository([from_compact])) == [pe]


@pytest.mark.parametrize("where", ["flow_cons", "dom_cons", "source"])
def test_a_label_window_no_token_spells_is_not_serialized(where):
    # SL2..SL3 would print as SL3-=, which reads back as the looser SL1..SL3
    window = LabelWindow(2, 3)
    constraint = Constraint(ConstraintKind.LABEL_PATH, label=window)
    pe = PolicyExpression("narrow", Action.ALLOW)
    if where == "source":
        pe = replace(pe, source=EndpointSelector(label_req=window))
    else:
        pe = replace(pe, **{where: (constraint,)})
    with pytest.raises(ValueError, match=r"no label token spells the window of ranks 2\.\.3"):
        format_compact_pe(pe)
    with pytest.raises(ValueError, match=r"no label token spells the window of ranks 2\.\.3"):
        serialize_repository([pe])


# (column, compact position, compact field, record text): a list in a
# one-value column once read as one value with separators in it, which the
# compact serializer prints bare and its reader then splits into extra fields
ONE_VALUE_LISTS = [
    ("flowid", 0, "(f1, f2)", "f1, f2"),
    ("user", 7, "(u1; u2)", "u1; u2"),
    ("srcasid", 1, "(10.0.0.0/8, AS1{a, b})", "AS1, AS2"),
    ("dstastype", 2, "(10.0.0.0/8, {edu; lab})", "edu; lab"),
]


@pytest.mark.parametrize("compact", [True, False], ids=["compact", "repository"])
@pytest.mark.parametrize("column, position, field, text", ONE_VALUE_LISTS, ids=[case[0] for case in ONE_VALUE_LISTS])
def test_a_one_value_column_holds_no_list(column, position, field, text, compact):
    with pytest.raises(PolicyParseError, match=rf"bad {column} value .*: a one-value column holds no ',' or ';'"):
        if compact:
            parse_compact_pe(_compact(position, field))
        else:
            parse_repository([{"id": "t", "action": "allow", column: text}])
