"""Parse policy expressions in both text formats, match them, pick a winner.

Run:  python demos/01_policy_basics.py
"""

from ipaddress import IPv4Network

from sdnsec import (
    DomainInfo,
    FlowContext,
    Packet,
    SecurityLabel,
    format_compact_pe,
    match_pe,
    parse_compact_pe,
    parse_ipv4,
    parse_label_constraint,
    parse_repository,
    select_policy,
)

# Label constraints: bare rank means equality, += at-least, -= at-most.
for text in ("SL2+=", "SL4", "SL3-=", "*"):
    constraint = parse_label_constraint(text)
    satisfied = [rank for rank in range(1, 6) if constraint.satisfies(SecurityLabel(rank))]
    print(f"{text:>6}  satisfied by ranks {satisfied}")

# A repository record, as a domain's policy database stores it.
repository = """
[{
  "id": "21", "flowid": "*",
  "srcasid": "*", "srcassub": "10.0.0.0/25", "srcastype": "EDU", "srcastrulabel": "SL2",
  "dstasid": "*", "dstassub": "192.168.52.0/24", "dstastype": "EDU", "dstastrulabel": "SL4",
  "srcip": "10.0.0.2", "dstip": "192.168.52.72",
  "srcmac": "00:00:00:00:00:01", "dstmac": "00:00:00:00:01:01",
  "user": "", "flowcons": "*", "domcons": "SL2+=",
  "services": "*", "secprof": "conf", "seq": "AS1, AS2", "action": "allow"
}]
"""
(pe,) = parse_repository(repository)
print("\nrepository record 21 round-trips to compact form:")
print(" ", format_compact_pe(pe))

# The same rule evaluated against a flow arriving at a transit domain.
packet = Packet(
    src_ip=parse_ipv4("10.0.0.2"),
    dst_ip=parse_ipv4("192.168.52.72"),
    src_mac="00:00:00:00:00:01",
    dst_mac="00:00:00:00:01:01",
    ip_proto="tcp",
    service_port=443,
    packet_type="HTTPS",
)
ctx = FlowContext(
    packet=packet,
    src_as=DomainInfo("AS1", IPv4Network("10.0.0.0/24"), "EDU", SecurityLabel(2)),
    dst_as=DomainInfo("AS4", IPv4Network("192.168.52.0/24"), "EDU", SecurityLabel(4)),
    timestamp=0,
    traversed_path=("AS1", "AS2"),
)
print("\nmatch against the arriving flow:", match_pe(pe, ctx))

# Overlap resolution: default deny, deny overrides, most specific allow.
broad_allow = parse_compact_pe("<*,*,*,*,*,*,*,*,*,*,*,*,*>:<Allow>", pe_id="broad")
# Selection returns the winning expression, or None for the default deny.
winner = select_policy([broad_allow, pe], ctx)
print("winner among overlapping allows:", winner.id, "->", winner.action.value)
deny = parse_compact_pe("<*,*,*,*,*,*,*,*,*,*,*,*,*>:<Deny>", pe_id="lockdown")
winner = select_policy([broad_allow, pe, deny], ctx)
print("with a matching deny present:  ", winner.id, "->", winner.action.value)
print("empty repository:              ", "deny" if select_policy([], ctx) is None else "allow", "(default deny)")
