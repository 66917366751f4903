"""Parameter sweeps reproducing the performance experiment shapes.

Absolute timings are hardware-bound and not reproduced; what a sweep checks
is the trend: latency grows with fabric size and is higher with policy
processing enabled, flow establishment at a saturating offered rate falls as
the repository grows, end-to-end establishment time grows with the number of
domains crossed, and the flooding defenses reshape the installation-rate
curve (rising baseline, flat plateau at the threshold, near-zero after a
block rule).

One table maps each axis to the scenario variant at a point, and
``SWEEP_AXES`` lists its keys.  The domain-count axis runs
:func:`chain_scenario`, which writes its world as a scenario document and
reads it with :func:`~sdnsec.scenario.parse_scenario`, so a chain passes
every check a scenario file does and builds no record of its own.
"""

from __future__ import annotations

from dataclasses import replace

from .controller import BLOCK_PROVENANCE_PREFIX
from .defense import ResponseMode
from .metrics import MetricsReport
from .policy import Action, PolicyExpression, format_ipv4
from .scenario import FloodSpec, Scenario, SwitchSpec, parse_scenario
from .simulation import run
from .topology import gateway_name

__all__ = [
    "SWEEP_AXES",
    "chain_scenario",
    "flood_response_series",
    "offer_horizon",
    "pad_policies",
    "pad_switches",
    "sweep",
]

def pad_policies(scenario: Scenario, total: int) -> Scenario:
    """Grow the first domain's repository to ``total`` expressions with
    never-matching filler (each pinned to a flow id no packet can have)."""
    domain = scenario.domains[0]
    missing = total - len(domain.policies)
    if missing < 0:
        raise ValueError(f"scenario already has {len(domain.policies)} policies > {total}")
    pads = tuple(
        PolicyExpression(id=f"pad-{i:05d}", action=Action.ALLOW, flow_id=f"pad-flow-{i}")
        for i in range(missing)
    )
    return scenario.with_policies(domain.id, pads)


def pad_switches(scenario: Scenario, total: int) -> Scenario:
    """Grow the first domain's fabric to ``total`` switches with a dangling
    chain, leaving every existing path intact."""
    domain = scenario.domains[0]
    missing = total - len(domain.switches)
    if missing < 0:
        raise ValueError(f"domain already has {len(domain.switches)} switches > {total}")
    if missing == 0:
        return scenario
    anchor = domain.switches[-1].id
    extra: list[SwitchSpec] = []
    links: list[tuple[str, str]] = []
    previous = anchor
    for i in range(missing):
        switch_id = f"PAD{i:03d}"
        extra.append(SwitchSpec(switch_id, domain.label))
        links.append((previous, switch_id))
        previous = switch_id
    updated = replace(
        domain,
        switches=domain.switches + tuple(extra),
        links=domain.links + tuple(links),
    )
    return replace(
        scenario, domains=(updated,) + scenario.domains[1:], name=f"{scenario.name}+sw{total}"
    )


def chain_scenario(as_count: int, mode: str = "reactive", enforcement: bool = True) -> Scenario:
    """A source-to-destination world of ``as_count`` domains in a row, each
    with one transit switch between its gateways, used for the multi-domain
    establishment-time experiment.  The probe TTL is the chain's length, so
    the source domain learns every domain's subnet.  The reader checks the
    world as it checks a file: a misspelt ``mode`` is a ``ScenarioError``.
    Domain i takes the subnet 10.i.0.0/24, so a chain has at most 255."""
    if as_count < 1:
        raise ValueError("need at least one domain")
    if as_count > 255:
        raise ValueError(f"a chain has at most 255 domains, one 10.i.0.0/24 subnet each, got {as_count}")
    allow_all = "<" + ", ".join("*" * 13) + ">:<Allow>"
    domains = []
    for i in range(1, as_count + 1):
        transit = f"T{i}"
        switches = [transit]
        links = []
        if i > 1:
            gateway = gateway_name(f"AS{i}", f"AS{i - 1}")
            switches.append(gateway)
            links.append([gateway, transit])
        if i < as_count:
            gateway = gateway_name(f"AS{i}", f"AS{i + 1}")
            switches.append(gateway)
            links.append([transit, gateway])
        hosts = []
        if i == 1:
            hosts.append({"id": "src", "ip": "10.1.0.5", "mac": "00:00:00:00:aa:01", "switch": transit})
        if i == as_count:
            hosts.append({"id": "dst", "ip": f"10.{as_count}.0.9", "mac": "00:00:00:00:aa:02", "switch": transit})
        domains.append(
            {
                "id": f"AS{i}",
                "subnet": f"10.{i}.0.0/24",
                "type": "EDU",
                "label": "SL2",
                "handle_key": f"chain-key-{i}",
                "switches": [{"id": switch, "label": "SL2"} for switch in switches],
                "links": links,
                "hosts": hosts,
                "policies": [f"chain-{i} = {allow_all}"],
            }
        )
    return parse_scenario(
        {
            "name": f"chain-{as_count}",
            "mode": mode,
            "enforcement": enforcement,
            "max_ttl": as_count,
            "domains": domains,
            "links": [[f"AS{i}", f"AS{i + 1}"] for i in range(1, as_count)],
            "traffic": [{"at": 0, "from": "src", "to": "dst", "port": 80, "type": "HTTP"}],
        }
    )


def offer_horizon(scenario: Scenario) -> int:
    """Last tick at which the traffic program is still offering requests; a
    flood second lasts one defense window, as in the simulation."""
    horizon = 0
    for item in scenario.traffic:
        if isinstance(item, FloodSpec):
            horizon = max(horizon, item.at + item.seconds * scenario.window_ticks)
        else:
            horizon = max(horizon, item.at)
    return horizon


# each sweep axis -> the variant of a scenario at one point on it
_VARIANTS = {
    "pe_count": pad_policies,
    "switch_count": pad_switches,
    "as_count": lambda scenario, point: chain_scenario(point, mode=scenario.mode, enforcement=scenario.enforcement),
    "request_rate": Scenario.with_flood_rate,
}
SWEEP_AXES = tuple(_VARIANTS)


def sweep(scenario: Scenario, axis: str, points: list[int]) -> list[tuple[int, MetricsReport]]:
    """One run per point, reports keyed by the axis value."""
    if axis not in _VARIANTS:
        raise ValueError(f"unknown sweep axis {axis!r} (have {SWEEP_AXES})")
    return [(point, run(_VARIANTS[axis](scenario, point))) for point in points]


def flood_response_series(
    scenario: Scenario, rates: list[int]
) -> dict[str, list[tuple[int, float]]]:
    """Attacker flow installations per offered rate under the three response
    policies: no defense at all, threshold throttling, and a block rule."""
    flood = next((item for item in scenario.traffic if isinstance(item, FloodSpec)), None)
    if flood is None:
        raise ValueError(f"scenario {scenario.name!r} has no flood to set a request rate on")
    # a defense response needs a capacity model and enforcement: without
    # either, "threshold" and "drop_rule" would run undefended
    if scenario.capacity is None:
        raise ValueError(f"scenario {scenario.name!r} has no capacity model to run a flood defense with")
    if not scenario.enforcement:
        raise ValueError(f"scenario {scenario.name!r} has enforcement off, and a flood defense runs only with it on")
    attacker_ip = format_ipv4(
        next(h.ip for domain in scenario.domains for h in domain.hosts if h.id == flood.src_host)
    )
    variants = {
        "baseline": replace(scenario, enforcement=False),
        "threshold": replace(scenario, defense_response=ResponseMode.THROTTLE),
        "drop_rule": replace(scenario, defense_response=ResponseMode.DROP_RULE),
    }
    series: dict[str, list[tuple[int, float]]] = {}
    for label, variant in variants.items():
        points = []
        for rate, report in sweep(variant, "request_rate", rates):
            installs = sum(
                1
                for record in report.installs
                if record.src_ip == attacker_ip and not record.provenance.startswith(BLOCK_PROVENANCE_PREFIX)
            )
            points.append((rate, float(installs)))
        series[label] = points
    return series
