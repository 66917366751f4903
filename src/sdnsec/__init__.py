"""Policy-driven security engine and deterministic multi-domain SDN simulator.

The package splits into a policy core (labels, expressions, two text
formats, match/decide semantics), a topology layer (probe-built
repositories, label-constrained path search), a simulated data plane
(switches with one table per rule shape), the per-domain controller
pipeline with cross-domain handles and transfer tokens, a flooding defense,
and a scenario harness with deterministic metrics, sweeps and a CLI.
"""

from .labels import (
    LabelParseError,
    LabelWindow,
    SecurityLabel,
    parse_label_constraint,
)
from .policy import (
    Action,
    Constraint,
    ConstraintKind,
    DomainInfo,
    EndpointSelector,
    FlowContext,
    PolicyExpression,
    PolicyIndex,
    derive_flow_id,
    format_ipv4,
    match_pe,
    select_policy,
    specificity,
)
from .formats import (
    PolicyParseError,
    format_compact_pe,
    parse_compact_pe,
    parse_ipv4,
    parse_repository,
    serialize_repository,
)
from .topology import (
    Graph,
    find_as_paths,
    find_switch_path,
    gateway_name,
    probe_topology,
)
from .dataplane import (
    ActionKind,
    FlowMatch,
    FlowRule,
    Packet,
    Switch,
    flow_dump,
    format_flow_dump,
)
from .interdomain import (
    DomainKey,
    Handle,
    PolicyTransferToken,
    merge_constraints,
    validate_handle,
)
from .defense import (
    CapacityModel,
    FloodMonitor,
    ResponseMode,
    compute_thresholds,
)
from .controller import Controller, CostModel, DropReason, synthesize_rules
from .scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    list_bundled_scenarios,
    load_scenario,
)
from .metrics import MetricsReport, emit, emit_series
from .simulation import build_world, run
from .sweep import chain_scenario, flood_response_series, sweep

__all__ = [
    "Action",
    "ActionKind",
    "CapacityModel",
    "Constraint",
    "ConstraintKind",
    "Controller",
    "CostModel",
    "DomainInfo",
    "DomainKey",
    "DropReason",
    "EndpointSelector",
    "FloodMonitor",
    "FlowContext",
    "FlowMatch",
    "FlowRule",
    "Graph",
    "Handle",
    "LabelParseError",
    "LabelWindow",
    "MetricsReport",
    "Packet",
    "PolicyExpression",
    "PolicyIndex",
    "PolicyParseError",
    "PolicyTransferToken",
    "ResponseMode",
    "Scenario",
    "ScenarioError",
    "SecurityLabel",
    "Switch",
    "build_world",
    "bundled_scenario_path",
    "chain_scenario",
    "compute_thresholds",
    "derive_flow_id",
    "emit",
    "emit_series",
    "find_as_paths",
    "find_switch_path",
    "flood_response_series",
    "flow_dump",
    "format_compact_pe",
    "format_flow_dump",
    "format_ipv4",
    "gateway_name",
    "list_bundled_scenarios",
    "load_scenario",
    "match_pe",
    "merge_constraints",
    "parse_compact_pe",
    "parse_ipv4",
    "parse_label_constraint",
    "parse_repository",
    "probe_topology",
    "run",
    "select_policy",
    "serialize_repository",
    "specificity",
    "sweep",
    "synthesize_rules",
    "validate_handle",
]

__version__ = "0.1.0"
