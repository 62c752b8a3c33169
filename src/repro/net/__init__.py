"""Federated multi-institution network substrate.

Models the wide-area connectivity between AISLE sites: per-link latency,
jitter, bandwidth and loss; latency-weighted routing across the topology;
and a fault injector for link failures and network partitions (exercised by
experiments E4 and E11).

Time units are **seconds**, sizes are **bytes**, bandwidth is **bytes/s**.
"""

from repro.net.faults import FaultInjector
from repro.net.topology import Link, NoPath, Site, Topology
from repro.net.transport import Network, NetworkError, PacketLost, Unreachable

__all__ = [
    "FaultInjector",
    "Link",
    "Network",
    "NetworkError",
    "NoPath",
    "PacketLost",
    "Site",
    "Topology",
    "Unreachable",
]
