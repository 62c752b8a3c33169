"""Agent-driven data management (paper dimension 2, §3.2).

Implements the full stack the paper's milestones call for: typed records
and evolvable schemas (:mod:`repro.data.record`, :mod:`repro.data.schema`),
AI-driven metadata extraction (M5, :mod:`repro.data.metadata`), FAIR
scoring and autonomous governance (M6, :mod:`repro.data.fair`),
PROV-O-style provenance (:mod:`repro.data.provenance`), a federated data
mesh with cross-institutional discovery (M6, :mod:`repro.data.mesh`),
near-real-time stream processing with quality assessment (M7,
:mod:`repro.data.quality`, :mod:`repro.data.streams`), and pass-by-reference
data movement (:mod:`repro.data.proxystore`).
"""

from repro.data.fair import FairGovernor, fair_score
from repro.data.mesh import DataMeshNode, DiscoveryIndex, FederatedDataMesh
from repro.data.metadata import Annotation, MetadataExtractor
from repro.data.provenance import ProvenanceGraph
from repro.data.replay import (CampaignArchive, record_campaign,
                               replay_campaign)
from repro.data.shard import ShardedDiscoveryIndex, shard_for
from repro.data.proxystore import Proxy, ProxyStore
from repro.data.quality import AnomalyDetector, QualityAssessor, QualityReport
from repro.data.record import DataRecord
from repro.data.schema import FieldSpec, Schema, SchemaRegistry
from repro.data.streams import StreamProcessor

__all__ = [
    "Annotation",
    "AnomalyDetector",
    "CampaignArchive",
    "DataMeshNode",
    "DataRecord",
    "DiscoveryIndex",
    "FairGovernor",
    "FederatedDataMesh",
    "FieldSpec",
    "MetadataExtractor",
    "ProvenanceGraph",
    "Proxy",
    "ProxyStore",
    "QualityAssessor",
    "QualityReport",
    "Schema",
    "SchemaRegistry",
    "ShardedDiscoveryIndex",
    "StreamProcessor",
    "fair_score",
    "record_campaign",
    "replay_campaign",
    "shard_for",
]
