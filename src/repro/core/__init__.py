"""AI-agent-driven autonomous orchestration — the AISLE core (§3.3).

- :mod:`repro.core.campaign` — campaign specs and results.
- :mod:`repro.core.verification` — the M8 verification stack: physics
  constraints + digital-twin in-situ checks.
- :mod:`repro.core.orchestrator` — the hierarchical orchestrator
  (LLM-as-orchestrator over sound methods) and its campaign loop.
- :mod:`repro.core.manual` — the human-in-every-loop baseline (E1/E10).
- :mod:`repro.core.knowledge` — cross-facility knowledge integration (M9).
- :mod:`repro.core.faulttol` — fault-tolerant execution (M3, E11).
- :mod:`repro.core.federation` — multi-site lab construction and sample
  logistics.
- :mod:`repro.core.workflow` — dependency-DAG execution of multi-step
  experimental workflows.
- :mod:`repro.core.report` — the canonical :class:`CampaignReport`
  result type (every entry point's plain-data return shape).
- :mod:`repro.core.metrics` — the speedup / reduction arithmetic
  behind the report's arm comparisons.
"""

from repro.core.campaign import CampaignResult, CampaignSpec, ExperimentRecord
from repro.core.faulttol import FaultTolerantExecutor
from repro.core.federation import FederationManager, LabSite
from repro.core.knowledge import KnowledgeBase
from repro.core.manual import ManualOrchestrator
from repro.core.metrics import speedup
from repro.core.orchestrator import HierarchicalOrchestrator
from repro.core.report import CampaignReport
from repro.core.verification import (PhysicsConstraintVerifier,
                                     TwinVerifier, VerificationStack)
from repro.core.workflow import WorkflowDAG, WorkflowStep

__all__ = [
    "CampaignReport",
    "CampaignResult",
    "CampaignSpec",
    "ExperimentRecord",
    "FaultTolerantExecutor",
    "FederationManager",
    "HierarchicalOrchestrator",
    "KnowledgeBase",
    "LabSite",
    "ManualOrchestrator",
    "PhysicsConstraintVerifier",
    "TwinVerifier",
    "VerificationStack",
    "WorkflowDAG",
    "WorkflowStep",
    "speedup",
]
