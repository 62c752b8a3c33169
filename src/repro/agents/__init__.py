"""Stateful federated agents (the actors of §3.3).

- :mod:`repro.agents.base` — the agent base: identity, heartbeats,
  crash/restart semantics.  The orchestrator calls agents' methods
  directly; there is no message passing between them.
- :mod:`repro.agents.llm` — the simulated LLM: a deterministic-seeded
  stochastic reasoner with realistic latency, token cost, and
  hallucination failure modes (see DESIGN.md substitutions).
- :mod:`repro.agents.planner` / :mod:`repro.agents.executor` /
  :mod:`repro.agents.evaluator` — the Planner/Executor/Evaluator roles
  (the CellAgent-style decomposition the paper cites).
- :mod:`repro.agents.lifecycle` — heartbeat supervision and automatic
  restart (fault-tolerant coordination, M3).
"""

from repro.agents.base import Agent, AgentState
from repro.agents.evaluator import EvaluatorAgent
from repro.agents.executor import ExecutorAgent, ExperimentOutcome
from repro.agents.lifecycle import Supervisor
from repro.agents.llm import LLMResponse, SimulatedLLM
from repro.agents.planner import ExperimentPlan, PlannerAgent

__all__ = [
    "Agent",
    "AgentState",
    "EvaluatorAgent",
    "ExecutorAgent",
    "ExperimentOutcome",
    "ExperimentPlan",
    "LLMResponse",
    "PlannerAgent",
    "SimulatedLLM",
    "Supervisor",
]
