"""repro.service — multi-tenant campaign-as-a-service (PR 6 tentpole).

The unified front door for running campaigns at facility scale:
:class:`CampaignService` multiplexes thousands of concurrent campaigns
from many tenants over a shared pool of facility slots, with admission
control (quotas, bounded queues, budgets), fair-share + deadline
scheduling, explicit backpressure, and ``service.*`` observability —
all on simulated time, hash-verifiable under :mod:`repro.scale`.

Layout
------
``errors``     — admission-rejection and handle exception taxonomy
``tenants``    — quotas, live usage accounting, Jain fairness
``handle``     — :class:`CampaignHandle` / :class:`CampaignStatus`
``scheduler``  — weighted-fair-queuing + EDF
``service``    — :class:`CampaignService` + :class:`FacilitySlot`
``loadgen``    — deterministic open/closed-loop load generation
"""

from repro.service.errors import (AdmissionError, BudgetExhausted,
                                  CampaignCancelled, CampaignFailed,
                                  CampaignNotDone, DeadlineExpired, QueueFull,
                                  ServiceError, UnknownTenant)
from repro.service.handle import (TERMINAL_STATUSES, CampaignHandle,
                                  CampaignStatus)
from repro.service.loadgen import LoadGenerator, TenantLoad, synthetic_runner
from repro.service.scheduler import FairShareScheduler, QueueEntry
from repro.service.service import CampaignRunner, CampaignService, FacilitySlot
from repro.service.tenants import (DEFAULT_QUOTA, TenantQuota, TenantState,
                                   jain_fairness)

__all__ = [
    "AdmissionError",
    "BudgetExhausted",
    "CampaignCancelled",
    "CampaignFailed",
    "CampaignHandle",
    "CampaignNotDone",
    "CampaignRunner",
    "CampaignService",
    "CampaignStatus",
    "DEFAULT_QUOTA",
    "DeadlineExpired",
    "FacilitySlot",
    "FairShareScheduler",
    "LoadGenerator",
    "QueueEntry",
    "QueueFull",
    "ServiceError",
    "TenantLoad",
    "TenantQuota",
    "TenantState",
    "TERMINAL_STATUSES",
    "UnknownTenant",
    "jain_fairness",
    "synthetic_runner",
]
