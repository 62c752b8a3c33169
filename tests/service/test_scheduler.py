"""Fair-share/EDF scheduler unit tests (no simulator needed)."""

from repro.service.scheduler import FairShareScheduler, QueueEntry


class _Handle:
    """Minimal stand-in for CampaignHandle in pure scheduler tests."""

    def __init__(self, submitted_at=0.0):
        self.submitted_at = submitted_at


def entry(seq, tenant, cost=1.0, priority=0, deadline=None):
    return QueueEntry(seq=seq, tenant=tenant, handle=_Handle(), cost=cost,
                      priority=priority, deadline=deadline)


def everyone(_tenant):
    return True


def drain(sched, eligible=everyone, limit=100):
    out = []
    for _ in range(limit):
        e = sched.select(eligible)
        if e is None:
            break
        out.append(e)
    return out


def test_equal_shares_alternate():
    sched = FairShareScheduler()
    sched.register("a")
    sched.register("b")
    for i in range(4):
        sched.enqueue(entry(2 * i, "a"))
        sched.enqueue(entry(2 * i + 1, "b"))
    order = [e.tenant for e in drain(sched)]
    assert order == ["a", "b"] * 4


def test_weighted_shares_bias_throughput():
    sched = FairShareScheduler()
    sched.register("small", share=1.0)
    sched.register("big", share=3.0)
    for i in range(12):
        sched.enqueue(entry(2 * i, "small"))
        sched.enqueue(entry(2 * i + 1, "big"))
    first8 = [e.tenant for e in drain(sched)[:8]]
    assert first8.count("big") == 6
    assert first8.count("small") == 2


def test_priority_orders_within_tenant():
    sched = FairShareScheduler()
    sched.register("a")
    sched.enqueue(entry(0, "a", priority=0))
    sched.enqueue(entry(1, "a", priority=5))
    sched.enqueue(entry(2, "a", priority=0))
    assert [e.seq for e in drain(sched)] == [1, 0, 2]


def test_deadline_orders_within_tenant():
    sched = FairShareScheduler()
    sched.register("a")
    sched.enqueue(entry(0, "a"))                    # no deadline -> last
    sched.enqueue(entry(1, "a", deadline=500.0))
    sched.enqueue(entry(2, "a", deadline=100.0))
    assert [e.seq for e in drain(sched)] == [2, 1, 0]


def test_far_deadline_does_not_preempt():
    sched = FairShareScheduler()
    sched.register("a")
    sched.register("b")
    # Deadlines order entries within a tenant only: b's deadline does
    # not jump a, whose virtual time ties and who registered first.
    sched.enqueue(entry(0, "a"))
    sched.enqueue(entry(1, "b", deadline=10_000.0))
    assert sched.select(everyone).tenant == "a"


def test_ineligible_tenant_skipped_but_keeps_queue():
    sched = FairShareScheduler()
    sched.register("a")
    sched.register("b")
    sched.enqueue(entry(0, "a"))
    sched.enqueue(entry(1, "b"))
    picked = sched.select(lambda t: t != "a")
    assert picked.tenant == "b"
    # a's entry stayed queued: an unrestricted select returns it next.
    assert sched.select(everyone).tenant == "a"
    assert sched.select(everyone) is None


def test_cancelled_entries_pruned_lazily():
    sched = FairShareScheduler()
    sched.register("a")
    e0, e1 = entry(0, "a"), entry(1, "a")
    sched.enqueue(e0)
    sched.enqueue(e1)
    assert sched.remove(e0) is True
    assert sched.remove(e0) is False  # idempotent
    assert sched.select(everyone) is e1
    assert sched.select(everyone) is None


def test_idle_tenant_rejoins_at_virtual_floor():
    sched = FairShareScheduler()
    sched.register("busy")
    sched.register("idle")
    for i in range(10):
        sched.enqueue(entry(i, "busy"))
    drain(sched)
    # idle never queued anything; when it finally shows up it must not
    # have banked 10 dispatches of credit and starve the busy tenant.
    sched.enqueue(entry(100, "idle"))
    sched.enqueue(entry(101, "idle"))
    sched.enqueue(entry(102, "busy"))
    order = [e.tenant for e in drain(sched)]
    assert order[:2] == ["idle", "busy"]


def test_empty_select_returns_none():
    sched = FairShareScheduler()
    sched.register("a")
    assert sched.select(everyone) is None

