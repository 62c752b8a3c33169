"""Tests for Resource / Store."""

import pytest

from repro.sim import Resource, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


# -- Resource ----------------------------------------------------------------

def test_resource_capacity_validation(sim):
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_grants_up_to_capacity(sim):
    res = Resource(sim, capacity=2)
    grants = []

    def worker(sim, res, tag):
        with res.request() as req:
            yield req
            grants.append((tag, sim.now))
            yield sim.timeout(10.0)

    for tag in range(3):
        sim.process(worker(sim, res, tag))
    sim.run()
    assert grants == [(0, 0.0), (1, 0.0), (2, 10.0)]


def test_resource_fifo_grant_order(sim):
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, res, tag, hold):
        with res.request() as req:
            yield req
            order.append(tag)
            yield sim.timeout(hold)

    sim.process(worker(sim, res, "a", 5.0))
    sim.process(worker(sim, res, "b", 1.0))
    sim.process(worker(sim, res, "c", 1.0))
    sim.run()
    assert order == ["a", "b", "c"]


def test_resource_counts(sim):
    res = Resource(sim, capacity=1)

    def holder(sim, res):
        with res.request() as req:
            yield req
            assert res.count == 1
            yield sim.timeout(1.0)
            assert res.queue_length == 1

    def waiter(sim, res):
        yield sim.timeout(0.5)
        with res.request() as req:
            yield req

    sim.process(holder(sim, res))
    sim.process(waiter(sim, res))
    sim.run()
    assert res.count == 0
    assert res.queue_length == 0


def test_withdrawing_pending_request(sim):
    res = Resource(sim, capacity=1)
    served = []

    def holder(sim, res):
        with res.request() as req:
            yield req
            yield sim.timeout(10.0)

    def impatient(sim, res):
        req = res.request()
        timeout = sim.timeout(1.0)
        yield req | timeout
        if not req.triggered:
            req.release()  # gave up waiting
            served.append("gave-up")

    def patient(sim, res):
        yield sim.timeout(0.5)
        with res.request() as req:
            yield req
            served.append(("patient", sim.now))

    sim.process(holder(sim, res))
    sim.process(impatient(sim, res))
    sim.process(patient(sim, res))
    sim.run()
    assert "gave-up" in served
    assert ("patient", 10.0) in served


def test_double_release_is_noop(sim):
    res = Resource(sim, capacity=1)

    def worker(sim, res):
        req = res.request()
        yield req
        req.release()
        req.release()  # must not corrupt state

    sim.process(worker(sim, res))
    sim.run()
    assert res.count == 0


# -- Store --------------------------------------------------------------------

def test_store_put_get_fifo(sim):
    store = Store(sim)
    got = []

    def producer(sim, store):
        for i in range(3):
            yield store.put(i)
            yield sim.timeout(1.0)

    def consumer(sim, store):
        for _ in range(3):
            got.append((yield store.get()))

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_item(sim):
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((item, sim.now))

    def producer(sim, store):
        yield sim.timeout(4.0)
        yield store.put("late")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert got == [("late", 4.0)]


def test_bounded_store_blocks_put(sim):
    store = Store(sim, capacity=1)
    events = []

    def producer(sim, store):
        yield store.put("a")
        events.append(("put-a", sim.now))
        yield store.put("b")
        events.append(("put-b", sim.now))

    def consumer(sim, store):
        yield sim.timeout(3.0)
        yield store.get()

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert events == [("put-a", 0.0), ("put-b", 3.0)]


def test_store_capacity_validation(sim):
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_store_len(sim):
    store = Store(sim)
    store.put("x")
    store.put("y")
    sim.run()
    assert len(store) == 2
