"""Shared-resource primitives: capacity-limited resources and object stores.

These back every queueing construct in AISLE: instrument duty cycles
(:class:`Resource`) and message and stream queues (:class:`Store`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource
        resource._queue.append(self)
        resource._trigger()

    def release(self) -> None:
        """Give the slot back (or withdraw a still-pending request)."""
        self.resource._release(self)

    # Context-manager sugar: ``with res.request() as req: yield req``.
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class Resource:
    """A resource with ``capacity`` interchangeable slots (FIFO grant order).

    Examples
    --------
    >>> def worker(sim, res):
    ...     with res.request() as req:
    ...         yield req           # wait for a slot
    ...         yield sim.timeout(1.0)
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = int(capacity)
        self._users: list[Request] = []
        self._queue: list[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        return Request(self)

    def _trigger(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            req = self._queue.pop(0)
            self._users.append(req)
            req.succeed(req)

    def _release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
        elif request in self._queue:
            self._queue.remove(request)
        else:
            return  # already released: releasing twice is a no-op
        self._trigger()


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.sim)
        self.item = item


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.sim)


class Store:
    """An unordered-capacity FIFO store of arbitrary items.

    ``put(item)`` returns an event that fires once the item is accepted
    (immediately unless the store is full); ``get()`` returns an event that
    fires with the oldest item once one is available.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: list[Any] = []
        self._putters: list[StorePut] = []
        self._getters: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        ev = StorePut(self, item)
        self._putters.append(ev)
        self._dispatch()
        return ev

    def get(self) -> StoreGet:
        ev = StoreGet(self)
        self._getters.append(ev)
        self._dispatch()
        return ev

    # -- internals ----------------------------------------------------------

    def _accept_puts(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            put = self._putters.pop(0)
            self.items.append(put.item)
            put.succeed()

    def _dispatch(self) -> None:
        # Alternate accepting puts and serving gets until neither makes
        # progress, so a bounded store hands slots over FIFO.
        progressed = True
        while progressed:
            progressed = False
            self._accept_puts()
            remaining: list[StoreGet] = []
            for getter in self._getters:
                if self.items:
                    getter.succeed(self.items.pop(0))
                    progressed = True
                else:
                    remaining.append(getter)
            self._getters = remaining
