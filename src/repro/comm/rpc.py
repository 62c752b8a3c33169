"""gRPC-style synchronous request/response with deadlines and retries.

An :class:`RpcServer` exposes named methods at a site; an
:class:`RpcClient` calls them across the simulated WAN.  Calls carry a
deadline (client-observed), bounded retries with exponential backoff, and
optional zero-trust verification of *every* call — the M10/M11 middleware
semantics.

Reliability mechanics (deadline accounting, backoff arithmetic, the
attempt race against the clock) live in :mod:`repro.resilience`; this
module only maps them onto RPC error types and the client's public
``stats`` keys.
"""

from __future__ import annotations

import inspect
import itertools
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.comm.message import Envelope, Message, Performative
from repro.comm.serialization import estimate_size
from repro.net.transport import NetworkError
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (Deadline, DeadlineExceeded, RetriesExhausted,
                              RetryPolicy, resilient_call)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.transport import Network
    from repro.sim.kernel import Simulator


class RpcError(Exception):
    """The server raised, or the method does not exist."""


class RpcTimeout(Exception):
    """The client-side deadline elapsed before a response arrived."""


class ServerDown(RpcError):
    """The target server is not accepting calls."""


class RpcServer:
    """A method registry bound to a site.

    Handlers may be plain callables (``payload -> result``) or generator
    functions (``payload -> generator``) when the handler itself needs to
    spend simulated time (e.g. drive an instrument).

    Parameters
    ----------
    handler_delay_s:
        Fixed service time charged per call, on top of whatever the
        handler itself consumes.
    """

    def __init__(self, sim: "Simulator", name: str, site: str,
                 handler_delay_s: float = 0.0005) -> None:
        self.sim = sim
        self.name = name
        self.site = site
        self.handler_delay_s = handler_delay_s
        self.alive = True
        self._methods: dict[str, Callable[..., Any]] = {}
        self.stats = {"calls": 0, "errors": 0}

    def register(self, method: str, handler: Callable[..., Any]) -> None:
        self._methods[method] = handler

    def method(self, name: str) -> Callable:
        """Decorator form of :meth:`register`."""
        def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
            self.register(name, fn)
            return fn
        return deco

    def kill(self) -> None:
        self.alive = False

    def revive(self) -> None:
        self.alive = True

    def dispatch(self, method: str, payload: Any):
        """Generator executing a method; returns its result."""
        self.stats["calls"] += 1
        if not self.alive:
            self.stats["errors"] += 1
            raise ServerDown(self.name)
        handler = self._methods.get(method)
        if handler is None:
            self.stats["errors"] += 1
            raise RpcError(f"{self.name}: no such method {method!r}")
        if self.handler_delay_s > 0:
            yield self.sim.timeout(self.handler_delay_s)
        try:
            if inspect.isgeneratorfunction(handler):
                result = yield self.sim.process(handler(payload))
            else:
                result = handler(payload)
        except (RpcError, RpcTimeout):
            self.stats["errors"] += 1
            raise
        except Exception as exc:
            self.stats["errors"] += 1
            raise RpcError(f"{self.name}.{method} failed: {exc}") from exc
        return result


class RpcClient:
    """Caller-side stub with deadline, retry, and security integration.

    Parameters
    ----------
    sim, network:
        Kernel and transport.
    site:
        The site this client runs at.
    identity:
        Logical caller name stamped on requests.
    gateway:
        Optional zero-trust gateway verifying each request at the server
        edge (continuous authentication).
    token:
        Credential attached to every call (may be refreshed at any time by
        assigning to :attr:`token`).
    metrics:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry`; call
        counters and the per-site ``rpc.call_latency`` histogram report
        into it (E4 reads its p50/p95/p99 straight from the registry).

    Notes
    -----
    Call ids are **per client** (``itertools.count`` on the instance, not
    the module), so two same-seed federations built in one process stamp
    identical conversation ids and trace identically.
    """

    def __init__(self, sim: "Simulator", network: "Network", site: str,
                 identity: str = "client", gateway: Any = None,
                 token: Optional[str] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.network = network
        self.site = site
        self.identity = identity
        self.gateway = gateway
        self.token = token
        self.metrics = metrics or MetricsRegistry()
        self.stats = self.metrics.stats(
            "rpc.client",
            {"calls": 0, "retries": 0, "timeouts": 0,
             "failures": 0, "total_latency": 0.0}, site=site)
        self.latency_hist = self.metrics.histogram("rpc.call_latency",
                                                   site=site)
        self.latencies: list[float] = []
        self._call_ids = itertools.count(1)

    def call(self, server: RpcServer, method: str, payload: Any = None,
             *, deadline_s: float = 5.0, retries: int = 2,
             backoff_s: float = 0.05):
        """Generator: invoke ``server.method(payload)``; returns the result.

        ``yield from client.call(...)`` from inside a process.  Raises
        :class:`RpcTimeout` once the deadline passes (cumulative across
        retries) and propagates server-side :class:`RpcError`.
        """
        self.stats["calls"] += 1
        call_id = next(self._call_ids)
        start = self.sim.now
        policy = RetryPolicy(retries + 1, base_delay_s=backoff_s)
        deadline = Deadline(self.sim, deadline_s)

        def on_retry(_attempt: int, _exc: Optional[BaseException]) -> None:
            self.stats["retries"] += 1

        try:
            result = yield from resilient_call(
                self.sim,
                lambda _n: self._attempt(server, method, payload, call_id),
                policy=policy, deadline=deadline,
                retry_on=(NetworkError, ServerDown),
                name=f"rpc.{server.name}.{method}",
                metrics=self.metrics,
                on_retry=on_retry)
        except RpcError:
            # The server raised or has no such method (a ServerDown past
            # the last retry ends in RetriesExhausted, counted below).
            self.stats["failures"] += 1
            raise
        except DeadlineExceeded:
            self.stats["timeouts"] += 1
            raise RpcTimeout(
                f"{server.name}.{method} deadline after {deadline_s}s"
            ) from None
        except RetriesExhausted as exc:
            self.stats["timeouts"] += 1
            detail = (f" (last error: {exc.last_error})"
                      if exc.last_error is not None else "")
            raise RpcTimeout(
                f"{server.name}.{method} deadline after {deadline_s}s{detail}"
            ) from None
        latency = self.sim.now - start
        self.stats["total_latency"] += latency
        self.latency_hist.observe(latency)
        self.latencies.append(latency)
        return result

    def _attempt(self, server: RpcServer, method: str, payload: Any,
                 call_id: int):
        req = Message(performative=Performative.REQUEST,
                      sender=self.identity, recipient=server.name,
                      payload={"method": method, "args": payload},
                      conversation_id=f"{self.identity}/{call_id}")
        env = Envelope(message=req, src_site=self.site, dst_site=server.site,
                       token=self.token, enqueued_at=self.sim.now)
        yield self.network.send(self.site, server.site, env.size_bytes())
        if self.gateway is not None:
            delay = self.gateway.verify(env, action=f"rpc:{method}")
            if delay > 0:
                yield self.sim.timeout(delay)
        result = yield self.sim.process(server.dispatch(method, payload))
        resp_size = 256.0 + estimate_size(result)
        yield self.network.send(server.site, self.site, resp_size)
        return result
