"""Near-real-time stream processing (milestone M7).

"Near real-time data streams from modern instruments generate volumes that
exceed human processing capabilities, requiring intelligent filtering and
prioritization mechanisms that can distinguish between routine
measurements and anomalous conditions requiring immediate attention."

The :class:`StreamProcessor` is a simulation process draining a record
queue: every record is quality-assessed; anomalies trigger alert
callbacks immediately; routine records are *reduced* (only one in
``keep_every`` is retained) while anomalous or low-quality records are
always kept.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.data.quality import QualityAssessor
from repro.data.record import DataRecord
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.mesh import DataMeshNode
    from repro.sim.kernel import Simulator


class StreamProcessor:
    """High-velocity record pipeline with intelligent reduction.

    Parameters
    ----------
    sim:
        Kernel.
    assessor:
        Quality layer applied to every record.
    sink:
        Optional mesh node that retained records are ingested into.
    keep_every:
        Retention stride for routine records (1 = keep everything).
    per_record_s:
        Processing cost per record — the capacity bound that makes
        backlog measurable.
    """

    #: Quality score below which the alert callback fires.
    ALERT_THRESHOLD = 0.5

    def __init__(self, sim: "Simulator", assessor: QualityAssessor,
                 sink: Optional["DataMeshNode"] = None, *,
                 keep_every: int = 10, per_record_s: float = 0.002,
                 on_alert: Optional[Callable[[DataRecord, Any], None]] = None
                 ) -> None:
        if keep_every < 1:
            raise ValueError("keep_every must be >= 1")
        self.sim = sim
        self.assessor = assessor
        self.sink = sink
        self.keep_every = keep_every
        self.per_record_s = per_record_s
        self.on_alert = on_alert
        self.queue: Store = Store(sim)
        self.retained: list[DataRecord] = []
        self.stats = {"processed": 0, "retained": 0, "reduced": 0,
                      "alerts": 0, "max_backlog": 0,
                      "busy_time": 0.0}
        self._routine_counter = 0
        self._running = False

    # -- producer side ------------------------------------------------------------

    def submit(self, record: DataRecord) -> None:
        """Enqueue a record (instruments call this as data is born)."""
        self.queue.put(record)
        backlog = len(self.queue)
        if backlog > self.stats["max_backlog"]:
            self.stats["max_backlog"] = backlog

    # -- the pipeline process ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the draining process."""
        if self._running:
            raise RuntimeError("stream processor already running")
        self._running = True
        self.sim.process(self._run())

    def _run(self):
        while True:
            record: DataRecord = yield self.queue.get()
            t0 = self.sim.now
            yield self.sim.timeout(self.per_record_s)
            self._process(record)
            self.stats["busy_time"] += self.sim.now - t0

    def _process(self, record: DataRecord) -> None:
        self.stats["processed"] += 1
        report = self.assessor.assess(record)
        critical = report.anomalous or report.score < self.ALERT_THRESHOLD
        if critical:
            self.stats["alerts"] += 1
            if self.on_alert is not None:
                self.on_alert(record, report)
        # Intelligent reduction: anomalies always retained; routine
        # records are decimated.
        if critical:
            self._retain(record)
            return
        self._routine_counter += 1
        if self._routine_counter % self.keep_every == 0:
            self._retain(record)
        else:
            self.stats["reduced"] += 1

    def _retain(self, record: DataRecord) -> None:
        self.stats["retained"] += 1
        self.retained.append(record)
        if self.sink is not None:
            self.sink.ingest(record)

    # -- metrics ----------------------------------------------------------------------------

    @property
    def backlog(self) -> int:
        return len(self.queue)

    def reduction_ratio(self) -> float:
        """Fraction of routine traffic dropped by intelligent reduction."""
        if not self.stats["processed"]:
            return 0.0
        return self.stats["reduced"] / self.stats["processed"]

    def throughput(self) -> float:
        """Records per second of busy time."""
        busy = self.stats["busy_time"]
        return self.stats["processed"] / busy if busy > 0 else 0.0
