"""repro.service: the concurrent serving layer.

Turns the RangePQ / RangePQ+ library into a servable engine:

* :class:`~repro.service.engine.IndexService` — snapshot-isolated reads
  sharing an RW lock's read side, serialized writes, deferred
  maintenance, WAL durability.
* :class:`~repro.service.engine.GlobalLockService` — the one-big-lock
  baseline the throughput benchmark compares against.
* :class:`~repro.service.maintenance.MaintenanceDaemon` — background
  thread paying rebuild/snapshot debt off the request path.
* :class:`~repro.service.wal.WriteAheadLog` / :func:`recover_index` —
  append-only durability and crash recovery.
* :class:`~repro.service.router.RangeShardedService` — attribute-range
  sharding with scatter-gather queries.
* :class:`~repro.service.admission.AdmissionController` — bounded queues
  with load shedding.
* :func:`~repro.service.loadgen.run_load` — closed-loop workload driver.

See ``docs/service.md`` for the architecture.
"""

from .admission import AdmissionController, AdmissionError, AdmissionStats
from .engine import GlobalLockService, IndexService, RWLock, ServiceStats
from .loadgen import LoadReport, OpStats, WorkloadSpec, run_load
from .maintenance import MaintenanceDaemon, MaintenanceStats
from .router import RangeShardedService, merge_topk, quantile_boundaries
from .wal import (
    WALError,
    WalCursor,
    WriteAheadLog,
    latest_snapshot,
    record_from_payload,
    recover_index,
)

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionStats",
    "GlobalLockService",
    "IndexService",
    "RWLock",
    "ServiceStats",
    "LoadReport",
    "OpStats",
    "WorkloadSpec",
    "run_load",
    "MaintenanceDaemon",
    "MaintenanceStats",
    "RangeShardedService",
    "merge_topk",
    "quantile_boundaries",
    "WALError",
    "WalCursor",
    "WriteAheadLog",
    "latest_snapshot",
    "record_from_payload",
    "recover_index",
]
