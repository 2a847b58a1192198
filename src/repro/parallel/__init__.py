"""repro.parallel: multiprocess query execution over shared memory.

The GIL caps every earlier layer at ~1 core of ADC work.  This package
escapes it with data-parallel worker *processes* that read PQ codes,
attributes, and codebooks from ``multiprocessing.shared_memory`` —
zero-copy, no pickling of vector data:

* :class:`~repro.parallel.shm.SharedIndexStore` — publishes an index's
  arrays into named blocks behind a versioned manifest; republish on
  update, unlink on close.
* :class:`~repro.parallel.shm.SharedIndexSearcher` — deterministic
  range-query execution over the attr-sorted shared layout, reusing the
  exact serial distance kernels.
* :class:`~repro.parallel.pool.WorkerPool` — fork/spawn-safe workers
  with crash detection + respawn, per-task timeouts, and graceful
  shutdown.
* :class:`~repro.parallel.executor.ParallelQueryExecutor` — scatter-
  gather by coarse-cluster slice or by attribute range shard, merging
  partial top-k bitwise-identically to in-process execution, degrading
  to serial when workers are unavailable.

Integration points: ``ParallelQueryExecutor.search_batch(...)`` and
``RangeShardedService.attach_parallel(...)``.  See ``docs/parallel.md``.
"""

from .executor import ParallelQueryExecutor
from .pool import PoolUnavailable, WorkerError, WorkerPool
from .shm import (
    SharedIndexSearcher,
    SharedIndexStore,
    SharedIndexView,
    ShmError,
    extract_index_arrays,
    snapshot_manifest,
)

__all__ = [
    "snapshot_manifest",
    "ParallelQueryExecutor",
    "WorkerPool",
    "WorkerError",
    "PoolUnavailable",
    "SharedIndexStore",
    "SharedIndexView",
    "SharedIndexSearcher",
    "ShmError",
    "extract_index_arrays",
]
