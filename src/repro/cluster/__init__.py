"""Prefork cluster: multi-process serving under one supervisor.

``repro serve --workers N`` (or ``repro-cluster``) runs N copies of the
PR 3 :class:`~repro.service.server.DiagnosisServer` behind a single port
— ``SO_REUSEPORT`` kernel load-balancing where available, an inherited
listen FD elsewhere — supervised by a single-threaded
:class:`ClusterSupervisor`:

* per-worker control channels (:mod:`repro.cluster.control`) carry
  heartbeats with full metrics registry snapshots;
* dead workers (``kill -9`` included) are reaped and respawned with
  exponential backoff; crash loops trip a per-slot circuit breaker;
* SIGTERM fans out drain-then-exit, SIGHUP does a rolling restart that
  never drops below N-1 live workers;
* the supervisor's control port serves fleet-aggregated ``/metrics``
  (JSON + Prometheus, histograms merged bucket-wise by
  :func:`repro.telemetry.merge_snapshots`) and quorum-based ``/healthz``.

See docs/architecture.md, "Cluster".
"""

from .control import (
    ControlChannelError,
    FrameDecoder,
    MAX_FRAME_BYTES,
    encode_frame,
    send_message,
)
from .supervisor import (
    BROKEN,
    DOWN,
    EXITED,
    READY,
    STARTING,
    STOPPING,
    ClusterSupervisor,
    WorkerSlot,
    default_sharing,
    run_cluster,
)
from .worker import bind_reuseport, worker_main

__all__ = [
    "BROKEN",
    "ClusterSupervisor",
    "ControlChannelError",
    "DOWN",
    "EXITED",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "READY",
    "STARTING",
    "STOPPING",
    "WorkerSlot",
    "bind_reuseport",
    "default_sharing",
    "encode_frame",
    "run_cluster",
    "send_message",
    "worker_main",
]
