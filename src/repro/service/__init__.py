"""Async batch-serving layer for partition-based scan-cell diagnosis.

The one-shot CLI pays netlist compile, golden simulation and cache warm-up
on **every** invocation; this package keeps that state resident in a
long-lived process and serves diagnosis queries over HTTP with dynamic
batching (requests sharing a workload coalesce into one vectorized call),
admission control (bounded queue, 429 + ``Retry-After``), per-request
deadlines and drain-on-SIGTERM.  See docs/architecture.md, "Serving".

Layering (each module only imports the ones above it):

* :mod:`~repro.service.protocol` — wire format, error taxonomy
* :mod:`~repro.service.engine` — cache-pinned batch execution
* :mod:`~repro.service.batching` — bounded queue, dynamic batching
* :mod:`~repro.service.framing` — HTTP/1.1 head parsing and rendering
  (shared with the cluster control port)
* :mod:`~repro.service.server` — asyncio HTTP server, drain, ``repro serve``
* :mod:`~repro.service.client` — stdlib client library
"""

from .batching import BatchQueue, PendingRequest
from .client import ServiceClient, TransportError
from .engine import DiagnosisEngine, WorkloadContext
from .protocol import (
    ERROR_STATUS,
    SCHEMES,
    DiagnoseReply,
    DiagnoseRequest,
    ServiceError,
)
from .server import DEFAULT_PORT, DiagnosisServer, ThreadedServer, serve_main

__all__ = [
    "BatchQueue",
    "DEFAULT_PORT",
    "DiagnoseReply",
    "DiagnoseRequest",
    "DiagnosisEngine",
    "DiagnosisServer",
    "ERROR_STATUS",
    "PendingRequest",
    "SCHEMES",
    "ServiceClient",
    "ServiceError",
    "ThreadedServer",
    "TransportError",
    "WorkloadContext",
    "serve_main",
]
