"""repro.serve — async multi-tenant detection with streaming deltas.

The serving layer turns the library's sessions into a long-lived,
concurrent *service*: many tenants (each its own database, Σ, and choice
of backend) multiplexed over one asyncio event loop and one thread
executor, with batch DML, lock-free reads, and a per-tenant violation
delta feed::

    from repro.serve import DetectionService

    service = DetectionService(capacity=64)
    await service.create_tenant("acme", db, sigma, backend="memory")

    result, delta = await service.apply("acme", inserts=batch)  # one commit
    report = await service.check("acme")                        # concurrent

    sub = await service.subscribe("acme")
    async for delta in sub:                   # added/removed per commit
        ...

Layering: ``serve`` sits *above* ``repro.api`` — it composes sessions,
never reaches into engines — and nothing under ``api``/``engine``/``core``
may import it (``tools/check_layering.py`` enforces both directions).
The TCP front end lives in :mod:`repro.serve.protocol` and is hosted by
``repro serve`` (see :mod:`repro.cli`).
"""

from repro.serve.feed import (
    DeltaSource,
    SessionDeltaSource,
    Subscription,
    ViolationDelta,
    ViolationFeed,
    diff_records,
    record_delta,
    replay,
    report_records,
)
from repro.serve.protocol import DetectionServer, ProtocolError
from repro.serve.registry import (
    ReaderPool,
    ReadWriteLock,
    SessionRegistry,
    TenantHandle,
)
from repro.serve.service import DetectionService

__all__ = [
    "DeltaSource",
    "DetectionServer",
    "DetectionService",
    "ProtocolError",
    "ReadWriteLock",
    "ReaderPool",
    "SessionDeltaSource",
    "SessionRegistry",
    "Subscription",
    "TenantHandle",
    "ViolationDelta",
    "ViolationFeed",
    "diff_records",
    "record_delta",
    "replay",
    "report_records",
]
