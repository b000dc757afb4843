"""Line-delimited JSON over TCP: the service's wire protocol.

One request per line, one response per line (NDJSON) — trivially
scriptable (``nc``, a four-line client, ``examples/serve_demo.py``) and
free of framing code. Every response is an envelope::

    {"ok": true,  "result": ...}
    {"ok": false, "error": "...", "kind": "UnknownTenantError"}

Requests are ``{"op": ..., ...}``:

``ping``                          liveness probe -> ``"pong"``
``tenants``                       registered tenant names (LRU order)
``create``    tenant, backend,    open a tenant; data comes inline as
              rows | path         ``rows`` (``{relation: [row, ...]}``)
                                  or — ``sqlfile`` — as ``path``, a
                                  sqlite file on the server host
``apply``     tenant, inserts,    batch DML; ops are ``[relation, row]``
              deletes             pairs -> counts + this commit's delta
``check``     tenant              full report: total, per-constraint
                                  counts, canonical records
``count``     tenant              totals only
``is_clean``  tenant              boolean verdict
``evict``     tenant              close + drop the tenant
``subscribe`` tenant              dedicates the connection to the delta
                                  stream (see below)

``subscribe`` answers with ``{"seq": N, "baseline": [records...]}`` and
then stops serving requests on that connection: every subsequent line is
an event — ``{"event": "delta", "seq": ..., "removed": [[pos, record],
...], "added": [[pos, record], ...]}`` per commit (removal positions
index the old report, addition positions the new one), and finally
``{"event": "closed",
"reason": "closed" | "lagging"}`` when the tenant is evicted or the
subscriber fell a queue's depth behind (the slow-consumer policy; see
:mod:`repro.serve.feed`).

Violation records cross the wire exactly as :func:`repro.serve.feed.
report_records` shapes them (tuples become JSON arrays); a client
replaying baseline + deltas holds the same report the server would print.

JSON types round-trip the value domains in play (ints stay ints, strings
stay strings), so a row sent over the wire compares equal to the same
row inserted in-process — the conformance suite's protocol test holds
the two paths bit-identical.

A request line may hold at most :data:`MAX_LINE_BYTES` (1 MiB: a batch
of several thousand rows, an inline ``create`` of about ten thousand).
A longer line is answered with a ``ProtocolError`` envelope naming the
limit, after which the server reads past the rest of the line and closes
that connection; other connections are unaffected.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.core.violations import ViolationReport
from repro.engine import DetectionSummary
from repro.errors import ReproError, ServeError
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema
from repro.serve.feed import ViolationDelta, report_records
from repro.serve.service import DetectionService


def _jsonify(value: Any) -> Any:
    """Tuples -> lists, recursively (json.dumps would do it too, but the
    encoders below also build intermediate structures tests compare on)."""
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    if isinstance(value, list):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def encode_report(report: ViolationReport) -> dict[str, Any]:
    return {
        "total": report.total,
        "is_clean": report.is_clean,
        "by_constraint": dict(report.by_constraint()),
        "records": _jsonify(list(report_records(report))),
    }


def encode_summary(summary: DetectionSummary) -> dict[str, Any]:
    return {
        "total": summary.total,
        "is_clean": summary.is_clean,
        "by_constraint": dict(summary.by_constraint()),
    }


def encode_delta(delta: ViolationDelta) -> dict[str, Any]:
    return {
        "seq": delta.seq,
        "removed": _jsonify([[pos, rec] for pos, rec in delta.removed]),
        "added": _jsonify([[pos, rec] for pos, rec in delta.added]),
    }


#: The longest request line the server reads, in bytes (the stream
#: reader's buffer limit).
MAX_LINE_BYTES = 1 << 20


class ProtocolError(ServeError):
    """A malformed request line (bad JSON, missing fields, unknown op)."""


class DetectionServer:
    """TCP front end over one :class:`DetectionService`.

    The server owns the Σ/schema pair (parsed once at startup — the CLI's
    ``--schema``/``--constraints`` files); tenants differ in *data* and
    *backend*. ``start()`` binds, ``serve_forever()`` blocks; tests use
    ``start()`` + explicit requests + ``stop()``.
    """

    def __init__(
        self,
        service: DetectionService,
        schema: DatabaseSchema,
        sigma: Any,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.schema = schema
        self.sigma = sigma
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task[None]] = set()

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise ServeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "DetectionServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Connections parked in readline() (or a delta stream) outlive the
        # listening socket; cancel them so shutdown is quiet and bounded.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self.service.close()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        cancelled = False
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line outgrew the reader's buffer: answer, then
                    # drop the rest of it and end this connection.
                    await self._send(writer, {
                        "ok": False,
                        "error": (
                            f"request line exceeds the {MAX_LINE_BYTES}-byte "
                            "limit"
                        ),
                        "kind": ProtocolError.__name__,
                    })
                    await _skip_line(reader)
                    break
                if not line:
                    break
                try:
                    response, subscription = await self._dispatch(line)
                except (ReproError, ServeError) as exc:
                    response = {
                        "ok": False,
                        "error": str(exc),
                        "kind": type(exc).__name__,
                    }
                    subscription = None
                await self._send(writer, response)
                if subscription is not None:
                    # The connection now belongs to the delta stream.
                    await self._stream(writer, subscription)
                    break
        except asyncio.CancelledError:
            # Server shutdown: end the handler quietly (re-raising would
            # surface as an unhandled task exception in the stream layer).
            cancelled = True
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            if not cancelled:
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass

    async def _send(
        self, writer: asyncio.StreamWriter, payload: dict[str, Any]
    ) -> None:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()

    async def _stream(self, writer: asyncio.StreamWriter, subscription) -> None:
        try:
            async for delta in subscription:
                event = {"event": "delta", **encode_delta(delta)}
                await self._send(writer, event)
            await self._send(
                writer,
                {"event": "closed", "reason": subscription.reason or "closed"},
            )
        except (ConnectionResetError, BrokenPipeError):
            self.service.unsubscribe(subscription.tenant, subscription)

    # -- request dispatch ---------------------------------------------------

    async def _dispatch(self, line: bytes) -> tuple[dict[str, Any], Any]:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request is not valid JSON: {exc}") from exc
        if not isinstance(request, dict) or "op" not in request:
            raise ProtocolError('request must be an object with an "op" key')
        op = request["op"]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ProtocolError(f"unknown op {op!r}")
        result = await handler(request)
        if op == "subscribe":
            payload, subscription = result
            return {"ok": True, "result": payload}, subscription
        return {"ok": True, "result": result}, None

    def _tenant_of(self, request: dict[str, Any]) -> str:
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError('request needs a non-empty "tenant" string')
        return tenant

    @staticmethod
    def _ops_of(request: dict[str, Any], key: str) -> list[tuple[str, Any]]:
        raw = request.get(key, [])
        if not isinstance(raw, list):
            raise ProtocolError(f'"{key}" must be a list of [relation, row]')
        ops: list[tuple[str, Any]] = []
        for item in raw:
            if not isinstance(item, list) or len(item) != 2:
                raise ProtocolError(
                    f'each "{key}" entry must be a [relation, row] pair'
                )
            relation, row = item
            ops.append((relation, row))
        return ops

    # -- ops ----------------------------------------------------------------

    async def _op_ping(self, request: dict[str, Any]) -> str:
        return "pong"

    async def _op_tenants(self, request: dict[str, Any]) -> list[str]:
        return self.service.tenants()

    async def _op_create(self, request: dict[str, Any]) -> dict[str, Any]:
        tenant = self._tenant_of(request)
        backend = request.get("backend", "memory")
        if "path" in request:
            db: DatabaseInstance | str = str(request["path"])
        else:
            rows = request.get("rows", {})
            if not isinstance(rows, dict):
                raise ProtocolError('"rows" must map relation -> list of rows')
            instance = DatabaseInstance(self.schema)
            for relation, relation_rows in rows.items():
                target = instance[relation]
                for row in relation_rows:
                    target.add(row)
            db = instance
        handle = await self.service.create_tenant(
            tenant, db, self.sigma, backend=backend
        )
        return {"tenant": handle.name, "backend": handle.session.backend.name}

    async def _op_apply(self, request: dict[str, Any]) -> dict[str, Any]:
        tenant = self._tenant_of(request)
        result, delta = await self.service.apply(
            tenant,
            inserts=self._ops_of(request, "inserts"),
            deletes=self._ops_of(request, "deletes"),
        )
        return {
            "inserted": result.inserted,
            "deleted": result.deleted,
            "delta": encode_delta(delta),
        }

    async def _op_check(self, request: dict[str, Any]) -> dict[str, Any]:
        return encode_report(
            await self.service.check(self._tenant_of(request))
        )

    async def _op_count(self, request: dict[str, Any]) -> dict[str, Any]:
        return encode_summary(
            await self.service.count(self._tenant_of(request))
        )

    async def _op_is_clean(self, request: dict[str, Any]) -> bool:
        return await self.service.is_clean(self._tenant_of(request))

    async def _op_evict(self, request: dict[str, Any]) -> bool:
        return await self.service.evict(self._tenant_of(request))

    async def _op_subscribe(self, request: dict[str, Any]):
        tenant = self._tenant_of(request)
        maxsize = request.get("maxsize")
        subscription = await self.service.subscribe(tenant, maxsize=maxsize)
        payload = {
            "seq": subscription.seq,
            "baseline": _jsonify(list(subscription.baseline)),
        }
        return payload, subscription


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Read and discard up to the next newline (or end of stream),
    buffering at most one reader limit at a time."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return


__all__ = [
    "MAX_LINE_BYTES",
    "DetectionServer",
    "ProtocolError",
    "encode_delta",
    "encode_report",
    "encode_summary",
]
