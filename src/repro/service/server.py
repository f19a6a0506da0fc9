"""Line-JSON TCP front-end over a :class:`ServiceClient`.

Protocol: one JSON object per line in each direction.  Requests carry
an ``op`` plus op-specific fields; responses always carry ``ok`` and
either the payload or an ``error`` string.

==========  =======================================  =====================
op          request fields                           response payload
==========  =======================================  =====================
ping        —                                        ``{"pong": true}``
submit      ``spec`` (JobSpec JSON), ``wait`` bool,  digest, status[, record]
            optional ``trace`` (wire trace context)
wait        ``digest``, optional ``timeout``         digest, status, record
status      —                                        scheduler/store stats
metrics     optional ``format`` ("json" default,     metrics snapshot or
            or "prometheus")                         Prometheus text
trace       optional ``clear`` bool                  collected span dicts
trace_push  ``spans`` (span-dict list)               accepted count
drain       optional ``timeout``                     drained bool + stats
shutdown    —                                        ``{"stopping": true}``
==========  =======================================  =====================

Telemetry crosses the wire in both directions: ``submit`` accepts the
remote caller's trace context (the server's per-request span becomes
its child, and the whole scheduler/worker span tree hangs below that),
``trace_push`` lets a remote client contribute its own client-side
spans, and ``trace`` hands the stitchable fragments back.  The server
also books a ``server.request_s{op=...}`` latency histogram and
request/byte counters per op into the client's metrics registry.

Blocking scheduler calls run in worker threads (``asyncio.to_thread``),
so one slow job never stalls the event loop or other connections.

Transport failures are typed: a dropped connection or a truncated
response line surfaces from :func:`request_sync` as
:class:`TransportError` (a ``ServiceError``), never a bare decode
error.  The matching :mod:`repro.faultline` sites —
``server.conn.drop`` and ``server.write.partial``, scoped per request
as ``{op}#r{index}`` — exercise exactly those paths.
"""

from __future__ import annotations

import asyncio
import json
import socket

from repro.faultline import hooks as _fault_hooks
from repro.obs.metrics import render_prometheus
from repro.obs.stitch import now_ns
from repro.obs.tracectx import TraceContext
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
from repro.service.scheduler import JobHandle, ServiceError


class TransportError(ServiceError):
    """The TCP transport failed mid-request (drop / truncated response)."""


class ServiceServer:
    """Asyncio TCP server exposing a ServiceClient on a socket.

    Args:
        client: the service to expose (owned by the caller).
        host/port: bind address; port 0 picks a free port (read
            ``server.port`` after :meth:`start`).
    """

    def __init__(
        self, client: ServiceClient, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.client = client
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._handles: dict[str, JobHandle] = {}
        self._stop = asyncio.Event()

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` op arrives (or the task is cancelled)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._stop.wait()

    async def stop(self) -> None:
        """Stop accepting connections and wake :meth:`serve_forever`."""
        self._stop.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------ connection
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            req_idx = 0
            while True:
                line = await reader.readline()
                if not line:
                    break
                request: dict | None = None
                t0 = now_ns()
                try:
                    request = json.loads(line)
                    response = await self._dispatch(request)
                except ServiceError as exc:
                    response = {"ok": False, "error": str(exc)}
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError) as exc:
                    response = {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                op = request.get("op") if isinstance(request, dict) else "?"
                registry = self.client.metrics
                if registry is not None:
                    registry.histogram("server.request_s", op=str(op)).observe(
                        (now_ns() - t0) / 1e9
                    )
                    registry.counter(
                        "server.requests", op=str(op),
                        ok=str(bool(response.get("ok"))).lower(),
                    ).inc()
                    registry.counter("server.bytes_in").inc(len(line))
                scope = f"{op}#r{req_idx}"
                req_idx += 1
                if _fault_hooks.should_fire("server.conn.drop", scope):
                    break  # drop without responding; client sees a typed error
                payload = (json.dumps(response) + "\n").encode()
                if registry is not None:
                    registry.counter("server.bytes_out").inc(len(payload))
                if _fault_hooks.should_fire("server.write.partial", scope):
                    # Torn write: ship a prefix with no line terminator,
                    # then close — the client must refuse to parse it.
                    writer.write(payload[: max(1, len(payload) // 2)])
                    await writer.drain()
                    break
                writer.write(payload)
                await writer.drain()
                if request_is_shutdown(response):
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "submit":
            spec = JobSpec.from_json(request["spec"])
            srv_ctx = None
            begin = now_ns()
            if self.client.traces is not None:
                remote = TraceContext.from_wire(request.get("trace"))
                srv_ctx = (
                    remote.child() if remote is not None
                    else TraceContext.root()
                )
            handle = self.client.submit(spec, trace=srv_ctx)
            if srv_ctx is not None:
                self.client.traces.span(
                    f"server.request:{spec.label}", "server",
                    begin, now_ns(), ctx=srv_ctx,
                    args={"op": "submit", "digest": handle.digest[:12]},
                )
            self._handles[handle.digest] = handle
            out = {
                "ok": True,
                "digest": handle.digest,
                "status": handle.status.value,
                "from_cache": handle.from_cache,
            }
            if request.get("wait"):
                return await self._await_handle(
                    handle, request.get("timeout")
                )
            return out
        if op == "wait":
            handle = self._handles.get(request["digest"])
            if handle is None:
                return {
                    "ok": False,
                    "error": f"unknown digest {request['digest']!r}",
                }
            return await self._await_handle(handle, request.get("timeout"))
        if op == "status":
            return {"ok": True, "stats": self.client.stats()}
        if op == "metrics":
            snapshot = self.client.metrics_snapshot()
            if snapshot is None:
                return {"ok": False, "error": "metrics are not enabled"}
            if request.get("format") == "prometheus":
                return {"ok": True, "text": render_prometheus(snapshot)}
            return {"ok": True, "metrics": snapshot}
        if op == "trace":
            if self.client.traces is None:
                return {"ok": False, "error": "tracing is not enabled"}
            spans = self.client.traces.spans()
            if request.get("clear"):
                self.client.traces.clear()
            return {"ok": True, "spans": spans}
        if op == "trace_push":
            if self.client.traces is None:
                return {"ok": False, "error": "tracing is not enabled"}
            spans = request.get("spans") or []
            if not isinstance(spans, list):
                raise ValueError("trace_push spans must be a list")
            self.client.traces.extend(spans)
            return {"ok": True, "accepted": len(spans)}
        if op == "drain":
            drained = await asyncio.to_thread(
                self.client.drain, request.get("timeout")
            )
            return {"ok": True, "drained": drained,
                    "stats": self.client.stats()}
        if op == "shutdown":
            self._stop.set()
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _await_handle(
        self, handle: JobHandle, timeout: float | None
    ) -> dict:
        try:
            record = await asyncio.to_thread(handle.result, timeout)
        except (ServiceError, TimeoutError) as exc:
            return {
                "ok": False,
                "digest": handle.digest,
                "status": handle.status.value,
                "error": str(exc),
            }
        return {
            "ok": True,
            "digest": handle.digest,
            "status": handle.status.value,
            "from_cache": handle.from_cache,
            "record": record,
        }


def request_is_shutdown(response: dict) -> bool:
    """Whether a response ends the connection (shutdown acknowledged)."""
    return bool(response.get("stopping"))


def request_sync(host: str, port: int, payload: dict, timeout: float = 30.0) -> dict:
    """One synchronous request/response round trip (CLI helper).

    Opens a fresh connection, sends one line, reads one line back.
    A connection dropped before the full response line arrives raises
    :class:`TransportError` — a truncated payload is never parsed.
    """
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall((json.dumps(payload) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            try:
                chunk = sock.recv(65536)
            except OSError as exc:
                raise TransportError(
                    f"connection error mid-response: {exc}"
                ) from exc
            if not chunk:
                break
            buf += chunk
    if not buf.endswith(b"\n"):
        if not buf:
            raise TransportError(
                f"server at {host}:{port} dropped the connection "
                "before responding"
            )
        raise TransportError(
            f"server sent a truncated response ({len(buf)} bytes, "
            "no line terminator)"
        )
    try:
        return json.loads(buf)
    except json.JSONDecodeError as exc:
        raise TransportError(f"malformed response line: {exc}") from exc
