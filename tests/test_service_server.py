"""TCP front-end: line-JSON protocol round trips over a real socket."""

from __future__ import annotations

import asyncio
import json

from repro.service import JobSpec, MemoryStore, ServiceClient, ServiceServer
from repro.service.server import request_sync


def stub_runner(spec: JobSpec) -> dict:
    """Instant fake evaluation (the server's behavior is what's under
    test, not the simulator)."""
    return {"bench": spec.bench, "seed": spec.seed, "ran": True}


async def _rpc(reader, writer, payload: dict) -> dict:
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=30)
    return json.loads(line)


def test_server_protocol_end_to_end():
    async def main() -> None:
        store = MemoryStore()
        with ServiceClient(store=store, shards=2, executor="inline",
                           runner=stub_runner) as client:
            server = ServiceServer(client, port=0)
            await server.start()
            serve_task = asyncio.create_task(server.serve_forever())
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )

            response = await _rpc(reader, writer, {"op": "ping"})
            assert response == {"ok": True, "pong": True}

            spec = JobSpec(bench="lbm", profile="mini", seed=1)
            response = await _rpc(
                reader, writer,
                {"op": "submit", "spec": spec.to_json(), "wait": True,
                 "timeout": 30},
            )
            assert response["ok"]
            assert response["status"] == "completed"
            assert response["record"]["ran"] is True
            digest = response["digest"]
            assert digest == spec.digest()

            # Async submit then explicit wait.
            spec2 = JobSpec(bench="lbm", profile="mini", seed=2)
            response = await _rpc(
                reader, writer, {"op": "submit", "spec": spec2.to_json()}
            )
            assert response["ok"]
            response = await _rpc(
                reader, writer,
                {"op": "wait", "digest": response["digest"], "timeout": 30},
            )
            assert response["ok"] and response["record"]["seed"] == 2

            # Resubmitting the first spec hits the content-addressed cache.
            response = await _rpc(
                reader, writer,
                {"op": "submit", "spec": spec.to_json(), "wait": True,
                 "timeout": 30},
            )
            assert response["ok"] and response["from_cache"]

            response = await _rpc(reader, writer, {"op": "status"})
            assert response["ok"]
            assert response["stats"]["cache_hits"] == 1
            assert response["stats"]["store"]["entries"] == 2

            response = await _rpc(
                reader, writer, {"op": "drain", "timeout": 30}
            )
            assert response["ok"] and response["drained"]

            # Malformed input gets an error response, not a dropped
            # connection.
            response = await _rpc(reader, writer, {"op": "no-such-op"})
            assert not response["ok"] and "unknown op" in response["error"]

            # The sync helper (the CLI's transport) works concurrently.
            sync_response = await asyncio.to_thread(
                request_sync, "127.0.0.1", server.port, {"op": "status"}
            )
            assert sync_response["ok"]

            response = await _rpc(reader, writer, {"op": "shutdown"})
            assert response["ok"] and response["stopping"]
            writer.close()
            await asyncio.wait_for(serve_task, timeout=10)

    asyncio.run(main())


def test_server_rejects_bad_spec():
    async def main() -> None:
        with ServiceClient(executor="inline", runner=stub_runner) as client:
            server = ServiceServer(client, port=0)
            await server.start()
            serve_task = asyncio.create_task(server.serve_forever())
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            response = await _rpc(
                reader, writer,
                {"op": "submit", "spec": {"profile": "not-a-profile"}},
            )
            assert not response["ok"]
            assert "profile" in response["error"]
            response = await _rpc(
                reader, writer,
                {"op": "submit", "spec": {"kind": "synthetic",
                                          "bench": "synthetic",
                                          "profile": "mini",
                                          "sanitize": "bogus"}},
            )
            assert not response["ok"]
            assert "sanitize" in response["error"]
            response = await _rpc(reader, writer, {"op": "shutdown"})
            assert response["ok"]
            writer.close()
            await asyncio.wait_for(serve_task, timeout=10)

    asyncio.run(main())
