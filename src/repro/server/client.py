"""Minimal asyncio HTTP/1.1 client for the partition server.

Used by the server tests and the closed-loop load harness
(``benchmarks/bench_service_load.py``): a persistent keep-alive
:class:`Connection` (one per simulated client) plus a one-shot
:func:`fetch` helper.  Only what the server speaks is implemented —
``Content-Length`` bodies, no chunked encoding, no redirects, no TLS.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

__all__ = ["ClientResponse", "Connection", "fetch"]


@dataclass
class ClientResponse:
    """One parsed HTTP response.

    Attributes:
        status: HTTP status code.
        headers: Header map with lower-cased names.
        body: Raw response body.
    """

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict | list:
        """Decode the body as JSON."""
        return json.loads(self.body.decode("utf-8"))


class Connection:
    """A persistent keep-alive connection to the server.

    Usage::

        conn = await Connection.open("127.0.0.1", 8077)
        resp = await conn.request("GET", "/healthz")
        await conn.close()
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> ClientResponse:
        """Send one request and read its complete response."""
        lines = [f"{method} {path} HTTP/1.1", "Host: repro"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
        self._writer.write(head + (body or b""))
        await self._writer.drain()
        return await self._read_response()

    async def post_json(self, path: str, payload: dict | list) -> ClientResponse:
        """POST a JSON payload (the common case for /partition, /batch)."""
        return await self.request(
            "POST",
            path,
            json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )

    async def partition(self, request) -> ClientResponse:
        """POST one partition request (a wire dict or a
        :class:`~repro.service.requests.PartitionRequest`)."""
        if hasattr(request, "to_wire"):
            request = request.to_wire()
        return await self.post_json("/partition", request)

    async def repartition(self, request) -> ClientResponse:
        """POST one rebalance (a wire dict or a
        :class:`~repro.service.requests.PartitionRequest` with an
        ``old_assignment``) to ``/repartition``."""
        if hasattr(request, "to_wire"):
            request = request.to_wire()
        return await self.post_json("/repartition", request)

    async def _read_response(self) -> ClientResponse:
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ValueError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if not line:
                raise ConnectionResetError("server closed mid-headers")
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", 0))
        if length:
            body = await self._reader.readexactly(length)
        return ClientResponse(status=status, headers=headers, body=body)

    def abort(self) -> None:
        """Tear the connection down immediately (simulates a dead client)."""
        self._writer.close()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "Connection":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


async def fetch(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes | None = None,
) -> ClientResponse:
    """One-shot request on a fresh connection."""
    conn = await Connection.open(host, port)
    try:
        return await conn.request(method, path, body)
    finally:
        await conn.close()
