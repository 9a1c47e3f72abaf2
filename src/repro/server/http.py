"""Minimal HTTP/1.1 framing over asyncio streams.

Just enough protocol for the partition server — request-line + header
parsing, ``Content-Length`` bodies, keep-alive bookkeeping, and
response rendering — with hard limits on header and body sizes so a
misbehaving client cannot balloon server memory.  Deliberately *not* a
general web server: no chunked transfer encoding (a client sending it
gets ``501``), no multipart, no TLS, no HTTP/2.

Errors during parsing raise :class:`HTTPError`, which carries the HTTP
status, a machine-readable ``code``, and optional extra headers; the
application layer renders every ``HTTPError`` as a structured JSON
error body (``{"error": {"status": ..., "code": ..., "message": ...}}``).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from urllib.parse import parse_qsl

import numpy as np

from .._native import LIB as _NATIVE

__all__ = [
    "BodyTemplate",
    "HTTPError",
    "HTTPRequest",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "STATUS_PHRASES",
    "decode_json_body",
    "error_body",
    "json_body",
    "read_request",
    "render_response",
]

#: Maximum accepted size of the request line plus all headers.
MAX_HEADER_BYTES = 16 * 1024
#: Maximum accepted ``Content-Length`` (batch files are a few MB at most).
MAX_BODY_BYTES = 8 * 1024 * 1024

STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HTTPError(Exception):
    """A request that must be answered with an HTTP error status.

    Attributes:
        status: HTTP status code.
        code: Short machine-readable error code for the JSON body.
        message: Human-readable explanation.
        headers: Extra response headers (e.g. ``Retry-After``).
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.headers = dict(headers or {})


@dataclass
class HTTPRequest:
    """One parsed request.

    Attributes:
        method: Upper-case HTTP method (``GET``, ``POST``, ...).
        path: Request target without the query string.
        query: Decoded query-string parameters (last value wins).
        headers: Header map with lower-cased names.
        body: Raw request body (empty when none was sent).
    """

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the connection should stay open after the response."""
        return self.headers.get("connection", "").lower() != "close"


async def _read_line(reader: asyncio.StreamReader, budget: int) -> bytes:
    """One CRLF/LF-terminated line within the remaining header budget."""
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise HTTPError(431, "header_too_large", "request header line too long")
    if len(line) > budget:
        raise HTTPError(
            431, "header_too_large",
            f"request headers exceed {MAX_HEADER_BYTES} bytes",
        )
    return line


async def read_request(
    reader: asyncio.StreamReader, *, max_body: int = MAX_BODY_BYTES
) -> HTTPRequest | None:
    """Parse one request off the stream.

    Returns:
        The parsed request, or ``None`` when the client closed the
        connection cleanly before sending another request (normal
        keep-alive termination).

    Raises:
        HTTPError: Malformed request line or headers, oversized
            headers/body, or an unsupported transfer encoding.
    """
    budget = MAX_HEADER_BYTES
    line = await _read_line(reader, budget)
    if not line:
        return None  # clean EOF between requests
    budget -= len(line)
    try:
        method, target, version = line.decode("ascii").split()
    except (UnicodeDecodeError, ValueError):
        raise HTTPError(400, "bad_request_line", "malformed HTTP request line")
    if not version.startswith("HTTP/1."):
        raise HTTPError(400, "bad_version", f"unsupported version {version!r}")

    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader, budget)
        if not line:
            raise HTTPError(400, "truncated", "connection closed mid-headers")
        budget -= len(line)
        if line in (b"\r\n", b"\n"):
            break
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            raise HTTPError(400, "bad_header", "undecodable header line")
        if not _ or not name.strip():
            raise HTTPError(400, "bad_header", f"malformed header {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HTTPError(
            501, "chunked_unsupported",
            "chunked transfer encoding is not supported; send Content-Length",
        )
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HTTPError(400, "bad_content_length", "non-integer Content-Length")
        if length < 0:
            raise HTTPError(400, "bad_content_length", "negative Content-Length")
        if length > max_body:
            raise HTTPError(
                413, "body_too_large",
                f"request body of {length} bytes exceeds the {max_body} limit",
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HTTPError(400, "truncated", "connection closed mid-body")
    elif method in ("POST", "PUT", "PATCH"):
        raise HTTPError(411, "length_required", "POST requires Content-Length")

    path, _, query_string = target.partition("?")
    query = dict(parse_qsl(query_string, keep_blank_values=True))
    return HTTPRequest(
        method=method.upper(), path=path, query=query, headers=headers, body=body
    )


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one complete HTTP/1.1 response."""
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines).encode("latin-1")
    return head + b"\r\n\r\n" + body


#: What the skeleton encoder writes in place of each int64 array: the
#: JSON string ``"\x00"``.  A payload string whose JSON text contains
#: the mark's text shows up as a surplus mark, and that body is encoded
#: again the plain way.  The request decoder's marks are this string
#: followed by the array's index.
_MARK = "\x00"
_MARK_TEXT = json.dumps(_MARK).encode("ascii")


def _int_array_text(arr: np.ndarray) -> bytes:
    """``json.dumps(arr.tolist())`` of an int64 array, in one C pass."""
    n = len(arr)
    out = np.empty(2 + 22 * n, dtype=np.uint8)
    size = _NATIVE.json_int_array(n, arr.ctypes.data, out.ctypes.data)
    return out[:size].tobytes()


def _as_list(obj: object) -> object:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _plain_body(payload: dict | list) -> bytes:
    return json.dumps(payload, sort_keys=True, default=_as_list).encode("utf-8")


def json_body(payload: dict | list) -> bytes:
    """Encode a JSON response body (sorted keys: stable for tests).

    NumPy arrays may stand anywhere a list would; the body is
    byte-for-byte ``json.dumps(payload_with_lists, sort_keys=True)``.
    The ``json`` module's C encoder writes the skeleton with a mark
    where each 1-D int64 array goes, and the ``json_int_array`` kernel
    writes each array's text, spliced in at its mark; other arrays go
    through ``.tolist()``.
    """
    arrays: list[np.ndarray] = []

    def mark(obj: object) -> object:
        if (
            isinstance(obj, np.ndarray)
            and obj.dtype == np.int64
            and obj.ndim == 1
            and obj.flags.c_contiguous
        ):
            arrays.append(obj)
            return _MARK
        return _as_list(obj)

    text = json.dumps(payload, sort_keys=True, default=mark).encode("utf-8")
    if not arrays:
        return text
    pieces = text.split(_MARK_TEXT)
    if len(pieces) != len(arrays) + 1:  # a payload string equal to _MARK
        return _plain_body(payload)
    parts = [pieces[0]]
    for arr, piece in zip(arrays, pieces[1:]):
        parts.append(_int_array_text(arr))
        parts.append(piece)
    return b"".join(parts)


#: What a body template encodes in place of each per-request string:
#: the JSON string ``"\x01"``, split out of the encoded body.
_HOLE = "\x01"
_HOLE_TEXT = json.dumps(_HOLE).encode("ascii")


class BodyTemplate:
    """:func:`json_body` of a payload, cut around top-level string fields.

    :meth:`build` encodes the payload with :func:`json_body` itself, the
    named fields set to one placeholder string, and splits the body at
    the placeholder's text; :meth:`render` writes each field's own JSON
    string text there.  Sorted keys put the fields in name order, so
    ``build(p, names).render(values)`` is ``json_body({**p, **values})``
    byte for byte, for any string values.

    Attributes:
        names: The fields, sorted.
        pieces: The body's bytes around them (``len(names) + 1``).
        nbytes: Bytes held.
    """

    __slots__ = ("names", "pieces", "nbytes")

    def __init__(self, names: tuple[str, ...], pieces: tuple[bytes, ...]) -> None:
        self.names = names
        self.pieces = pieces
        self.nbytes = sum(map(len, pieces))

    @classmethod
    def build(cls, payload: dict, names) -> "BodyTemplate | None":
        """The template of ``payload``; ``None`` if some other string in
        it encodes to the placeholder's text."""
        names = tuple(sorted(names))
        body = json_body({**payload, **dict.fromkeys(names, _HOLE)})
        pieces = body.split(_HOLE_TEXT)
        if len(pieces) != len(names) + 1:
            return None
        return cls(names, tuple(pieces))

    def render(self, values: dict[str, str]) -> bytes:
        """The body with ``values`` (one string per name) in its holes."""
        out = [self.pieces[0]]
        for name, piece in zip(self.names, self.pieces[1:]):
            out += (encode_basestring_ascii(values[name]).encode("ascii"), piece)
        return b"".join(out)


def _place(obj: object, key: str, arrays: list[np.ndarray]) -> int:
    """Put the array whose mark is ``obj[key]`` there; 1 if it was one."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if type(value) is str and value[:1] == _MARK:
        obj[key] = arrays[int(value[1:])]
        return 1
    return 0


def _place_request(item: object, arrays: list[np.ndarray]) -> int:
    """Fill a request object's array fields; the number of marks used."""
    placed = _place(item, "old_assignment", arrays) + _place(item, "weights", arrays)
    if isinstance(item, dict):
        placed += _place(item.get("weights"), "inline", arrays)
    return placed


def decode_json_body(body: bytes) -> object:
    """Decode a JSON request body: ``json.loads(body.decode("utf-8"))``.

    The ``json_int_arrays`` kernel parses, in one C pass, every array
    of strict int64 JSON integers that is an object member's value;
    the ``json`` module decodes the rest, a mark string
    ``"\\u0000<i>"`` standing in for array ``i``.  The arrays go back
    in, as int64 NumPy arrays, at a request object's array fields only
    (``old_assignment``, list-form ``weights``, ``weights.inline``) of
    the body itself and of each item of a list or ``{"requests":
    [...]}`` body.  A mark left anywhere else, a skeleton that does not
    decode, and a body holding the escape ``\\u0000`` (a string could
    then equal a mark) go through ``json.loads`` whole, so every other value, and every error, is
    exactly ``json.loads``'s.

    Raises:
        UnicodeDecodeError: The body is not UTF-8.
        json.JSONDecodeError: The body is not JSON.
        RecursionError: The body nests too deeply.
    """
    text = body.decode("utf-8")
    if b"[" not in body or b"\\u0000" in body:
        return json.loads(text)
    n = len(body)
    spans = np.empty(3 * (n // 3 + 1), dtype=np.int64)
    values = np.empty(n // 2 + 1, dtype=np.int64)
    count = _NATIVE.json_int_arrays(n, body, spans.ctypes.data, values.ctypes.data)
    if not count:
        return json.loads(text)
    pieces: list[bytes] = []
    arrays: list[np.ndarray] = []
    pos = first = 0
    for i, (start, stop, size) in enumerate(
        spans[: 3 * count].reshape(count, 3).tolist()
    ):
        pieces += (body[pos:start], _MARK_TEXT[:-1] + b'%d"' % i)
        # A copy, so a kept request does not pin the whole buffer.
        arrays.append(values[first : first + size].copy())
        pos, first = stop, first + size
    pieces.append(body[pos:])
    try:
        data = json.loads(b"".join(pieces).decode("utf-8"))
    except json.JSONDecodeError:
        return json.loads(text)
    items = data if isinstance(data, list) else [data]
    if isinstance(data, dict) and isinstance(data.get("requests"), list):
        items = [data, *data["requests"]]
    if sum(_place_request(item, arrays) for item in items) != count:
        return json.loads(text)
    return data


def error_body(exc: HTTPError) -> bytes:
    """The structured JSON body every error response carries."""
    return json_body(
        {"error": {"status": exc.status, "code": exc.code, "message": exc.message}}
    )
