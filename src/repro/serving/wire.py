"""Streaming zero-copy wire format for assignment payloads.

The buffered protocol (one ``np.save`` body per request) forces every
hop — client, proxy, server — to materialize the full payload before a
single row is scored. This module defines the streamed alternative: a
**length-prefixed sequence of npy frames** that every hop can produce
and consume incrementally, so a million-row batch flows through the
serving path one chunk at a time and the GEMM overlaps with the network.

Stream layout (content type ``application/x-repro-stream``)::

    stream   = header frame* terminator
    header   = MAGIC(4) codec(1) accept(1) flags(1) reserved(1)
    frame    = length(u64 LE) payload
    payload  = npy bytes (v1/v2 format), compressed per ``codec``
    terminator = length 0

* ``codec`` names the compression applied to every frame payload in
  *this* stream: ``0`` identity, ``1`` gzip, ``2`` zstd. zstd is
  negotiated — :func:`negotiate_codec` silently downgrades to gzip
  (then identity) when the interpreter lacks a zstd module, and the
  response header names the codec actually used.
* ``accept`` (requests only) names the codec the sender wants applied
  to the *response* stream; ``0xFF`` means "same as request codec".
* ``flags`` bit 0 (:data:`FLAG_DISTANCES`): on a request, the client
  asks for squared distances; on a response, every labels frame is
  followed by a float64 distances frame for the same rows.

**Zero copy.** Encoding a C-contiguous array emits the npy header bytes
and then a ``memoryview`` of the array's own buffer — no intermediate
``BytesIO`` body. Decoding parses the npy header and returns an
``np.frombuffer`` view over the received bytes — read-only by design;
:func:`decode_npy` takes ``writable=True`` for the rare caller that
must mutate (it is the only place a copy happens).

**Typed failures.** Every malformed input maps to a
:class:`WireFormatError` subclass so transports can answer with an
exact 400: :class:`WireTruncatedError` (stream ended mid-frame — also
what a mid-stream client disconnect looks like server-side) and
:class:`WireFrameSizeError` (length prefix beyond the frame budget)
both carry their meaning in the type, not just the message.
"""

from __future__ import annotations

import gzip
import io
import struct
from collections.abc import Callable, Iterable, Iterator

import numpy as np

#: First bytes of every stream ("Repro Stream Wire v1").
MAGIC = b"RSW1"

#: Total stream-header length in bytes.
HEADER_LEN = 8

#: Frame length prefix: unsigned 64-bit little-endian.
_LENGTH = struct.Struct("<Q")

#: ``flags`` bit 0: distances requested / included.
FLAG_DISTANCES = 0x01

#: ``accept`` byte meaning "respond with the request's codec".
ACCEPT_SAME = 0xFF

#: Hard per-frame payload cap (compressed bytes on the wire).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Codec ids on the wire, in negotiation-preference order.
CODEC_IDS = {"identity": 0, "gzip": 1, "zstd": 2}
_CODEC_NAMES = {v: k for k, v in CODEC_IDS.items()}


def _zstd_module():
    """The interpreter's zstd implementation, or None (never installed)."""
    try:  # Python >= 3.14
        from compression import zstd  # type: ignore[import-not-found]

        return zstd
    except ImportError:
        pass
    try:
        import zstandard  # type: ignore[import-not-found]

        return zstandard
    except ImportError:
        return None


_ZSTD = _zstd_module()


class WireError(ValueError):
    """Base for every wire-format failure (a ValueError: bad input)."""


class WireFormatError(WireError):
    """The bytes are not a valid stream (magic, codec, npy header...)."""


class WireTruncatedError(WireError):
    """The stream ended mid-header or mid-frame (disconnect/short body)."""


class WireFrameSizeError(WireError):
    """A frame's length prefix exceeds the permitted budget."""


def available_codecs() -> tuple[str, ...]:
    """Codec names this interpreter can encode and decode."""
    names = ["identity", "gzip"]
    if _ZSTD is not None:
        names.append("zstd")
    return tuple(names)


def negotiate_codec(requested: str | None) -> str:
    """Best supported codec for *requested* (graceful downgrades).

    ``zstd`` falls back to ``gzip`` when no zstd module is importable —
    the response stream's header names what was actually used, so the
    peer never has to guess.
    """
    if requested is None or requested == "identity":
        return "identity"
    if requested not in CODEC_IDS:
        raise WireFormatError(
            f"unknown codec {requested!r}; expected one of {sorted(CODEC_IDS)}"
        )
    if requested == "zstd" and _ZSTD is None:
        return "gzip"
    return requested


def _compress(codec: str, payload: bytes) -> bytes:
    if codec == "gzip":
        return gzip.compress(payload, compresslevel=1)
    if codec == "zstd":
        if _ZSTD is None:
            raise WireFormatError("zstd requested but no zstd module is available")
        return _ZSTD.compress(payload)  # type: ignore[union-attr]
    return payload


def _decompress(codec: str, payload: bytes) -> bytes:
    try:
        if codec == "gzip":
            return gzip.decompress(payload)
        if codec == "zstd":
            if _ZSTD is None:
                raise WireFormatError("zstd stream received but zstd is unavailable")
            return _ZSTD.decompress(payload)  # type: ignore[union-attr]
    except WireError:
        raise
    except Exception as exc:
        raise WireFormatError(f"{codec} frame failed to decompress: {exc}") from None
    return payload


# --------------------------------------------------------------------- #
# Header                                                                  #
# --------------------------------------------------------------------- #


def encode_header(
    codec: str = "identity",
    *,
    accept: str | None = None,
    distances: bool = False,
) -> bytes:
    """The 8-byte stream header.

    Args:
        codec: compression applied to this stream's frames.
        accept: codec requested for the response stream (requests only;
            ``None`` encodes :data:`ACCEPT_SAME`).
        distances: the :data:`FLAG_DISTANCES` bit.
    """
    if codec not in CODEC_IDS:
        raise WireFormatError(f"unknown codec {codec!r}")
    accept_id = ACCEPT_SAME if accept is None else CODEC_IDS.get(accept)
    if accept_id is None:
        raise WireFormatError(f"unknown accept codec {accept!r}")
    flags = FLAG_DISTANCES if distances else 0
    return MAGIC + bytes((CODEC_IDS[codec], accept_id, flags, 0))


def decode_header(header: bytes) -> tuple[str, str | None, bool]:
    """Parse the stream header; returns ``(codec, accept, distances)``."""
    if len(header) < HEADER_LEN:
        raise WireTruncatedError(
            f"stream header is {len(header)} bytes, need {HEADER_LEN}"
        )
    if header[:4] != MAGIC:
        raise WireFormatError(
            f"bad stream magic {bytes(header[:4])!r}, expected {MAGIC!r}"
        )
    codec_id, accept_id, flags = header[4], header[5], header[6]
    if codec_id not in _CODEC_NAMES:
        raise WireFormatError(f"unknown codec id {codec_id}")
    if accept_id != ACCEPT_SAME and accept_id not in _CODEC_NAMES:
        raise WireFormatError(f"unknown accept codec id {accept_id}")
    accept = None if accept_id == ACCEPT_SAME else _CODEC_NAMES[accept_id]
    return _CODEC_NAMES[codec_id], accept, bool(flags & FLAG_DISTANCES)


# --------------------------------------------------------------------- #
# Encoding                                                                #
# --------------------------------------------------------------------- #


def npy_header_bytes(array: np.ndarray) -> bytes:
    """The npy format header describing *array* (no data bytes)."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        out, np.lib.format.header_data_from_array_1_0(array)
    )
    return out.getvalue()


def encode_frame(array: np.ndarray, codec: str = "identity") -> Iterator[bytes]:
    """One frame as wire pieces: length prefix, then payload bytes.

    With the identity codec the array's own buffer is emitted as a
    ``memoryview`` — the only bytes built are the length prefix and the
    (~100 byte) npy header. Compressed codecs necessarily materialize
    the compressed payload.
    """
    array = np.ascontiguousarray(array)
    header = npy_header_bytes(array)
    if codec == "identity":
        yield _LENGTH.pack(len(header) + array.nbytes)
        yield header
        if array.nbytes:
            yield memoryview(array).cast("B")
        return
    payload = _compress(codec, header + array.tobytes())
    yield _LENGTH.pack(len(payload))
    yield payload


def terminator() -> bytes:
    """The end-of-stream marker (a zero length prefix)."""
    return _LENGTH.pack(0)


def iter_encode(
    arrays: Iterable[np.ndarray],
    codec: str = "identity",
    *,
    accept: str | None = None,
    distances: bool = False,
) -> Iterator[bytes]:
    """A full stream: header, one frame per array, terminator.

    The pieces come out ready for a socket ``sendall`` / chunked write;
    nothing is concatenated. Pairs of (labels, distances) streams are
    produced by interleaving the arrays before calling this.
    """
    yield encode_header(codec, accept=accept, distances=distances)
    for array in arrays:
        yield from encode_frame(array, codec)
    yield terminator()


def encode_stream(
    arrays: Iterable[np.ndarray],
    codec: str = "identity",
    *,
    accept: str | None = None,
    distances: bool = False,
) -> bytes:
    """:func:`iter_encode` joined into one buffer (tests, small bodies)."""
    return b"".join(iter_encode(arrays, codec, accept=accept, distances=distances))


# --------------------------------------------------------------------- #
# Decoding                                                                #
# --------------------------------------------------------------------- #


def decode_npy(
    data: bytes | bytearray | memoryview, *, writable: bool = False
) -> np.ndarray:
    """Decode one npy payload as a view over *data* (no copy).

    The returned array shares *data*'s buffer and is read-only unless
    ``writable=True`` — the explicit copy point for callers that must
    mutate the rows. Object (pickled) payloads are always rejected.
    """
    view = memoryview(data)
    fp = io.BytesIO(view)
    try:
        version = np.lib.format.read_magic(fp)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fp)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(fp)
        else:
            raise WireFormatError(f"unsupported npy version {version}")
    except WireError:
        raise
    except Exception as exc:
        raise WireFormatError(f"invalid npy payload: {exc}") from None
    if dtype.hasobject:
        raise WireFormatError("object (pickled) arrays are not allowed on the wire")
    offset = fp.tell()
    count = int(np.prod(shape, dtype=np.int64))
    expected = offset + count * dtype.itemsize
    if len(view) < expected:
        raise WireTruncatedError(
            f"npy payload holds {len(view)} bytes, header promises {expected}"
        )
    array = np.frombuffer(view, dtype=dtype, count=count, offset=offset)
    array = array.reshape(shape, order="F" if fortran else "C")
    if writable:
        array = array.copy()
    return array


def read_exact(read: Callable[[int], bytes], n: int) -> bytes:
    """Read exactly *n* bytes from a ``read(size)`` callable."""
    if n == 0:
        return b""
    first = read(n)
    if len(first) == n:
        return first
    pieces = [first]
    got = len(first)
    while got < n:
        piece = read(n - got)
        if not piece:
            raise WireTruncatedError(f"stream ended after {got} of {n} bytes")
        pieces.append(piece)
        got += len(piece)
    return b"".join(pieces)


class StreamReader:
    """Incremental decoder over a ``read(size)`` callable.

    Args:
        read: byte source (socket-backed file, HTTP response, BytesIO).
        max_frame_bytes: reject any frame whose length prefix exceeds
            this (:class:`WireFrameSizeError`).
        max_total_bytes: reject the stream once cumulative frame bytes
            exceed this (the transport's body cap).
    """

    def __init__(
        self,
        read: Callable[[int], bytes],
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        max_total_bytes: int | None = None,
    ) -> None:
        self._read = read
        self.max_frame_bytes = max_frame_bytes
        self.max_total_bytes = max_total_bytes
        self.total_bytes = 0
        self.codec = "identity"
        self.accept: str | None = None
        self.distances = False
        self._header_read = False

    def read_header(self) -> "StreamReader":
        """Consume and parse the stream header; returns self."""
        self.codec, self.accept, self.distances = decode_header(
            read_exact(self._read, HEADER_LEN)
        )
        self._header_read = True
        return self

    def frames(self) -> Iterator[np.ndarray]:
        """Yield one decoded array per frame until the terminator.

        Raises:
            WireTruncatedError: the source ended before the terminator
                (exactly what a peer disconnect mid-stream looks like).
            WireFrameSizeError: a frame beyond ``max_frame_bytes``.
            WireFormatError: undecodable frame payload.
        """
        for payload in self.raw_frames():
            yield decode_npy(_decompress(self.codec, payload))

    def raw_frames(self) -> Iterator[bytes]:
        """Yield each frame's undecoded payload bytes (proxy relaying).

        The caller gets exactly what arrived — compressed or not — so a
        relay can forward frames without ever touching the rows.
        """
        if not self._header_read:
            self.read_header()
        while True:
            prefix = read_exact(self._read, _LENGTH.size)
            (length,) = _LENGTH.unpack(prefix)
            if length == 0:
                return
            if length > self.max_frame_bytes:
                raise WireFrameSizeError(
                    f"frame of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte frame cap"
                )
            self.total_bytes += length
            if (
                self.max_total_bytes is not None
                and self.total_bytes > self.max_total_bytes
            ):
                raise WireFrameSizeError(
                    f"stream exceeds the {self.max_total_bytes}-byte body cap"
                )
            yield read_exact(self._read, int(length))


def decode_stream(
    data: bytes, **kwargs
) -> tuple[list[np.ndarray], "StreamReader"]:
    """Decode a whole in-memory stream; returns (arrays, reader)."""
    reader = StreamReader(io.BytesIO(data).read, **kwargs)
    return list(reader.frames()), reader


def frame_payload(payload: bytes) -> bytes:
    """Wrap an already-encoded payload in its length prefix (relay path)."""
    return _LENGTH.pack(len(payload)) + payload


def recode_payload(payload: bytes, source: str, target: str) -> bytes:
    """Re-compress one frame payload from *source* to *target* codec.

    A relay stitching frames from several peers into one stream needs
    every frame under a single codec; matching codecs pass through
    untouched (the common case — peers negotiate identically).
    """
    if source == target:
        return payload
    return _compress(target, _decompress(source, payload))
