"""The frame of every binary artifact (SYMD, SYME) and the package's one file writer.

A frame is, little-endian: a 4-byte magic, a header struct whose first field
is the version u32, the body, then the CRC32 of header and body as u32.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib


def write_atomic(path: str | os.PathLike[str], data) -> None:
    """Replace path with the bytes-like data in one rename, or leave it as it was.

    The data goes to a uniquely named file in path's directory, created as
    open(path, "wb") would create it (mode 0o666 less the umask), and removed
    on any failure. The rename makes the write atomic, not durable: no fsync.
    An OSError names path, not the temporary file.
    """
    head, tail = os.path.split(os.fspath(path))
    temp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        with open(temp, "xb") as fh:
            fh.write(data)
        os.replace(temp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(temp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def write_framed(path: str | os.PathLike[str], magic: bytes, header: str, fields: tuple,
                 body) -> None:
    """Write a frame: magic, fields packed by the header format, the bytes-like body, CRC32."""
    packed = struct.pack(header, *fields)
    crc = zlib.crc32(body, zlib.crc32(packed))
    write_atomic(path, b"".join((magic, packed, body, struct.pack("<I", crc))))


def read_framed(path: str | os.PathLike[str], magic: bytes, header: str, version: int,
                error: type[Exception]) -> tuple[tuple, memoryview]:
    """The header fields after the version, and the body, of a frame that checks out.

    Raises error for a file too short to hold a frame, a wrong magic, a checksum
    mismatch, or a version other than the given one.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    size = struct.calcsize(header)
    if len(blob) < len(magic) + size + 4:
        raise error(f"{path}: truncated file")
    if blob[: len(magic)] != magic:
        raise error(f"{path}: bad magic {bytes(blob[: len(magic)])!r}")
    payload = blob[len(magic) : -4]
    if zlib.crc32(payload) != int.from_bytes(blob[-4:], "little"):
        raise error(f"{path}: checksum mismatch")
    found, *fields = struct.unpack_from(header, payload)
    if found != version:
        raise error(f"{path}: unsupported version {found}, expected {version}")
    return tuple(fields), payload[size:]
