"""Length-prefixed field codec shared by the chain, the store and the wire.

Every field is a 4-byte big-endian byte count followed by its bytes;
integers are 8-byte big-endian before prefixing.
"""

from __future__ import annotations

import struct


def lp(b: bytes) -> bytes:
    return struct.pack(">I", len(b)) + b


def u64(n: int) -> bytes:
    return struct.pack(">Q", n)


class Reader:
    """Cursor over length-prefixed fields."""

    def __init__(self, buf: bytes, pos: int = 0):
        self.buf = buf
        self.pos = pos

    def field(self) -> bytes:
        if self.pos + 4 > len(self.buf):
            raise ValueError("truncated field prefix")
        (n,) = struct.unpack_from(">I", self.buf, self.pos)
        self.pos += 4
        if self.pos + n > len(self.buf):
            raise ValueError("truncated field body")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u64_field(self) -> int:
        b = self.field()
        if len(b) != 8:
            raise ValueError("bad integer width")
        return struct.unpack(">Q", b)[0]

    def done(self) -> bool:
        return self.pos == len(self.buf)
