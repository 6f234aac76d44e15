"""Off-chain wire messages between peers, with canonical serialization.

The vocabulary: a peer asks a holder for the whole payload of one
revision (Request) and gets back all its chunks, each with its inclusion
proof (Response), or a typed refusal (Refusal); blocks travel as
announcements (BlockAnnounce) and catch-up requests (BlockRequest).
TxAnnounce floods freshly published mutations so miners can pick them up.

Encoding follows the ledger's field codec (``codec``): a one-byte message
tag, then length-prefixed fields in declaration order (4-byte big-endian
prefixes, integers as 8-byte big-endian). Transport identity (who sent
the message) is carried by the network layer, not the message body.

The encoding is the only one accepted. Every message has a fixed head
that is read with one struct unpack. A Response's chunks follow its head,
each behind its width, then its proofs, each a fixed head and a run of
fixed-width sibling records. A digest field (lineage, topic, sibling) of
any width but 32 bytes or an integer field of any width but 8 is refused.
Messages are frozen, so one parsed message may be handed to every
recipient of the same bytes, and a caller may keep a table of the blocks
it parsed: an announced block whose bytes hash to a key of that table is
that block (its hash is the sha256 of those very bytes).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

from .crypto import DIGEST_SIZE, Digest, MerkleProof, hash_bytes
from .ledger import Block, DbFunction, parse_block, parse_tx, serialize_block, serialize_tx


@dataclass(frozen=True)
class Request:
    """Ask a holder for the whole payload of one revision.

    declared_topics is the requester's interest filter; empty means
    unrestricted.
    """

    lineage: Digest
    seq: int
    declared_topics: tuple[Digest, ...] = ()


@dataclass(frozen=True)
class Response:
    lineage: Digest
    seq: int
    chunks: tuple[bytes, ...]
    proofs: tuple[MerkleProof, ...]


@dataclass(frozen=True)
class Refusal:
    lineage: Digest
    seq: int
    reason: str  # "not-held" | "filter-refused"


@dataclass(frozen=True)
class BlockAnnounce:
    block: Block


@dataclass(frozen=True)
class BlockRequest:
    from_height: int


@dataclass(frozen=True)
class TxAnnounce:
    tx: DbFunction


Message = Request | Response | Refusal | BlockAnnounce | BlockRequest | TxAnnounce

_TAG_REQUEST = 1
_TAG_RESPONSE = 2
_TAG_REFUSAL = 3
_TAG_BLOCK_ANNOUNCE = 4
_TAG_BLOCK_REQUEST = 5
_TAG_TX_ANNOUNCE = 6

# Fixed heads, tag first, each field after it behind its width prefix.
# Request: lineage, seq, topic count; the topics follow, one width-prefixed
# digest each.
_REQUEST = struct.Struct(">BI32sIQIQ")
_REQUEST_WIDTHS = (DIGEST_SIZE, 8, 8)
_TOPIC = struct.Struct(">I32s")
# Refusal: lineage, seq, then the reason's width; the reason follows
_REFUSAL = struct.Struct(">BI32sIQI")
_BLOCK_REQUEST = struct.Struct(">BIQ")
# BlockAnnounce and TxAnnounce: the width of the one body that follows
_FRAME = struct.Struct(">BI")
# Response: lineage, seq, chunk count; each chunk follows behind its
# width, then the proof count and the proofs
_RESPONSE = struct.Struct(">BI32sIQIQ")
_RESPONSE_WIDTHS = (DIGEST_SIZE, 8, 8)
_WIDTH = struct.Struct(">I")
_COUNT = struct.Struct(">IQ")
# a proof: its width, then leaf index, leaf count and sibling count, then
# one width-prefixed digest per sibling
_PROOF = struct.Struct(">IIQIQIQ")
_SIBLING_SIZE = 4 + DIGEST_SIZE
_SIBLING_WIDTH = struct.pack(">I", DIGEST_SIZE)


def _proof_width(k: int) -> int:
    return _PROOF.size - _WIDTH.size + _SIBLING_SIZE * k


@lru_cache(maxsize=64)
def _siblings(k: int) -> struct.Struct:
    return struct.Struct(">" + "I32s" * k)


def _digest(d: bytes) -> bytes:
    # struct's "32s" would pad or cut any other width without a word
    if len(d) != DIGEST_SIZE:
        raise ValueError(f"digest field must be {DIGEST_SIZE} bytes")
    return d


def encode_message(msg: Message) -> bytes:
    if isinstance(msg, Request):
        topics = msg.declared_topics
        head = _REQUEST.pack(
            _TAG_REQUEST, DIGEST_SIZE, _digest(msg.lineage), 8, msg.seq, 8, len(topics),
        )
        return head + b"".join([_TOPIC.pack(DIGEST_SIZE, _digest(t)) for t in topics])
    if isinstance(msg, Response):
        out = [_RESPONSE.pack(_TAG_RESPONSE, DIGEST_SIZE, _digest(msg.lineage), 8, msg.seq, 8, len(msg.chunks))]
        for c in msg.chunks:
            out += (_WIDTH.pack(len(c)), c)
        out.append(_COUNT.pack(8, len(msg.proofs)))
        for p in msg.proofs:
            siblings = p.siblings
            if set(map(len, siblings)) - {DIGEST_SIZE}:
                raise ValueError(f"digest field must be {DIGEST_SIZE} bytes")
            out.append(_PROOF.pack(_proof_width(len(siblings)), 8, p.leaf_index, 8, p.leaf_count, 8, len(siblings)))
            if siblings:  # each sibling behind its width
                out.append(_SIBLING_WIDTH + _SIBLING_WIDTH.join(siblings))
        return b"".join(out)
    if isinstance(msg, Refusal):
        reason = msg.reason.encode()
        return _REFUSAL.pack(_TAG_REFUSAL, DIGEST_SIZE, _digest(msg.lineage), 8, msg.seq, len(reason)) + reason
    if isinstance(msg, BlockAnnounce):
        body = serialize_block(msg.block)
        return _FRAME.pack(_TAG_BLOCK_ANNOUNCE, len(body)) + body
    if isinstance(msg, BlockRequest):
        return _BLOCK_REQUEST.pack(_TAG_BLOCK_REQUEST, 8, msg.from_height)
    if isinstance(msg, TxAnnounce):
        body = serialize_tx(msg.tx)
        return _FRAME.pack(_TAG_TX_ANNOUNCE, len(body)) + body
    raise TypeError(f"not a wire message: {type(msg).__name__}")


def _head(s: struct.Struct, buf: bytes, pos: int = 0) -> tuple:
    if len(buf) < pos + s.size:
        raise ValueError("truncated message")
    return s.unpack_from(buf, pos)


def decode_message(buf: bytes, blocks: dict[Digest, Block] | None = None) -> Message:
    """Strict inverse of ``encode_message``: only the canonical encoding
    parses. Every failure is a ValueError.

    ``blocks`` maps block hashes to blocks parsed before: an announced
    block already there is reused, and one parsed here is added. Without
    a table, each call parses into a table of its own.
    """
    if not buf:
        raise ValueError("empty message")
    tag = buf[0]
    if tag == _TAG_REQUEST:
        _, w_lineage, lineage, w_seq, seq, w_n, n = _head(_REQUEST, buf)
        if (w_lineage, w_seq, w_n) != _REQUEST_WIDTHS:
            raise ValueError("bad request field width")
        if len(buf) != _REQUEST.size + n * _TOPIC.size:
            raise ValueError("bad request length")
        topics = tuple(_TOPIC.iter_unpack(memoryview(buf)[_REQUEST.size :]))
        if any(w != DIGEST_SIZE for w, _ in topics):
            raise ValueError("bad topic width")
        return Request(lineage, seq, tuple(t for _, t in topics))
    if tag == _TAG_RESPONSE:
        return _decode_response(buf)
    if tag == _TAG_REFUSAL:
        _, w_lineage, lineage, w_seq, seq, w_reason = _head(_REFUSAL, buf)
        if (w_lineage, w_seq) != (DIGEST_SIZE, 8):
            raise ValueError("bad refusal field width")
        if w_reason != len(buf) - _REFUSAL.size:
            raise ValueError("bad refusal length")
        return Refusal(lineage, seq, buf[_REFUSAL.size :].decode())
    if tag == _TAG_BLOCK_REQUEST:
        _, w_height, height = _head(_BLOCK_REQUEST, buf)
        if w_height != 8 or len(buf) != _BLOCK_REQUEST.size:
            raise ValueError("bad block request")
        return BlockRequest(height)
    if tag in (_TAG_BLOCK_ANNOUNCE, _TAG_TX_ANNOUNCE):
        _, width = _head(_FRAME, buf)
        if width != len(buf) - _FRAME.size:
            raise ValueError("bad message body length")
        body = buf[_FRAME.size :]
        if tag == _TAG_TX_ANNOUNCE:
            return TxAnnounce(parse_tx(body))
        return BlockAnnounce(_known_block(body, {} if blocks is None else blocks))
    raise ValueError(f"unknown message tag {tag}")


def _known_block(body: bytes, blocks: dict[Digest, Block]) -> Block:
    # equal hashes mean equal canonical bytes, so the block parsed from them
    # serves again; a body that does not parse raises and is never added
    block_hash = hash_bytes(body)
    block = blocks.get(block_hash)
    if block is None:
        block = blocks[block_hash] = parse_block(body, block_hash)
    return block


def _decode_response(buf: bytes) -> Response:
    _, w_lineage, lineage, w_seq, seq, w_n, n = _head(_RESPONSE, buf)
    if (w_lineage, w_seq, w_n) != _RESPONSE_WIDTHS:
        raise ValueError("bad response field width")
    pos = _RESPONSE.size
    chunks = []
    for _ in range(n):
        (w,) = _head(_WIDTH, buf, pos)
        pos += _WIDTH.size + w
        if pos > len(buf):
            raise ValueError("truncated message")
        chunks.append(buf[pos - w : pos])
    w_m, m = _head(_COUNT, buf, pos)
    if w_m != 8:
        raise ValueError("bad response field width")
    pos += _COUNT.size
    proofs = []
    for _ in range(m):
        width, w_index, index, w_count, count, w_k, k = _head(_PROOF, buf, pos)
        if (w_index, w_count, w_k) != (8, 8, 8) or width != _proof_width(k):
            raise ValueError("bad proof width")
        # the sibling count is checked against the bytes before it sizes a struct
        if pos + _WIDTH.size + width > len(buf):
            raise ValueError("truncated message")
        fields = _siblings(k).unpack_from(buf, pos + _PROOF.size)
        if fields[0::2].count(DIGEST_SIZE) != k:
            raise ValueError("bad sibling width")
        proofs.append(MerkleProof(index, count, fields[1::2]))
        pos += _WIDTH.size + width
    if pos != len(buf):
        raise ValueError("trailing bytes in message")
    return Response(lineage, seq, tuple(chunks), tuple(proofs))


def describe(msg: Message) -> str:
    """Compact one-line summary for traces."""
    if isinstance(msg, Request):
        return f"request {msg.lineage.hex()[:12]} seq={msg.seq}"
    if isinstance(msg, Response):
        return f"response {msg.lineage.hex()[:12]} seq={msg.seq} chunks={len(msg.chunks)}"
    if isinstance(msg, Refusal):
        return f"refusal {msg.lineage.hex()[:12]} seq={msg.seq} {msg.reason}"
    if isinstance(msg, BlockAnnounce):
        return f"block h={msg.block.height} {msg.block.block_hash.hex()[:12]}"
    if isinstance(msg, BlockRequest):
        return f"blockreq from={msg.from_height}"
    if isinstance(msg, TxAnnounce):
        return f"tx {msg.tx.task.label} seq={msg.tx.sequence_id}"
    return type(msg).__name__
