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
that is read with one struct unpack, after the length check that covers
it. A Response's chunks follow its head, each behind its width, then its
proofs, each a fixed head and a run of fixed-width sibling records (none
for the one proof of a one-chunk payload). A digest field (lineage, topic,
sibling) of any width but 32 bytes or an integer field of any width but 8
is refused.

A store's ``ProofSet`` keeps its encoded proof section from its first
Response on. The one-leaf set of every one-chunk payload,
``ONE_LEAF_PROOFS``, is packed at import, and a proof section of exactly
those bytes decodes to it unread; equal bytes parse to an equal value
either way. A proof record is read in one unpack with the struct of the
record before it (one payload's proofs share one width); a new width's
sibling count is checked against the bytes left before a struct is sized.

Messages are immutable named tuples, cheap to build on every hop, so one
parsed message may be handed to every recipient of the same bytes, and a
caller may keep a table of the blocks it parsed: an announced block whose
bytes hash to a key of that table is that block (its hash is the sha256 of
those very bytes). Being tuples, they compare by their fields alone;
callers tell them apart by class (``isinstance``), never by equality.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import NamedTuple

from .crypto import DIGEST_SIZE, ONE_LEAF_PROOFS, Digest, MerkleProof, ProofSet, hash_bytes
from .ledger import Block, DbFunction, parse_block, parse_tx, serialize_tx


class Request(NamedTuple):
    """Ask a holder for the whole payload of one revision.

    declared_topics is the requester's interest filter; empty means
    unrestricted.
    """

    lineage: Digest
    seq: int
    declared_topics: tuple[Digest, ...] = ()


class Response(NamedTuple):
    lineage: Digest
    seq: int
    chunks: tuple[bytes, ...]
    proofs: tuple[MerkleProof, ...]


class Refusal(NamedTuple):
    lineage: Digest
    seq: int
    reason: str  # "not-held" | "filter-refused"


class BlockAnnounce(NamedTuple):
    block: Block


class BlockRequest(NamedTuple):
    from_height: int


class TxAnnounce(NamedTuple):
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
# digest each. A Response's head has the same layout: lineage, seq, chunk
# count; each chunk follows behind its width, then the proof count and the
# proofs.
_REQUEST = _RESPONSE = struct.Struct(">BI32sIQIQ")
_HEAD_WIDTHS = (DIGEST_SIZE, 8, 8)
_TOPIC = struct.Struct(">I32s")
# Refusal: lineage, seq, then the reason's width; the reason follows
_REFUSAL = struct.Struct(">BI32sIQI")
_BLOCK_REQUEST = struct.Struct(">BIQ")
# BlockAnnounce and TxAnnounce: the width of the one body that follows
_FRAME = struct.Struct(">BI")
_WIDTH = struct.Struct(">I")
_COUNT = struct.Struct(">IQ")
# a proof: its width, then leaf index, leaf count and sibling count, then
# one width-prefixed digest per sibling; the width covers all but itself
_PROOF = struct.Struct(">IIQIQIQ")
_PROOF_BODY = _PROOF.size - _WIDTH.size
_SIBLING_SIZE = 4 + DIGEST_SIZE
_SIBLING_WIDTH = struct.pack(">I", DIGEST_SIZE)
_BAD_DIGEST = f"digest field must be {DIGEST_SIZE} bytes"


@lru_cache(maxsize=64)
def _record(k: int) -> struct.Struct:
    """A whole proof record with k siblings, head and siblings in one struct."""
    return struct.Struct(_PROOF.format + "I32s" * k)


def encode_message(msg: Message) -> bytes:
    # struct's "32s" would pad or cut a digest of any other width without a
    # word, so each digest field is checked first
    if isinstance(msg, Request):
        lineage, topics = msg.lineage, msg.declared_topics
        if len(lineage) != DIGEST_SIZE:
            raise ValueError(_BAD_DIGEST)
        head = _REQUEST.pack(_TAG_REQUEST, DIGEST_SIZE, lineage, 8, msg.seq, 8, len(topics))
        if not topics:
            return head
        if set(map(len, topics)) - {DIGEST_SIZE}:
            raise ValueError(_BAD_DIGEST)
        return head + b"".join([_TOPIC.pack(DIGEST_SIZE, t) for t in topics])
    if isinstance(msg, Response):
        lineage, chunks, proofs = msg.lineage, msg.chunks, msg.proofs
        if len(lineage) != DIGEST_SIZE:
            raise ValueError(_BAD_DIGEST)
        out = [_RESPONSE.pack(_TAG_RESPONSE, DIGEST_SIZE, lineage, 8, msg.seq, 8, len(chunks))]
        for c in chunks:
            out += (_WIDTH.pack(len(c)), c)
        out.append(getattr(proofs, "encoded", None) or _proof_section(proofs))
        return b"".join(out)
    if isinstance(msg, Refusal):
        if len(msg.lineage) != DIGEST_SIZE:
            raise ValueError(_BAD_DIGEST)
        reason = msg.reason.encode()
        return _REFUSAL.pack(_TAG_REFUSAL, DIGEST_SIZE, msg.lineage, 8, msg.seq, len(reason)) + reason
    if isinstance(msg, BlockAnnounce):
        body = msg.block.preimage()
        return _FRAME.pack(_TAG_BLOCK_ANNOUNCE, len(body)) + body
    if isinstance(msg, BlockRequest):
        return _BLOCK_REQUEST.pack(_TAG_BLOCK_REQUEST, 8, msg.from_height)
    if isinstance(msg, TxAnnounce):
        body = serialize_tx(msg.tx)
        return _FRAME.pack(_TAG_TX_ANNOUNCE, len(body)) + body
    raise TypeError(f"not a wire message: {type(msg).__name__}")


def _proof_section(proofs: tuple[MerkleProof, ...]) -> bytes:
    """The proof count and the proof records of a Response, kept on a
    ProofSet once they are encoded; other tuples keep nothing."""
    out = [_COUNT.pack(8, len(proofs))]
    for index, count, siblings in proofs:
        k = len(siblings)
        out.append(_PROOF.pack(_PROOF_BODY + _SIBLING_SIZE * k, 8, index, 8, count, 8, k))
        if k:  # each sibling behind its width
            if set(map(len, siblings)) - {DIGEST_SIZE}:
                raise ValueError(_BAD_DIGEST)
            out.append(_SIBLING_WIDTH + _SIBLING_WIDTH.join(siblings))
    section = b"".join(out)
    if type(proofs) is ProofSet:
        proofs.encoded = section
    return section


# the proof section of every one-chunk payload, which the decoder reads by its bytes
_ONE_LEAF_SECTION = _proof_section(ONE_LEAF_PROOFS)
_ONE_LEAF_SIZE = len(_ONE_LEAF_SECTION)


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
    # each fixed head is unpacked only after the length check that covers it
    if tag == _TAG_REQUEST:
        if len(buf) < _REQUEST.size:
            raise ValueError("truncated message")
        _, w_lineage, lineage, w_seq, seq, w_n, n = _REQUEST.unpack_from(buf)
        if (w_lineage, w_seq, w_n) != _HEAD_WIDTHS:
            raise ValueError("bad request field width")
        if len(buf) != _REQUEST.size + n * _TOPIC.size:
            raise ValueError("bad request length")
        if not n:
            return Request(lineage, seq, ())
        topics = tuple(_TOPIC.iter_unpack(memoryview(buf)[_REQUEST.size :]))
        if any(w != DIGEST_SIZE for w, _ in topics):
            raise ValueError("bad topic width")
        return Request(lineage, seq, tuple(t for _, t in topics))
    if tag == _TAG_RESPONSE:
        return _decode_response(buf)
    if tag == _TAG_REFUSAL:
        if len(buf) < _REFUSAL.size:
            raise ValueError("truncated message")
        _, w_lineage, lineage, w_seq, seq, w_reason = _REFUSAL.unpack_from(buf)
        if (w_lineage, w_seq) != (DIGEST_SIZE, 8):
            raise ValueError("bad refusal field width")
        if w_reason != len(buf) - _REFUSAL.size:
            raise ValueError("bad refusal length")
        return Refusal(lineage, seq, buf[_REFUSAL.size :].decode())
    if tag == _TAG_BLOCK_REQUEST:
        if len(buf) != _BLOCK_REQUEST.size:
            raise ValueError("bad block request")
        _, w_height, height = _BLOCK_REQUEST.unpack(buf)
        if w_height != 8:
            raise ValueError("bad block request")
        return BlockRequest(height)
    if tag in (_TAG_BLOCK_ANNOUNCE, _TAG_TX_ANNOUNCE):
        if len(buf) < _FRAME.size:
            raise ValueError("truncated message")
        _, width = _FRAME.unpack_from(buf)
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
    end = len(buf)
    if end < _RESPONSE.size:
        raise ValueError("truncated message")
    _, w_lineage, lineage, w_seq, seq, w_n, n = _RESPONSE.unpack_from(buf)
    if (w_lineage, w_seq, w_n) != _HEAD_WIDTHS:
        raise ValueError("bad response field width")
    pos = _RESPONSE.size
    chunks = []
    for _ in range(n):
        if pos + _WIDTH.size > end:
            raise ValueError("truncated message")
        (w,) = _WIDTH.unpack_from(buf, pos)
        pos += _WIDTH.size + w
        if pos > end:
            raise ValueError("truncated message")
        chunks.append(buf[pos - w : pos])
    # the width first: a longer section is not copied to be compared
    if end - pos == _ONE_LEAF_SIZE and buf[pos:] == _ONE_LEAF_SECTION:
        return Response(lineage, seq, tuple(chunks), ONE_LEAF_PROOFS)
    if pos + _COUNT.size > end:
        raise ValueError("truncated message")
    w_m, m = _COUNT.unpack_from(buf, pos)
    if w_m != 8:
        raise ValueError("bad response field width")
    pos += _COUNT.size
    proofs = []
    # the proofs of one set share one width, so a record is first read
    # whole with the struct of the record before it
    record = None
    for _ in range(m):
        if record is None or pos + record.size > end or (fields := record.unpack_from(buf, pos))[0] != width:
            if pos + _PROOF.size > end:
                raise ValueError("truncated message")
            fields = _PROOF.unpack_from(buf, pos)
            width, k = fields[0], fields[6]
            if width != _PROOF_BODY + _SIBLING_SIZE * k:
                raise ValueError("bad proof width")
            # the sibling count is checked against the bytes before it sizes a struct
            if pos + _WIDTH.size + width > end:
                raise ValueError("truncated message")
            record = _record(k)
            if k:
                fields = record.unpack_from(buf, pos)
        if fields[1:6:2] != (8, 8, 8) or fields[6] != k:
            raise ValueError("bad proof width")
        if fields[7::2].count(DIGEST_SIZE) != k:
            raise ValueError("bad sibling width")
        # the tuple's own constructor, not the named tuple's Python one
        proofs.append(tuple.__new__(MerkleProof, (fields[2], fields[4], fields[8::2])))
        pos += record.size
    if pos != end:
        raise ValueError("trailing bytes in message")
    return Response(lineage, seq, tuple(chunks), tuple(proofs))


def describe(msg: Message) -> str:
    """Compact one-line summary for traces."""
    # the first 6 bytes of a digest are its first 12 hex characters
    if isinstance(msg, Request):
        return f"request {msg.lineage[:6].hex()} seq={msg.seq}"
    if isinstance(msg, Response):
        return f"response {msg.lineage[:6].hex()} seq={msg.seq} chunks={len(msg.chunks)}"
    if isinstance(msg, Refusal):
        return f"refusal {msg.lineage[:6].hex()} seq={msg.seq} {msg.reason}"
    if isinstance(msg, BlockAnnounce):
        return f"block h={msg.block.height} {msg.block.block_hash.hex()[:12]}"
    if isinstance(msg, BlockRequest):
        return f"blockreq from={msg.from_height}"
    if isinstance(msg, TxAnnounce):
        return f"tx {msg.tx.task.label} seq={msg.tx.sequence_id}"
    return type(msg).__name__
