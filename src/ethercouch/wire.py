"""Off-chain wire messages between peers, with canonical serialization.

The vocabulary: a peer asks a holder for payload chunks (Request), gets
them back with inclusion proofs (Response) or a typed refusal (Refusal);
blocks travel as announcements (BlockAnnounce) and catch-up requests
(BlockRequest). TxAnnounce floods freshly published mutations so miners
can pick them up.

Encoding uses the ledger's field codec (``codec``): a one-byte message
tag, then length-prefixed fields in declaration order (4-byte big-endian
prefixes, integers as 8-byte big-endian). Transport identity (who sent
the message) is carried by the network layer, not the message body.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import Reader, lp, u64
from .crypto import Digest, MerkleProof
from .ledger import Block, DbFunction, parse_block, parse_tx, serialize_block, serialize_tx


@dataclass(frozen=True)
class Request:
    """Ask a holder for chunks of one revision's payload.

    chunk_count 0 means "everything from chunk_start on". declared_topics
    is the requester's interest filter; empty means unrestricted.
    """

    lineage: Digest
    seq: int
    chunk_start: int = 0
    chunk_count: int = 0
    declared_topics: tuple[Digest, ...] = ()


@dataclass(frozen=True)
class Response:
    lineage: Digest
    seq: int
    chunk_start: int
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


def _encode_proof(p: MerkleProof) -> bytes:
    return b"".join(
        [lp(u64(p.leaf_index)), lp(u64(p.leaf_count)), lp(u64(len(p.siblings)))]
        + [lp(s) for s in p.siblings]
    )


def _read_proof(r: Reader) -> MerkleProof:
    leaf_index = r.u64_field()
    leaf_count = r.u64_field()
    n = r.u64_field()
    return MerkleProof(leaf_index, leaf_count, tuple(r.field() for _ in range(n)))


def encode_message(msg: Message) -> bytes:
    if isinstance(msg, Request):
        body = [
            lp(msg.lineage),
            lp(u64(msg.seq)),
            lp(u64(msg.chunk_start)),
            lp(u64(msg.chunk_count)),
            lp(u64(len(msg.declared_topics))),
        ]
        body.extend(lp(t) for t in msg.declared_topics)
        return bytes([_TAG_REQUEST]) + b"".join(body)
    if isinstance(msg, Response):
        body = [
            lp(msg.lineage),
            lp(u64(msg.seq)),
            lp(u64(msg.chunk_start)),
            lp(u64(len(msg.chunks))),
        ]
        body.extend(lp(c) for c in msg.chunks)
        body.append(lp(u64(len(msg.proofs))))
        body.extend(lp(_encode_proof(p)) for p in msg.proofs)
        return bytes([_TAG_RESPONSE]) + b"".join(body)
    if isinstance(msg, Refusal):
        return bytes([_TAG_REFUSAL]) + b"".join(
            [lp(msg.lineage), lp(u64(msg.seq)), lp(msg.reason.encode())]
        )
    if isinstance(msg, BlockAnnounce):
        return bytes([_TAG_BLOCK_ANNOUNCE]) + lp(serialize_block(msg.block))
    if isinstance(msg, BlockRequest):
        return bytes([_TAG_BLOCK_REQUEST]) + lp(u64(msg.from_height))
    if isinstance(msg, TxAnnounce):
        return bytes([_TAG_TX_ANNOUNCE]) + lp(serialize_tx(msg.tx))
    raise TypeError(f"not a wire message: {type(msg).__name__}")


def decode_message(buf: bytes) -> Message:
    if not buf:
        raise ValueError("empty message")
    tag, r = buf[0], Reader(buf[1:])
    if tag == _TAG_REQUEST:
        lineage = r.field()
        seq = r.u64_field()
        start = r.u64_field()
        count = r.u64_field()
        ntopics = r.u64_field()
        topics = tuple(r.field() for _ in range(ntopics))
        msg: Message = Request(lineage, seq, start, count, topics)
    elif tag == _TAG_RESPONSE:
        lineage = r.field()
        seq = r.u64_field()
        start = r.u64_field()
        nchunks = r.u64_field()
        chunks = tuple(r.field() for _ in range(nchunks))
        nproofs = r.u64_field()
        proofs = tuple(_read_proof(Reader(r.field())) for _ in range(nproofs))
        msg = Response(lineage, seq, start, chunks, proofs)
    elif tag == _TAG_REFUSAL:
        msg = Refusal(r.field(), r.u64_field(), r.field().decode())
    elif tag == _TAG_BLOCK_ANNOUNCE:
        msg = BlockAnnounce(parse_block(r.field()))
    elif tag == _TAG_BLOCK_REQUEST:
        msg = BlockRequest(r.u64_field())
    elif tag == _TAG_TX_ANNOUNCE:
        msg = TxAnnounce(parse_tx(r.field()))
    else:
        raise ValueError(f"unknown message tag {tag}")
    if not r.done():
        raise ValueError("trailing bytes in message")
    return msg


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
