"""Toy permissionless proof-of-work ledger carrying document mutations.

Every transaction is one mutation record: what happened (add/edit/delete),
the merkle root of the payload, who did it, which topic it belongs to, and
the resulting revision number. In chain-only mode the payload itself rides
along inline; in hash-anchored mode the chain stores the record only and
peers move payloads off-chain.

Canonical serialization (the wire and hashing contract):
- every field is length-prefixed with a 4-byte big-endian byte count;
- integer fields are encoded as 8-byte big-endian before prefixing;
- fields appear in declaration order;
- the optional inline payload is encoded as one presence byte (0x00 absent,
  0x01 present) followed by the payload bytes, prefixed as a single field.

This is the only encoding the parsers accept, so a parsed transaction's
digest is the hash of the bytes it arrived in, and a mined or parsed block
keeps the exact bytes it was hashed from. A transaction is encoded, hashed
and named once, when it is built: it carries its digest and document id,
and a hash-anchored record keeps its bytes, as a block does. A chain-only
transaction keeps only its digest, so its inline payload is not held twice,
and is serialized when a block is built.

A block's hash is the digest of its serialized parent, height, nonce,
miner and transaction list, in that order. Proof of work requires the
block hash to start with ``difficulty_bits`` zero bits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from hashlib import sha256

from .codec import Reader, lp, u64
from .crypto import (
    DEFAULT_CHUNK_SIZE,
    DIGEST_SIZE,
    ZERO_DIGEST,
    Digest,
    digest_hex,
    hash_bytes,
    payload_root,
)


class Task(Enum):
    ADD = 1
    EDIT = 2
    DELETE = 3

    @property
    def label(self) -> str:
        return self.name.lower()


# Enum's metaclass defines __getattr__, which sends every read of a member
# through its class (Task.ADD) down a slower lookup; the function bodies of
# this module read this name instead
_ADD = Task.ADD

_TASK_BY_CODE = {t.value: t for t in Task}


class DbFunction:
    """One on-chain data mutation record.

    ``lineage`` identifies the document the mutation belongs to: the digest
    of the document's add transaction. Adds carry the zero digest there
    (their own digest becomes the lineage id). ``inline_payload`` is only
    present in chain-only mode.

    A record is encoded, hashed and named once, when it is built:
    ``digest`` is the hash of its canonical bytes and ``doc_id`` the
    document it belongs to (its own digest for an add, ``lineage``
    otherwise). ``raw`` keeps the canonical bytes of a hash-anchored
    record (a fixed 166 bytes); a chain-only record keeps None there, so
    its inline payload is not held twice, and is serialized when needed.
    Records are immutable by contract: equality and hash follow
    ``digest``, which the canonical encoding makes one-to-one with the
    fields.
    """

    __slots__ = (
        "task", "data_hash", "editor_hash", "topic_id", "sequence_id", "lineage", "inline_payload",
        "digest", "doc_id", "raw",
    )

    def __init__(
        self,
        task: Task,
        data_hash: Digest,
        editor_hash: Digest,
        topic_id: Digest,
        sequence_id: int,
        lineage: Digest = ZERO_DIGEST,
        inline_payload: bytes | None = None,
    ) -> None:
        for name, v in (("data_hash", data_hash), ("editor_hash", editor_hash), ("topic_id", topic_id), ("lineage", lineage)):
            if not isinstance(v, bytes) or len(v) != DIGEST_SIZE:
                raise ValueError(f"{name} must be {DIGEST_SIZE} bytes")
        if not 0 <= sequence_id < 1 << 64:
            raise ValueError("sequence_id must be in [0, 2**64)")
        if not isinstance(task, Task):
            raise ValueError("unknown task")
        self.task = task
        self.data_hash = data_hash
        self.editor_hash = editor_hash
        self.topic_id = topic_id
        self.sequence_id = sequence_id
        self.lineage = lineage
        self.inline_payload = inline_payload
        head = _tx_head(self)
        if inline_payload is None:
            self.raw = head + b"\x00"
            self.digest = sha256(self.raw).digest()
        else:
            self.raw = None
            h = sha256(head)
            h.update(b"\x01")
            h.update(inline_payload)
            self.digest = h.digest()
        self.doc_id = self.digest if task is _ADD else lineage

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DbFunction):
            return NotImplemented
        return self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def __repr__(self) -> str:
        return f"DbFunction({tx_text(self)})"


# the fixed head of a canonical tx: the width-prefixed task code, data hash,
# editor hash, topic, sequence number and lineage, then the payload field's
# width; the payload field (presence byte, then any inline payload) follows
_TX_HEAD = struct.Struct(">IBI32sI32sI32sIQI32sI")
_TX_WIDTHS = (1, DIGEST_SIZE, DIGEST_SIZE, DIGEST_SIZE, 8, DIGEST_SIZE)


def _tx_head(tx: DbFunction) -> bytes:
    # DbFunction enforces the digest widths, so "32s" neither pads nor cuts;
    # _value_ is the member's value, read without the enum property's call
    payload_width = 1 if tx.inline_payload is None else 1 + len(tx.inline_payload)
    return _TX_HEAD.pack(
        1, tx.task._value_, DIGEST_SIZE, tx.data_hash, DIGEST_SIZE, tx.editor_hash,
        DIGEST_SIZE, tx.topic_id, 8, tx.sequence_id, DIGEST_SIZE, tx.lineage, payload_width,
    )


def serialize_tx(tx: DbFunction) -> bytes:
    """The canonical bytes of ``tx``: kept for a hash-anchored record,
    encoded afresh for a chain-only one."""
    return tx.raw if tx.raw is not None else _tx_head(tx) + b"\x01" + tx.inline_payload


def parse_tx(buf: bytes) -> DbFunction:
    """Strict inverse of ``serialize_tx``: only the canonical encoding
    parses, so the digest the constructor computes is the hash of the
    bytes the tx arrived in."""
    if len(buf) < _TX_HEAD.size:
        raise ValueError("truncated transaction")
    (w_task, code, w_data, data_hash, w_editor, editor_hash, w_topic, topic_id,
     w_seq, sequence_id, w_lineage, lineage, w_payload) = _TX_HEAD.unpack_from(buf)
    if (w_task, w_data, w_editor, w_topic, w_seq, w_lineage) != _TX_WIDTHS:
        raise ValueError("bad transaction field width")
    task = _TASK_BY_CODE.get(code)
    if task is None:
        raise ValueError("unknown task code")
    if w_payload != len(buf) - _TX_HEAD.size:
        raise ValueError("bad transaction payload length")
    presence = buf[_TX_HEAD.size : _TX_HEAD.size + 1]
    if presence == b"\x01":
        inline = buf[_TX_HEAD.size + 1 :]
    elif presence == b"\x00" and w_payload == 1:
        inline = None
    else:
        raise ValueError("bad payload presence byte")
    return DbFunction(task, data_hash, editor_hash, topic_id, sequence_id, lineage, inline)


def tx_digest(tx: DbFunction) -> Digest:
    """The hash of the canonical bytes, computed once when ``tx`` was built."""
    return tx.digest


def lineage_of(tx: DbFunction) -> Digest:
    """The document identity a transaction belongs to: its own digest for
    an add, ``lineage`` otherwise (``tx.doc_id``)."""
    return tx.doc_id


def tx_text(tx: DbFunction) -> str:
    payload = tx.inline_payload.hex() if tx.inline_payload is not None else "-"
    return ":".join(
        (
            tx.task.label,
            digest_hex(tx.data_hash),
            digest_hex(tx.editor_hash),
            digest_hex(tx.topic_id),
            str(tx.sequence_id),
            digest_hex(tx.lineage),
            payload,
        )
    )


@dataclass(frozen=True)
class Block:
    parent: Digest
    height: int
    nonce: int
    miner: Digest
    txs: tuple[DbFunction, ...]
    block_hash: Digest

    def preimage(self) -> bytes:
        # blocks that were mined or parsed here keep the bytes they were
        # hashed from; a block built by hand is serialized afresh
        raw = self.__dict__.get("_bytes")
        if raw is None:
            raw = block_preimage(self.parent, self.height, self.nonce, self.miner, self.txs)
        return raw


def _with_bytes(block: Block, raw: bytes) -> Block:
    """Memoize the canonical bytes ``block`` was hashed from."""
    object.__setattr__(block, "_bytes", raw)
    return block


# the fixed head of a canonical block: the width-prefixed parent, height,
# nonce, miner and tx count; the width-prefixed txs follow
_BLOCK_HEAD = struct.Struct(">I32sIQIQI32sIQ")
_BLOCK_WIDTHS = (DIGEST_SIZE, 8, 8, DIGEST_SIZE, 8)


def _block_head(parent: Digest, height: int, nonce: int, miner: Digest, ntx: int) -> bytes:
    # struct's "32s" would pad or cut any other width without a word
    if len(parent) != DIGEST_SIZE or len(miner) != DIGEST_SIZE:
        raise ValueError(f"block parent and miner must be {DIGEST_SIZE} bytes")
    return _BLOCK_HEAD.pack(DIGEST_SIZE, parent, 8, height, 8, nonce, DIGEST_SIZE, miner, 8, ntx)


_RECORD_WIDTH = struct.pack(">I", _TX_HEAD.size + 1)  # every hash-anchored record's prefix


def _tx_body(txs: tuple[DbFunction, ...]) -> bytes:
    """The width-prefixed txs of a block: kept record bytes, and each
    chain-only tx serialized once."""
    parts = []
    for t in txs:
        if t.raw is not None:
            parts += (_RECORD_WIDTH, t.raw)
        else:
            parts.append(lp(serialize_tx(t)))
    return b"".join(parts)


def block_preimage(
    parent: Digest, height: int, nonce: int, miner: Digest, txs: tuple[DbFunction, ...]
) -> bytes:
    return _block_head(parent, height, nonce, miner, len(txs)) + _tx_body(txs)


def parse_block(buf: bytes, block_hash: Digest | None = None) -> Block:
    """Strict inverse of ``Block.preimage``. ``block_hash``, if given, is
    the caller's sha256 of ``buf``, so the bytes are not hashed again."""
    if len(buf) < _BLOCK_HEAD.size:
        raise ValueError("truncated block")
    (w_parent, parent, w_height, height, w_nonce, nonce,
     w_miner, miner, w_ntx, ntx) = _BLOCK_HEAD.unpack_from(buf)
    if (w_parent, w_height, w_nonce, w_miner, w_ntx) != _BLOCK_WIDTHS:
        raise ValueError("bad block field width")
    r = Reader(buf, _BLOCK_HEAD.size)
    txs = tuple(parse_tx(r.field()) for _ in range(ntx))
    if not r.done():
        raise ValueError("trailing bytes after block")
    buf = bytes(buf)
    if block_hash is None:
        block_hash = hash_bytes(buf)
    return _with_bytes(Block(parent, height, nonce, miner, txs, block_hash), buf)


def block_text(block: Block) -> str:
    """One-line text rendering, the dump-chain format.

    Field order: height, block hash, parent hash, nonce, miner, tx count,
    then the transactions joined by ``|`` (each as task:data:editor:topic:
    seq:lineage:payload-hex-or-dash).
    """
    txs = "|".join(tx_text(t) for t in block.txs)
    return (
        f"height={block.height} hash={digest_hex(block.block_hash)} "
        f"parent={digest_hex(block.parent)} nonce={block.nonce} "
        f"miner={digest_hex(block.miner)} ntx={len(block.txs)} txs={txs}"
    )


def meets_target(digest: Digest, difficulty_bits: int) -> bool:
    if difficulty_bits <= 0:
        return True
    return int.from_bytes(digest, "big") >> (256 - difficulty_bits) == 0


class TxRejected(ValueError):
    """A transaction failed validation; ``reason`` carries the code."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class ReorgReport:
    """What one adoption did to the canonical chain.

    ``applied`` holds the registry entries of the newly canonical
    transactions, each a (tx, height, index) tuple; ``rolled_back`` lists
    transactions that fell off the old branch, in their old chain order. A
    plain tip extension has an empty ``rolled_back``.
    """

    tip_changed: bool
    fork_height: int
    rolled_back: list[DbFunction] = field(default_factory=list)
    applied: list[tuple[DbFunction, int, int]] = field(default_factory=list)


class ChainState:
    """One node's view of the ledger: block store, canonical tip, mempool.

    Single-threaded by design; a simulation advances one node at a time.
    The canonical chain is the longest valid chain known, ties broken by
    the lexicographically smaller tip hash. A derived data registry over
    the canonical chain is kept in step incrementally; it is the chain's
    one per-transaction index. A transaction is checked where it enters:
    ``submit_tx`` against the chain plus the queue, ``validate_block``
    against its branch; mining and the canonical switch re-check nothing.
    It has no mining policy: whether to mine is the caller's choice.
    """

    def __init__(
        self,
        difficulty_bits: int = 12,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        from .registry import DataRegistry

        if not 0 <= difficulty_bits <= 32:
            raise ValueError("difficulty_bits must be in [0, 32]")
        self.difficulty_bits = difficulty_bits
        self.chunk_size = chunk_size
        genesis = self._mine_raw(ZERO_DIGEST, 0, ZERO_DIGEST, ())
        self.genesis = genesis
        self.blocks: dict[Digest, Block] = {genesis.block_hash: genesis}
        self.tip: Digest = genesis.block_hash
        self.canonical_hashes: list[Digest] = [genesis.block_hash]
        self.mempool: list[DbFunction] = []
        self._mempool_set: set[Digest] = set()
        self.orphans: dict[Digest, list[Block]] = {}
        self.registry = DataRegistry()
        # the canonical chain plus the queue: a view over the live registry
        # that overrides every lineage a queued tx touches (see MempoolView)
        self._spec = self.registry.fork_view()

    # -- helpers -------------------------------------------------------

    @property
    def tip_block(self) -> Block:
        return self.blocks[self.tip]

    @property
    def height(self) -> int:
        return self.tip_block.height

    def canonical_blocks(self) -> list[Block]:
        return [self.blocks[h] for h in self.canonical_hashes]

    def canonical_txs(self):
        """Yield (tx, height, index_in_block) over the canonical chain."""
        for h in self.canonical_hashes:
            blk = self.blocks[h]
            for i, tx in enumerate(blk.txs):
                yield tx, blk.height, i

    def _mine_raw(self, parent: Digest, height: int, miner: Digest, txs: tuple) -> Block:
        # the txs are encoded once; each nonce packs only the block head
        body = _tx_body(txs)
        nonce = 0
        while True:
            pre = _block_head(parent, height, nonce, miner, len(txs)) + body
            h = hash_bytes(pre)
            if meets_target(h, self.difficulty_bits):
                return _with_bytes(Block(parent, height, nonce, miner, txs, h), pre)
            nonce += 1

    # -- operations ----------------------------------------------------

    def submit_tx(self, tx: DbFunction) -> None:
        """Queue a transaction after validating it against the canonical
        chain plus everything already queued. Byte-equal resubmission is a
        no-op; anything invalid raises TxRejected with the reason code."""
        if tx.digest in self._mempool_set:
            return
        if tx.inline_payload is not None and payload_root(tx.inline_payload, self.chunk_size) != tx.data_hash:
            raise TxRejected("inline-hash-mismatch")
        reason = self._spec.validate(tx)
        if reason != "ok":
            raise TxRejected(reason)
        self._spec.apply(tx)
        self.mempool.append(tx)
        self._mempool_set.add(tx.digest)

    def in_mempool(self, tx: DbFunction) -> bool:
        return tx.digest in self._mempool_set

    def speculative_latest(self, lineage: Digest) -> tuple[int, bool] | None:
        """(latest sequence, deleted) for a lineage as seen by the canonical
        chain plus the queued transactions; None for unknown lineages."""
        return self._spec.latest(lineage)

    def mine_block(self, miner: Digest, max_txs: int = 100) -> Block:
        """Put the first max_txs queued transactions into a block on the tip
        (an empty queue mines an empty block) and search nonces from zero
        until the difficulty target is met. The queue is valid in order on
        the canonical chain, so its prefix is not re-checked, and it is
        untouched until the block is adopted."""
        return self._mine_raw(self.tip, self.height + 1, miner, tuple(self.mempool[:max_txs]))

    def validate_block(self, block: Block) -> tuple[bool, str]:
        """Full validity check: known parent, consistent height, proof of
        work, hash integrity, and every transaction valid in order against
        the registry state at the parent."""
        if block.block_hash == self.genesis.block_hash:
            return (block == self.genesis, "genesis")
        if block.parent not in self.blocks:
            return (False, "unknown-parent")
        parent = self.blocks[block.parent]
        if block.height != parent.height + 1:
            return (False, "bad-height")
        if hash_bytes(block.preimage()) != block.block_hash:
            return (False, "hash-mismatch")
        if not meets_target(block.block_hash, self.difficulty_bits):
            return (False, "pow-target")
        view = self._view_at(block.parent)
        for tx in block.txs:
            if tx.inline_payload is not None and payload_root(tx.inline_payload, self.chunk_size) != tx.data_hash:
                return (False, "tx-invalid:inline-hash-mismatch")
            reason = view.validate(tx)
            if reason != "ok":
                return (False, f"tx-invalid:{reason}")
            view.apply(tx)
        return (True, "ok")

    def _view_at(self, block_digest: Digest):
        """Registry validation view for the chain ending at block_digest:
        the canonical registry as of the fork height, plus the side branch."""
        fork_height, branch = self._side_branch(block_digest)
        view = self.registry.fork_view(fork_height)
        for blk in branch:
            for tx in blk.txs:
                view.apply(tx)
        return view

    def _side_branch(self, block_digest: Digest) -> tuple[int, list[Block]]:
        """Height of block_digest's last canonical ancestor, and the stored
        blocks after it up to block_digest, oldest first."""
        canonical = self.canonical_hashes
        branch: list[Block] = []
        blk = self.blocks[block_digest]
        while blk.height >= len(canonical) or canonical[blk.height] != blk.block_hash:
            branch.append(blk)
            blk = self.blocks[blk.parent]
        branch.reverse()
        return blk.height, branch

    def adopt_block(self, block: Block) -> ReorgReport:
        """Store a validated block and re-run fork choice.

        Unknown parents park the block in the orphan buffer (empty report,
        no tip change); connecting a parent later re-plays its orphans.
        The report describes exactly how the canonical transaction sequence
        changed so a document store can repair itself.
        """
        if block.block_hash in self.blocks:
            return ReorgReport(False, self.tip_block.height)
        if block.parent not in self.blocks:
            bucket = self.orphans.setdefault(block.parent, [])
            if block not in bucket:
                bucket.append(block)
            return ReorgReport(False, self.tip_block.height)

        # The old tip already beat every earlier block, so fork choice (longest
        # chain, ties to the smaller hash) only weighs it against the new ones.
        best = self.tip_block
        queue = [block]
        while queue:
            blk = queue.pop(0)
            if blk.block_hash in self.blocks:
                continue
            ok, _reason = self.validate_block(blk)
            if not ok:
                continue
            self.blocks[blk.block_hash] = blk
            queue.extend(self.orphans.pop(blk.block_hash, []))
            best = min(best, blk, key=lambda b: (-b.height, b.block_hash))

        if best.block_hash == self.tip:
            return ReorgReport(False, self.tip_block.height)
        return self._switch_tip(best.block_hash)

    def _switch_tip(self, new_tip: Digest) -> ReorgReport:
        """Make a stored block canonical. Its branch applies unchecked: every
        stored block was validated against the state at its parent."""
        fork_height, new_branch = self._side_branch(new_tip)
        old_branch = [self.blocks[h] for h in self.canonical_hashes[fork_height + 1 :]]
        rolled_back = [tx for blk in old_branch for tx in blk.txs]

        # canonical bookkeeping
        del self.canonical_hashes[fork_height + 1 :]
        self.canonical_hashes.extend(blk.block_hash for blk in new_branch)
        self.tip = new_tip

        # derived registry follows the canonical chain
        self.registry.rollback_to_height(fork_height)
        applied = [self.registry.apply(tx, blk.height, i) for blk in new_branch for i, tx in enumerate(blk.txs)]

        # mempool maintenance. A pure tip extension by queued transactions
        # took, for each lineage, a prefix of its queued chain, so what is
        # left stays valid and the speculative view is kept as is: it already
        # overrides every lineage the registry just changed. Once nothing is
        # queued its overrides all equal the registry, so an empty view
        # replaces it rather than let it grow with every lineage ever queued.
        # Anything else (reorgs, foreign transactions) resubmits to a new view.
        applied_digests = {tx.digest for tx, _, _ in applied}
        if not rolled_back and applied_digests <= self._mempool_set:
            k = len(applied_digests)
            if {t.digest for t in self.mempool[:k]} == applied_digests:
                del self.mempool[:k]  # FIFO mining took the prefix
            else:
                self.mempool = [tx for tx in self.mempool if tx.digest not in applied_digests]
            self._mempool_set -= applied_digests
            if not self.mempool:
                self._spec = self.registry.fork_view()
        else:
            reinserted = [tx for tx in rolled_back if tx.digest not in applied_digests]
            survivors = [tx for tx in self.mempool if tx.digest not in applied_digests]
            self.mempool, self._mempool_set, self._spec = [], set(), self.registry.fork_view()
            for tx in reinserted + survivors:
                try:
                    self.submit_tx(tx)
                except TxRejected:
                    pass

        return ReorgReport(True, fork_height, rolled_back, applied)

    def confirmations(self, tx: DbFunction) -> int:
        """0 while queued or unknown; 1 for the tip block; +1 per block on top.

        Read from the registry, which holds exactly the canonical
        transactions: every stored block was validated against the state
        at its parent, so every canonical transaction applies.
        """
        entry = self.registry.entry(tx.doc_id, tx.sequence_id)
        if entry is None or entry.tx.digest != tx.digest:
            return 0
        return 1 + self.height - entry.height

    # -- persistence ---------------------------------------------------

    CHAIN_MAGIC = b"ECCHAIN1"

    def dump_text(self) -> str:
        """Canonical-chain rendering, one block per line (dump-chain format)."""
        return "\n".join(block_text(b) for b in self.canonical_blocks()) + "\n"

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.CHAIN_MAGIC)
            f.write(lp(u64(self.difficulty_bits)))
            f.write(lp(u64(self.chunk_size)))
            for blk in self.canonical_blocks():
                f.write(lp(blk.preimage()))

    @classmethod
    def load(cls, path) -> "ChainState":
        with open(path, "rb") as f:
            buf = f.read()
        if buf[:8] != cls.CHAIN_MAGIC:
            raise ValueError("not a chain file")
        r = Reader(buf[8:])
        difficulty_bits = r.u64_field()
        chunk_size = r.u64_field()
        if not 0 <= difficulty_bits <= 32:
            raise ValueError("difficulty_bits must be in [0, 32]")
        if r.done():
            raise ValueError("chain file has no genesis block")
        # Check the file's genesis before mining ours, so that a declared
        # difficulty costs at most the file's own genesis nonce + 1 hashes.
        genesis = parse_block(r.field())
        shape = (genesis.parent, genesis.height, genesis.miner, genesis.txs)
        if shape != (ZERO_DIGEST, 0, ZERO_DIGEST, ()) or not meets_target(genesis.block_hash, difficulty_bits):
            raise ValueError("genesis mismatch")
        state = cls(difficulty_bits=difficulty_bits, chunk_size=chunk_size)
        if genesis != state.genesis:
            raise ValueError("genesis mismatch")
        while not r.done():
            blk = parse_block(r.field())
            tip = state.tip
            state.adopt_block(blk)
            if blk.block_hash not in state.blocks:
                raise ValueError(f"rejected block at height {blk.height}: {state.validate_block(blk)[1]}")
            if blk.parent != tip:
                raise ValueError(f"block at height {blk.height} does not extend the block before it")
        return state
