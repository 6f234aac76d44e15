"""Per-peer revisioned document store, kept one-to-one with the chain.

Documents never change in place: every mutation appends a revision and the
highest revision is the active one, so the full change history stays
readable. Deletion erases payload bytes everywhere but keeps the revision
metadata, mirroring the ledger, where the references can never be removed.

Reads are purely local: neither ``get_active`` nor ``history`` touches any
chain structure.

Confirmed mutations can arrive out of order (off-chain fetches finish in
any order), so each document buffers future revisions until the gap closes.
Chain order is the only authority on sequencing.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

from .codec import Reader, lp, u64
from .crypto import (
    DEFAULT_CHUNK_SIZE,
    Digest,
    ProofSet,
    digest_hex,
    payload_root,
)
from .ledger import DbFunction, Task

# Enum's metaclass defines __getattr__, which sends every read of a member
# through its class (Task.ADD) down a slower lookup; the function bodies of
# this module read these names instead
_ADD, _DELETE = Task.ADD, Task.DELETE

Origin = tuple[int, int]  # (block height, index in block)


class StoreError(Exception):
    pass


class UnknownLineage(StoreError):
    """not-found: the store has never seen this document."""


class DuplicateDocument(StoreError):
    pass


class IntegrityError(StoreError):
    """Payload bytes do not hash to the on-chain data hash."""


class TombstoneError(StoreError):
    """Mutation aimed at a deleted document."""


class StaleRevision(StoreError):
    """Revision number at or below what is already stored."""


@dataclass(slots=True)
class Revision:
    seq: int
    data_hash: Digest
    payload: bytes | None
    origin: Origin


@dataclass(slots=True)
class Document:
    """One document's revisions, numbered 1..n in order, so revision
    ``seq`` is ``revisions[seq - 1]``. A deleted document's last revision
    is its delete."""

    lineage: Digest
    topic_id: Digest
    revisions: list[Revision] = field(default_factory=list)
    deleted: bool = False

    @property
    def max_seq(self) -> int:
        return self.revisions[-1].seq if self.revisions else 0

    @property
    def active_seq(self) -> int | None:
        """Highest revision number, or None as the tombstone marker."""
        return None if self.deleted else self.max_seq


class ApplyResult(NamedTuple):
    """What one apply call did: the (lineage, seq) pairs that landed
    (buffered predecessors drain in the same call) or a buffered marker."""

    applied: tuple[tuple[Digest, int], ...] = ()
    buffered: bool = False


class StoreState:
    """One peer's document store.

    ``topics`` is the peer's interest filter (empty set means everything);
    it is carried here so serialized stores are self-describing for
    verification. ``applied_upto`` is the highest chain coordinate of any
    revision that has landed, in whatever order they landed; a rollback
    lowers it to its mark. A revision below it may still be in flight.

    Bytes held outside the revisions sit in one table keyed by merkle
    root, each entry ``(payload, *lineages)``: a payload the peer
    published, staged under the lineages it was published under so it can
    be served before it applies, or, with no lineage, the bytes of a
    revision a rollback removed, kept until a revision holding them lands
    again. A landed delete drops its lineage from the entry of each of its
    revision roots, and so does ``release`` for a published record that
    will never land; an entry left with no lineage goes. Held bytes are
    not part of a snapshot, and bytes equal to them apply without a hash,
    so ``stage`` takes only a root its caller hashed the payload to. Every
    other payload, a fetched one too, is hashed against its on-chain root
    before it lands, so every payload taken in by these methods hashes to
    the root it is held under.

    The store also keeps, per root of a payload of several chunks, the
    proofs of all its chunks (``proof_set``), built when the peer
    publishes the payload, else on the first push or serve of that root,
    and reused, with its encoded bytes (``wire``), for every later one; a
    payload of one chunk needs no set of its own (``ONE_LEAF_PROOFS``).
    A set goes when any document holding that root is deleted, even
    if another document still holds the same bytes, or with its held
    entry on ``release``; the next push or serve of those bytes builds it
    again.
    """

    SNAPSHOT_MAGIC = b"ECSTORE1"

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE, topics: frozenset[Digest] = frozenset()):
        self.chunk_size = chunk_size
        self.topics = frozenset(topics)
        self.docs: dict[Digest, Document] = {}
        self.applied_upto: Origin | None = None
        # per-lineage future revisions waiting for their predecessor
        self._pending: dict[Digest, dict[int, tuple[DbFunction, bytes | None, Origin]]] = {}
        # root -> (payload, *the lineages the peer published it under); no
        # lineage: bytes of revisions a rollback removed, until one holding
        # them lands again (a tuple, not a list: a publisher holds one entry
        # per payload)
        self._held: dict[Digest, tuple] = {}
        # root of a payload of several chunks -> the proofs of all its chunks
        self._proof_sets: dict[Digest, ProofSet] = {}

    # -- held bytes -------------------------------------------------------

    def stage(self, root: Digest, payload: bytes, lineage: Digest) -> None:
        """Hold a payload the peer published under ``lineage``; the caller
        hashed it to ``root``."""
        entry = self._held.get(root)
        if entry is None:
            self._held[root] = (payload, lineage)
        elif lineage not in entry[1:]:
            self._held[root] = entry + (lineage,)

    def release(self, root: Digest, lineage: Digest) -> None:
        """Drop ``lineage``'s claim on the bytes held under ``root``, for a
        record of it that will never land; the entry goes once no lineage
        claims it. A rollback copy is left as it is."""
        entry = self._held.get(root)
        if entry is None or lineage not in entry[1:]:
            return
        rest = tuple(h for h in entry[1:] if h != lineage)
        if rest:
            self._held[root] = (entry[0], *rest)
        else:
            del self._held[root]
            self._proof_sets.pop(root, None)

    def staged_payload(self, data_hash: Digest) -> bytes | None:
        """The bytes held under a root the peer published them under."""
        entry = self._held.get(data_hash)
        return entry[0] if entry is not None and len(entry) > 1 else None

    def held_payload(self, data_hash: Digest) -> bytes | None:
        """The bytes held under a root, staged or kept from a rollback."""
        entry = self._held.get(data_hash)
        return None if entry is None else entry[0]

    # -- proof sets -------------------------------------------------------

    def proof_set(self, root: Digest, build: Callable[[], ProofSet]) -> ProofSet:
        """The proofs of all chunks of a payload of several chunks held under ``root``.

        ``build`` makes them on the first call for a root, and the store
        keeps them for later calls. One set serves every document holding
        the root: every payload the store takes in hashes to its root, so
        equal roots mean equal bytes.
        """
        proofs = self._proof_sets.get(root)
        if proofs is None:
            proofs = self._proof_sets[root] = build()
        return proofs

    # -- mutation -------------------------------------------------------

    def _verify(self, payload: bytes, data_hash: Digest) -> None:
        # bytes equal to ones held under that root hashed to it when they
        # were taken in, so they need no hash
        entry = self._held.get(data_hash)
        if entry is not None and payload == entry[0]:
            return
        if payload_root(payload, self.chunk_size) != data_hash:
            raise IntegrityError(digest_hex(data_hash))

    def _advance_mark(self, origin: Origin) -> None:
        if self.applied_upto is None or origin > self.applied_upto:
            self.applied_upto = origin

    def apply_add(self, tx: DbFunction, payload: bytes, origin: Origin) -> ApplyResult:
        """Create a document at revision 1 from a confirmed add."""
        self._verify(payload, tx.data_hash)
        if tx.doc_id in self.docs:
            raise DuplicateDocument(digest_hex(tx.doc_id))
        return self._create(tx, payload, origin)

    def apply_edit(self, tx: DbFunction, payload: bytes, origin: Origin) -> ApplyResult:
        """Append a confirmed edit as the new active revision.

        Future revisions (gaps, or edits whose add has not landed yet) are
        buffered and drain automatically once the predecessor applies.
        """
        self._verify(payload, tx.data_hash)
        return self._apply_mutation(tx, payload, origin)

    def apply_delete(self, tx: DbFunction, origin: Origin) -> ApplyResult:
        """Apply a confirmed delete: erase every payload byte of the
        document while retaining hashes, sequence numbers and origins."""
        return self._apply_mutation(tx, None, origin)

    def _apply_mutation(self, tx: DbFunction, payload: bytes | None, origin: Origin) -> ApplyResult:
        lineage = tx.lineage
        doc = self.docs.get(lineage)
        if doc is None:
            self._buffer(lineage, tx, payload, origin)
            return ApplyResult(buffered=True)
        if doc.deleted:
            raise TombstoneError(digest_hex(lineage))
        if tx.sequence_id <= doc.max_seq:
            raise StaleRevision(f"{digest_hex(lineage)}:{tx.sequence_id}")
        return self._land_or_buffer(doc, tx, payload, origin)

    def apply_erased(self, tx: DbFunction, origin: Origin) -> ApplyResult:
        """Record a revision whose payload is gone for good.

        Used when catching up past a delete: the bytes were erased
        network-wide, only the chain reference remains. Idempotent for
        revisions already present.
        """
        doc = self.docs.get(tx.doc_id)
        if doc is None:
            if tx.task is not _ADD:
                raise UnknownLineage(digest_hex(tx.doc_id))
            return self._create(tx, None, origin)
        if tx.sequence_id <= doc.max_seq:
            return ApplyResult()
        if doc.deleted:
            raise TombstoneError(digest_hex(tx.doc_id))
        return self._land_or_buffer(doc, tx, None, origin)

    def _create(self, tx: DbFunction, payload: bytes | None, origin: Origin) -> ApplyResult:
        """Start a document at revision 1, then land what waited for it."""
        lineage = tx.doc_id
        doc = self.docs[lineage] = Document(lineage=lineage, topic_id=tx.topic_id)
        doc.revisions.append(Revision(1, tx.data_hash, payload, origin))
        self._advance_mark(origin)
        # a rollback copy goes once a revision holds its bytes again
        if payload is not None and len(self._held.get(tx.data_hash, ())) == 1:
            del self._held[tx.data_hash]
        return ApplyResult(applied=((lineage, 1), *self._drain(doc)))

    def _land_or_buffer(self, doc: Document, tx: DbFunction, payload: bytes | None, origin: Origin) -> ApplyResult:
        """Buffer a revision past a gap, or land it and its waiting successors."""
        if tx.sequence_id > doc.max_seq + 1:
            self._buffer(doc.lineage, tx, payload, origin)
            return ApplyResult(buffered=True)
        self._land(doc, tx, payload, origin)
        return ApplyResult(applied=((doc.lineage, tx.sequence_id), *self._drain(doc)))

    def _land(self, doc: Document, tx: DbFunction, payload: bytes | None, origin: Origin) -> None:
        doc.revisions.append(Revision(tx.sequence_id, tx.data_hash, payload, origin))
        self._advance_mark(origin)
        if tx.task is _DELETE:
            self._erase(doc)
        elif payload is not None and len(self._held.get(tx.data_hash, ())) == 1:
            del self._held[tx.data_hash]  # a rollback copy, as in _create

    def _erase(self, doc: Document) -> None:
        doc.deleted = True
        held, lineage = self._held, doc.lineage
        for rev in doc.revisions:
            # held bytes go too, even for revisions already emptied, but
            # bytes the peer published under another lineage stay
            entry = held.pop(rev.data_hash, None)
            if entry is not None:
                rest = tuple(h for h in entry[1:] if h != lineage)
                if rest:
                    held[rev.data_hash] = (entry[0], *rest)
            self._proof_sets.pop(rev.data_hash, None)
            rev.payload = None
        self._pending.pop(lineage, None)

    def _buffer(self, lineage: Digest, tx: DbFunction, payload: bytes | None, origin: Origin) -> None:
        self._pending.setdefault(lineage, {})[tx.sequence_id] = (tx, payload, origin)

    def _drain(self, doc: Document) -> list[tuple[Digest, int]]:
        done: list[tuple[Digest, int]] = []
        waiting = self._pending.get(doc.lineage)
        while waiting and not doc.deleted:
            entry = waiting.pop(doc.max_seq + 1, None)
            if entry is None:
                break
            tx, payload, origin = entry
            self._land(doc, tx, payload, origin)
            done.append((doc.lineage, tx.sequence_id))
        if waiting is not None and (not waiting or doc.deleted):
            self._pending.pop(doc.lineage, None)
        return done

    # -- reads (purely local, no chain access) --------------------------

    def get_active(self, lineage: Digest) -> bytes | None:
        """Active revision payload; None is the tombstone of a deleted
        document. Unknown documents raise UnknownLineage."""
        doc = self.docs.get(lineage)
        if doc is None:
            raise UnknownLineage(digest_hex(lineage))
        if doc.deleted:
            return None
        return doc.revisions[-1].payload

    def history(self, lineage: Digest) -> list[Revision]:
        doc = self.docs.get(lineage)
        if doc is None:
            raise UnknownLineage(digest_hex(lineage))
        return list(doc.revisions)

    def revision(self, lineage: Digest, seq: int) -> Revision | None:
        doc = self.docs.get(lineage)
        if doc is None or not 0 < seq <= len(doc.revisions):
            return None
        return doc.revisions[seq - 1]

    # -- reorg repair ----------------------------------------------------

    def rollback_to(self, mark: Origin) -> list[Digest]:
        """Remove every revision recorded after ``mark`` (inclusive keep).

        The store keeps the payloads of removed revisions by root, until a
        revision holding them lands again, so re-application after a reorg
        needs neither the network nor a hash.
        Returns the lineages that were touched, in store order; documents
        whose add rolled back disappear entirely.
        """
        touched: list[Digest] = []
        for lineage in list(self.docs):
            doc = self.docs[lineage]
            kept = [r for r in doc.revisions if r.origin <= mark]
            if len(kept) == len(doc.revisions):
                continue
            for rev in doc.revisions[len(kept) :]:
                if rev.payload is not None:
                    self._held.setdefault(rev.data_hash, (rev.payload,))
            touched.append(lineage)
            if not kept:
                del self.docs[lineage]
                self._pending.pop(lineage, None)
                continue
            doc.revisions = kept
            doc.deleted = False  # a deleted document's last revision, its delete, is gone
        for lineage, waiting in list(self._pending.items()):
            for seq in [s for s, (_, _, o) in waiting.items() if o > mark]:
                del waiting[seq]
            if not waiting:
                del self._pending[lineage]
        if self.applied_upto is not None and self.applied_upto > mark:
            self.applied_upto = mark
        return touched

    def fill_payload(self, lineage: Digest, seq: int, payload: bytes) -> None:
        """Restore the bytes of an existing payload-less revision, verifying
        them against the recorded hash (post-rollback repair)."""
        if lineage not in self.docs:
            raise UnknownLineage(digest_hex(lineage))
        rev = self.revision(lineage, seq)
        if rev is None:
            raise StaleRevision(f"{digest_hex(lineage)}:{seq}")
        self._verify(payload, rev.data_hash)
        rev.payload = payload

    def missing_payload_revisions(self, lineages: Iterable[Digest]) -> list[tuple[Digest, int, Digest]]:
        """(lineage, seq, data_hash) of the live revisions of ``lineages``
        whose bytes are absent; lineages no longer held are skipped."""
        out = []
        for lineage in lineages:
            doc = self.docs.get(lineage)
            if doc is None or doc.deleted:
                continue
            for rev in doc.revisions:
                if rev.payload is None:
                    out.append((doc.lineage, rev.seq, rev.data_hash))
        return out

    # -- accounting and serialization ------------------------------------

    def payload_bytes(self) -> int:
        return sum(
            len(rev.payload)
            for doc in self.docs.values()
            for rev in doc.revisions
            if rev.payload is not None
        )

    def revision_triples(self) -> set[tuple[Digest, int, Digest]]:
        """The store's (lineage, seq, data_hash) set, for one-to-one checks."""
        return {
            (doc.lineage, rev.seq, rev.data_hash)
            for doc in self.docs.values()
            for rev in doc.revisions
        }

    def _sorted_docs(self) -> list[Document]:
        return [self.docs[k] for k in sorted(self.docs)]

    def dump_text(self) -> str:
        """Canonical text rendering (dump-store format): documents sorted by
        lineage, revisions in sequence order, payloads hex or ``-``."""
        mark = "none" if self.applied_upto is None else f"{self.applied_upto[0]}:{self.applied_upto[1]}"
        topics = "all" if not self.topics else ",".join(sorted(digest_hex(t) for t in self.topics))
        lines = [f"store applied_upto={mark} topics={topics}"]
        for doc in self._sorted_docs():
            active = "tombstone" if doc.deleted else str(doc.active_seq)
            lines.append(
                f"doc {digest_hex(doc.lineage)} topic={digest_hex(doc.topic_id)} "
                f"deleted={int(doc.deleted)} active={active} revisions={len(doc.revisions)}"
            )
            for rev in doc.revisions:
                payload = rev.payload.hex() if rev.payload is not None else "-"
                lines.append(
                    f"  rev seq={rev.seq} data={digest_hex(rev.data_hash)} "
                    f"origin={rev.origin[0]}:{rev.origin[1]} payload={payload}"
                )
        return "\n".join(lines) + "\n"

    def snapshot_bytes(self) -> bytes:
        """Length-prefixed binary snapshot of the durable store state.

        Held payloads and buffered revisions are not part of the snapshot:
        the layout is magic, chunk size, sorted topic filter, applied-upto
        mark, then each document (sorted by lineage) with its revisions in
        order.
        """
        out = [self.SNAPSHOT_MAGIC]
        out.append(lp(u64(self.chunk_size)))
        out.append(lp(b"".join(sorted(self.topics))))
        if self.applied_upto is None:
            out.append(lp(b"\x00"))
        else:
            out.append(lp(b"\x01" + u64(self.applied_upto[0]) + u64(self.applied_upto[1])))
        docs = self._sorted_docs()
        out.append(lp(u64(len(docs))))
        for doc in docs:
            out.append(lp(doc.lineage))
            out.append(lp(doc.topic_id))
            out.append(lp(bytes([int(doc.deleted)])))
            out.append(lp(u64(doc.max_seq if doc.deleted else 0)))
            out.append(lp(u64(len(doc.revisions))))
            for rev in doc.revisions:
                out.append(lp(u64(rev.seq)))
                out.append(lp(rev.data_hash))
                out.append(lp(u64(rev.origin[0])))
                out.append(lp(u64(rev.origin[1])))
                body = b"\x00" if rev.payload is None else b"\x01" + rev.payload
                out.append(lp(body))
        return b"".join(out)

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.snapshot_bytes())

    @classmethod
    def from_snapshot(cls, buf: bytes) -> "StoreState":
        if buf[:8] != cls.SNAPSHOT_MAGIC:
            raise ValueError("not a store snapshot")
        r = Reader(buf[8:])
        chunk_size = r.u64_field()
        topics_blob = r.field()
        topics = [topics_blob[i : i + 32] for i in range(0, len(topics_blob), 32)]
        if len(topics_blob) % 32 or topics != sorted(set(topics)):
            raise ValueError("topic filter is not strictly increasing 32-byte entries")
        markf = r.field()
        if markf != b"\x00" and (len(markf) != 17 or markf[0] != 1):
            raise ValueError("bad applied-upto mark")
        mark = struct.unpack(">QQ", markf[1:]) if len(markf) == 17 else None
        store = cls(chunk_size=chunk_size, topics=topics)
        ndocs = r.u64_field()
        last = b""
        for _ in range(ndocs):
            lineage = r.field()
            topic = r.field()
            if len(lineage) != 32 or len(topic) != 32:
                raise ValueError("document lineage or topic is not 32 bytes")
            if lineage <= last:
                raise ValueError("documents not in strictly increasing lineage order")
            last = lineage
            deleted = r.field()
            if deleted not in (b"\x00", b"\x01"):
                raise ValueError("bad deleted flag")
            delete_field = r.u64_field()
            doc = Document(lineage=lineage, topic_id=topic, deleted=deleted == b"\x01")
            nrevs = r.u64_field()
            for _ in range(nrevs):
                seq = r.u64_field()
                data_hash = r.field()
                if len(data_hash) != 32:
                    raise ValueError("revision data hash is not 32 bytes")
                h = r.u64_field()
                i = r.u64_field()
                body = r.field()
                if body != b"\x00" and body[:1] != b"\x01":
                    raise ValueError("bad revision body")
                payload = body[1:] if body[:1] == b"\x01" else None
                if seq != len(doc.revisions) + 1:
                    raise ValueError("revisions not numbered 1..n")
                doc.revisions.append(Revision(seq, data_hash, payload, (h, i)))
            if not doc.revisions:
                raise ValueError("document without revisions")
            if delete_field != (doc.max_seq if doc.deleted else 0):
                raise ValueError("delete field is not the last revision of a deleted document")
            store.docs[lineage] = doc
        if not r.done():
            raise ValueError("trailing bytes in snapshot")
        store.applied_upto = mark
        return store

    @classmethod
    def load(cls, path) -> "StoreState":
        with open(path, "rb") as f:
            return cls.from_snapshot(f.read())

