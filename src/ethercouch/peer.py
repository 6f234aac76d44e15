"""The peer state machine: publish, listen, fetch, verify, serve, resync.

A peer owns one chain replica and one document store and keeps them in a
one-to-one relationship: a mutation lands in the store only once its
transaction is mined to the configured confirmation depth, in chain order
per document. Payloads for hash-anchored mutations are pulled off-chain
from whoever holds them (the editor first, then the first up-to-date peer
from the directory, then everyone else registered), and the store hashes
the joined chunks of a Response to the on-chain merkle root before any
byte is stored; a refused Response is logged as bad chunks, and the
fetch moves on to the next source. A new confirmation, a refill after a
reorg and a retry of an unavailable fetch all start in one place, which
tries the bytes at hand before any fetch: the tx's inline payload (so a
chain-only peer never fetches), the store's table of bytes by root (what
the peer published and what a rollback removed), then pushes cached
ahead of their block. The store's hash on apply is the one check on
every payload, and it skips the hash only for bytes equal to ones it
holds under that root. A holder proves a payload of several chunks
once, from one tree, and the store keeps the proofs of all its chunks for
every push and serve: a publisher builds them at publish from the tree
that gives the payload its root, and any other holder at its first push
or serve of the root. Its chunks are cut as views of the payload, so a
Response copies its bytes only when it is encoded. A payload of one chunk
is sent as it is, with the constant ``ONE_LEAF_PROOFS``: no tree, no set.

The peer is a deterministic event-driven machine: the surrounding
environment (a simulator here) feeds it messages, mining completions,
poll ticks and user actions one at a time, and collects outgoing messages.

Storage modes:
- ethercouch: chain carries fixed-size records, payloads replicate off-chain;
- chainonly: payloads ride inline in the transactions themselves.

The benchmark's third baseline, plain in-memory writes with no chain, runs
no peer at all (``bench``).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from functools import cached_property

from .crypto import (
    Digest,
    ONE_LEAF_PROOFS,
    ZERO_DIGEST,
    ProofSet,
    chunk_payload,
    hash_bytes,
    merkle_prove,
    payload_root,
    proof_root,
)
from .docstore import (
    DuplicateDocument,
    IntegrityError,
    StaleRevision,
    StoreState,
    TombstoneError,
)
from .ledger import ChainState, DbFunction, Task, TxRejected
from .registry import LocationRegistry
from .wire import (
    BlockAnnounce,
    BlockRequest,
    Refusal,
    Request,
    Response,
    TxAnnounce,
)


class Mode(Enum):
    ETHERCOUCH = "ethercouch"
    CHAIN_ONLY = "chainonly"


def editor_hash_for(name: str) -> Digest:
    """Peer identity digest, derived from the peer's name."""
    return hash_bytes(b"peer:" + name.encode())


def topic_hash(name: str) -> Digest:
    """Topic channel digest, derived from a topic name."""
    return hash_bytes(b"topic:" + name.encode())


@dataclass(frozen=True)
class PeerConfig:
    name: str
    topics: frozenset[Digest] = frozenset()  # empty = interested in everything
    confirmation_depth: int = 1
    mode: Mode = Mode.ETHERCOUCH

    def __post_init__(self) -> None:
        if self.confirmation_depth < 1:
            raise ValueError("confirmation_depth must be >= 1")
        if not self.name:
            raise ValueError("peer needs a name")

    @cached_property
    def editor_hash(self) -> Digest:
        return editor_hash_for(self.name)


class FetchState(Enum):
    AWAITING_CONFIRM = "awaiting-confirm"
    FETCHING = "fetching"
    UNAVAILABLE = "unavailable"


# Enum's metaclass defines __getattr__, which sends every read of a member
# through its class (Task.ADD) down a slower lookup; the function bodies of
# this module read these names instead
_ADD, _DELETE = Task.ADD, Task.DELETE
_ETHERCOUCH, _CHAIN_ONLY = Mode.ETHERCOUCH, Mode.CHAIN_ONLY
_AWAITING_CONFIRM, _FETCHING, _UNAVAILABLE = FetchState.AWAITING_CONFIRM, FetchState.FETCHING, FetchState.UNAVAILABLE


@dataclass(slots=True)
class PendingFetch:
    """One mutation on its way into the store, from the block that holds
    it until its revision lands there, the store buffers it behind its
    predecessor, or it can never land; the peer then forgets it.

    While fetching, the peer asked last is ``candidates[attempts]``, and
    only its answer moves the fetch on."""

    tx: DbFunction
    coord: tuple[int, int]
    state: FetchState = FetchState.AWAITING_CONFIRM
    refill: bool = False  # payload restore for an already-present revision
    candidates: list[str] = dc_field(default_factory=list)  # peer names, in asking order
    attempts: int = 0
    due: int = 0  # fetching: the Request's timeout; unavailable: the retry


ROLLBACK_ALL_OF_HEIGHT = 1 << 62  # tx index bound: keep everything in a block


class Peer:
    """One network participant. Single-threaded; driven by its environment.

    The environment must provide: ``now()``, ``send(src, dst_name, msg)``,
    ``send_batch(src, dst_name, msgs)``, ``broadcast(src, msg, names=None)``
    (to the peers named, or to every peer), ``note(src, text)``,
    ``arm_mining(peer)``, ``request_poll(peer)`` and the ints
    ``poll_interval`` and ``fetch_timeout``. It mines for the peer only
    while ``wants_mining()``.

    ``pending`` holds open work only, keyed by (lineage, seq) in the order
    it opened: one entry per in-filter canonical mutation whose revision
    has not landed in the store. It leaves once the revision lands, the
    store buffers it behind its predecessor (the store lands it and reports
    it applied once the gap closes), or it can never land (stale,
    tombstoned, or erased by a confirmed delete).
    """

    def __init__(
        self,
        config: PeerConfig,
        env,
        location: LocationRegistry,
        chunk_size: int = 4096,
        max_txs_per_block: int = 100,
    ):
        self.config = config
        self.name = config.name
        self.editor_hash = config.editor_hash
        self.env = env
        self.location = location
        self.chunk_size = chunk_size
        self.max_txs_per_block = max_txs_per_block
        # the environment's delay between mining completions stands in for the work
        self.chain = ChainState(difficulty_bits=0, chunk_size=chunk_size)
        self.store = StoreState(chunk_size=chunk_size, topics=config.topics)
        self._declared = tuple(sorted(config.topics))  # the topics each Request declares
        self.online = True
        self.pending: dict[tuple[Digest, int], PendingFetch] = {}
        self.push_cache: dict[tuple[Digest, int], bytes] = {}  # pushed, not yet usable
        self.own_unconfirmed: dict[Digest, DbFunction] = {}  # published, not yet mined
        self.own_mined: dict[Digest, tuple[DbFunction, int]] = {}  # mined, short of depth k
        self.own_reorged: dict[Digest, DbFunction] = {}  # settled, then rolled back
        self._next_reannounce: dict[Digest, int] = {}
        self.deferred: list[dict] = []
        self._resync: dict | None = None
        location.register_peer(self.editor_hash, config.name)

    # -- identity --------------------------------------------------------

    def _topic_ok(self, topic: Digest) -> bool:
        return not self.config.topics or topic in self.config.topics

    def _has_peers(self) -> bool:
        return len(self.location.all_peers) > 1

    def _close(self, pf: PendingFetch) -> None:
        """Forget ``pf``: its revision landed, waits in the store's buffer,
        or can never land."""
        self.pending.pop((pf.tx.doc_id, pf.tx.sequence_id), None)

    # -- publishing -------------------------------------------------------

    def publish(
        self,
        task: Task,
        topic: Digest,
        payload: bytes | None = None,
        lineage: Digest | None = None,
    ) -> DbFunction:
        """Create, validate and queue one mutation; returns the transaction.

        For edits and deletes the peer must hold the document's latest
        revision. In ethercouch mode the store keeps the payload once the
        ledger accepts the record.
        """
        if task is _ADD:
            seq, lineage = 1, ZERO_DIGEST
        else:
            latest = self.chain.speculative_latest(lineage)
            if latest is None:
                raise TxRejected("unknown-lineage")
            if latest[1]:
                raise TxRejected("already-deleted")
            seq = latest[0] + 1
        proofs = None
        if task is _DELETE:
            data_hash = ZERO_DIGEST
        elif self.config.mode is _ETHERCOUCH and len(payload) > self.chunk_size:
            # one tree for a payload of several chunks: its root goes on
            # chain, and its proofs serve every push and serve of the root
            chunks = chunk_payload(memoryview(payload), self.chunk_size)
            proofs = merkle_prove(chunks, range(len(chunks)))
            data_hash = proof_root(chunks[0], proofs[0])
        else:
            data_hash = payload_root(payload, self.chunk_size)
        inline = payload if self.config.mode is _CHAIN_ONLY and task is not _DELETE else None
        tx = DbFunction(task, data_hash, self.editor_hash, topic, seq, lineage, inline)
        self.chain.submit_tx(tx)
        if task is not _DELETE and self.config.mode is _ETHERCOUCH:
            self.store.stage(data_hash, payload, tx.doc_id)
            if proofs is not None:
                self.store.proof_set(data_hash, lambda: proofs)
        self.own_unconfirmed[tx.digest] = tx
        if self.online:
            self.env.broadcast(self, TxAnnounce(tx))
        self.env.arm_mining(self)
        self.env.request_poll(self)
        return tx

    def holds_latest(self, lineage: Digest) -> bool:
        """Is the local store level with the chain-plus-queue view, payload
        at hand, so an edit or delete can legitimately build on it?"""
        latest = self.chain.speculative_latest(lineage)
        doc = self.store.docs.get(lineage)
        if latest is None or doc is None or doc.deleted:
            return False
        seq, deleted = latest
        if deleted or doc.max_seq != seq:
            return False
        return doc.revisions[-1].payload is not None

    def user_action(self, task: Task, topic: Digest, payload: bytes | None, lineage: Digest | None) -> DbFunction | None:
        """Script-level publish with deferral: an edit or delete the peer
        cannot legitimately make yet is queued and retried as the local
        replica catches up; it is dropped once the document is deleted."""
        if task is _ADD:
            return self.publish(task, topic, payload, lineage)
        if self.holds_latest(lineage):
            try:
                return self.publish(task, topic, payload, lineage)
            except TxRejected as e:
                self.env.note(self, f"publish rejected {e.reason}")
                return None
        self.deferred.append({"task": task, "topic": topic, "payload": payload, "lineage": lineage})
        self.env.note(self, f"deferred {task.label} lineage={lineage[:6].hex()}")
        self.env.request_poll(self)
        return None

    def _retry_deferred(self) -> None:
        if not self.deferred:
            return
        keep: list[dict] = []
        for intent in self.deferred:
            latest = self.chain.speculative_latest(intent["lineage"])
            if latest is not None and latest[1]:
                self.env.note(self, f"dropped deferred {intent['task'].label}: deleted")
                continue
            if self.holds_latest(intent["lineage"]):
                try:
                    self.publish(intent["task"], intent["topic"], intent["payload"], intent["lineage"])
                except TxRejected as e:
                    self.env.note(self, f"deferred publish rejected {e.reason}")
                continue
            keep.append(intent)
        self.deferred = keep

    # -- lifecycle --------------------------------------------------------

    def go_offline(self) -> None:
        self.online = False
        self.env.note(self, "offline")

    def go_online(self) -> None:
        self.online = True
        self.env.note(self, "online")
        self.resync()

    def resync(self) -> None:
        """Rejoin after downtime: advertise our tip, ask a current peer for
        the block gap above our height, and re-flood unconfirmed local
        transactions. Payload gaps surface as pending fetches as the new
        blocks apply."""
        self.announce_tip()
        self._begin_resync(tried=())
        for tx in self.own_unconfirmed.values():
            self.env.broadcast(self, TxAnnounce(tx))
        self.env.arm_mining(self)
        self.env.request_poll(self)

    def _begin_resync(self, tried: tuple[str, ...]) -> None:
        source = next((name for name in self._sources() if name not in tried), None)
        if source is None:
            self._resync = None
            return
        self.env.send(self, source, BlockRequest(self.chain.height + 1))
        self._resync = {"sent_at": self.env.now(), "tried": tried + (source,)}

    def _sources(self, first: str | None = None) -> list[str]:
        """The peers to ask, in order: ``first``, then the first up-to-date
        peer, then every registered peer; each once, never this one."""
        order = [] if first is None else [first]
        order += self.location.up_to_date_peers()[:1]
        names = dict.fromkeys([*order, *self.location.all_peers.values()])
        names.pop(self.name, None)
        return list(names)

    def announce_tip(self) -> None:
        if self.chain.height > 0:
            self.env.broadcast(self, BlockAnnounce(self.chain.tip_block))

    # -- mining -----------------------------------------------------------

    def wants_mining(self) -> bool:
        """Mine while a tx is queued or a mutation awaits depth k, so a quiet
        network mines empty blocks until its last mutations are k deep."""
        return self.online and (bool(self.chain.mempool) or _AWAITING_CONFIRM in [pf.state for pf in self.pending.values()])

    def on_mine_complete(self) -> None:
        """The sampled work interval elapsed: assemble and adopt a block."""
        if not self.wants_mining():
            return
        block = self.chain.mine_block(self.editor_hash, max_txs=self.max_txs_per_block)
        report = self.chain.adopt_block(block)
        self.env.note(self, f"mined h={block.height} ntx={len(block.txs)} {block.block_hash[:6].hex()}")
        self._after_chain_event(report)
        self.env.broadcast(self, BlockAnnounce(block))

    # -- message handling ---------------------------------------------------

    def handle_message(self, msg, sender: str) -> None:
        if isinstance(msg, TxAnnounce):
            self._on_tx_announce(msg, sender)
        elif isinstance(msg, BlockAnnounce):
            self._on_block_announce(msg, sender)
        elif isinstance(msg, BlockRequest):
            self._on_block_request(msg, sender)
        elif isinstance(msg, Request):
            reply = self.serve_request(msg, sender)
            self.env.send(self, sender, reply)
        elif isinstance(msg, Response):
            self._on_response(msg, sender)
        elif isinstance(msg, Refusal):
            self._on_refusal(msg, sender)
        else:
            raise TypeError(f"unhandled message {type(msg).__name__}")

    def _on_tx_announce(self, msg: TxAnnounce, sender: str) -> None:
        try:
            self.chain.submit_tx(msg.tx)
        except TxRejected as e:
            self.env.note(self, f"tx from {sender} rejected: {e.reason}")
            return
        self.env.arm_mining(self)

    def _on_block_announce(self, msg: BlockAnnounce, sender: str) -> None:
        block = msg.block
        self._resync = None  # chain news arrived; a stale sync request is moot
        report = self.chain.adopt_block(block)
        if block.block_hash not in self.chain.blocks:
            if block.parent not in self.chain.blocks:
                # orphan: we are missing history; pull the sender's chain
                self.env.send(self, sender, BlockRequest(0))
            else:
                self.env.note(self, f"rejected block h={block.height} from {sender}")
            return
        self._after_chain_event(report)
        self.env.arm_mining(self)

    def _on_block_request(self, msg: BlockRequest, sender: str) -> None:
        hashes = self.chain.canonical_hashes[msg.from_height :]
        if not hashes:
            hashes = [self.chain.tip]  # fence: tells the asker we have nothing newer
        self.env.send_batch(self, sender, [BlockAnnounce(self.chain.blocks[h]) for h in hashes])

    # -- serving ------------------------------------------------------------

    def serve_request(self, req: Request, requester: str):
        """Hand out every chunk of the payload with its proof, or refuse.

        A requester with a declared topic filter only receives documents
        whose topic is inside that filter; everything else is refused so
        filtered peers cannot replicate data they are not meant to hold.
        """
        topic: Digest | None = None
        payload: bytes | None = None
        doc = self.store.docs.get(req.lineage)
        if doc is not None:
            topic = doc.topic_id
            rev = self.store.revision(req.lineage, req.seq)
            if rev is not None:
                root, payload = rev.data_hash, rev.payload
        if payload is None:
            entry = self.chain.registry.entry(req.lineage, req.seq)
            if entry is not None:
                topic, root = entry.tx.topic_id, entry.tx.data_hash
                payload = self.store.staged_payload(root)
        if topic is None:
            return Refusal(req.lineage, req.seq, "not-held")
        if req.declared_topics and topic not in req.declared_topics:
            return Refusal(req.lineage, req.seq, "filter-refused")
        if payload is None:
            return Refusal(req.lineage, req.seq, "not-held")
        chunks, proofs = self._proved_chunks(root, payload)
        return Response(req.lineage, req.seq, tuple(chunks), proofs)

    def _proved_chunks(self, root: Digest, payload: bytes) -> tuple[list[bytes], ProofSet]:
        """The chunks of a payload held under ``root`` and their proofs: a
        payload of at most one chunk (the empty one too) as its one chunk,
        with ``ONE_LEAF_PROOFS``, as ``payload_root`` hashes it whole; a
        longer one as views, so it is copied only when its Response is
        encoded, with the store's proofs: built at publish for a
        publisher's payload, else by the first push or serve of the root,
        from one tree either way."""
        if len(payload) <= self.chunk_size:
            return [payload], ONE_LEAF_PROOFS
        chunks = chunk_payload(memoryview(payload), self.chunk_size)
        return chunks, self.store.proof_set(root, lambda: merkle_prove(chunks, range(len(chunks))))

    # -- fetching -------------------------------------------------------------

    def _send_fetch(self, pf: PendingFetch) -> None:
        """Ask the next candidate; once every one was asked, the fetch is
        unavailable until the next tip change or one poll interval on."""
        if pf.attempts < len(pf.candidates):
            self.env.send(self, pf.candidates[pf.attempts], Request(pf.tx.doc_id, pf.tx.sequence_id, self._declared))
            pf.due = self.env.now() + self.env.fetch_timeout
            self.env.request_poll(self)
            return
        pf.state = _UNAVAILABLE
        pf.due = self.env.now() + self.env.poll_interval
        self.env.note(self, f"unavailable lineage={pf.tx.doc_id[:6].hex()} seq={pf.tx.sequence_id}")
        self.env.request_poll(self)

    def _on_response(self, resp: Response, sender: str) -> None:
        """Hand a Response's joined chunks to the store, whose root check on
        apply is their one check; the proofs are not read, since the chain
        anchors the bytes, not the proofs. A refusal is logged as bad
        chunks and moves the fetch on to the next source."""
        key = (resp.lineage, resp.seq)
        pf = self.pending.get(key)
        if pf is None:
            # pushed ahead of our chain view: keep raw, verify when the
            # transaction confirms locally. A revision the canonical chain
            # already holds has landed or never will, so its bytes are
            # stale. Filtered peers never hoard bytes for documents they
            # may not even subscribe to.
            if not self.config.topics:
                latest = self.chain.registry.latest(resp.lineage)
                if latest is None or resp.seq > latest[0]:
                    self._cache_push(key, b"".join(resp.chunks))
            return
        payload = b"".join(resp.chunks)
        if pf.state is _AWAITING_CONFIRM:
            # mined-before-apply rule: hold the bytes until depth k, unchecked
            # like any early push; the store checks them when they apply
            self._cache_push(key, payload)
            return
        if self._apply_payload(pf, payload):
            return
        self.env.note(self, f"bad chunks from {sender} lineage={resp.lineage[:6].hex()}")
        if pf.state is _FETCHING and pf.candidates[pf.attempts] == sender:
            pf.attempts += 1
            self._send_fetch(pf)

    def _cache_push(self, key: tuple[Digest, int], payload: bytes) -> None:
        self.push_cache[key] = payload
        while len(self.push_cache) > 256:
            self.push_cache.pop(next(iter(self.push_cache)))

    def _on_refusal(self, ref: Refusal, sender: str) -> None:
        pf = self.pending.get((ref.lineage, ref.seq))
        if pf is None or pf.state is not _FETCHING or pf.candidates[pf.attempts] != sender:
            return
        pf.attempts += 1
        self._send_fetch(pf)

    # -- applying ---------------------------------------------------------

    def _apply_payload(self, pf: PendingFetch, payload: bytes) -> bool:
        try:
            if pf.refill:
                self.store.fill_payload(pf.tx.doc_id, pf.tx.sequence_id, payload)
                self._close(pf)
                self.env.note(self, f"refilled lineage={pf.tx.doc_id[:6].hex()} seq={pf.tx.sequence_id}")
                return True
            if pf.tx.task is _ADD:
                result = self.store.apply_add(pf.tx, payload, pf.coord)
            else:
                result = self.store.apply_edit(pf.tx, payload, pf.coord)
        except IntegrityError:
            return False
        except (StaleRevision, DuplicateDocument, TombstoneError) as e:
            self._close(pf)
            self.env.note(self, f"apply skipped ({type(e).__name__}) lineage={pf.tx.doc_id[:6].hex()}")
            return True
        if result.buffered:
            self._close(pf)
        self._mark_applied(result.applied)
        return True

    def _mark_applied(self, applied_pairs) -> None:
        for lineage, seq in applied_pairs:
            self.pending.pop((lineage, seq), None)
            self.env.note(self, f"applied lineage={lineage[:6].hex()} seq={seq}")

    def _confirm_delete(self, pf: PendingFetch) -> None:
        """Apply a confirmed delete; revisions nobody can supply anymore are
        materialized as erased metadata first so history stays complete."""
        lineage = pf.tx.doc_id
        for entry in self.chain.registry.query_by_lineage(lineage)[: pf.tx.sequence_id - 1]:
            result = self.store.apply_erased(entry.tx, (entry.height, entry.index))
            self._mark_applied(result.applied)
            self.pending.pop((lineage, entry.tx.sequence_id), None)
        try:
            result = self.store.apply_delete(pf.tx, pf.coord)
        except (StaleRevision, TombstoneError):
            self._close(pf)
            return
        if result.buffered:
            self._close(pf)
        self._mark_applied(result.applied)
        # the store released its held bytes; deletion reaches the push
        # buffers too
        for key in [k for k in self.push_cache if k[0] == lineage]:
            del self.push_cache[key]

    # -- chain events -------------------------------------------------------

    def _after_chain_event(self, report) -> None:
        if not report.tip_changed:
            return
        self.location.mark_up_to_date(self.editor_hash, self.chain.tip)
        if report.rolled_back:
            mark = (report.fork_height, ROLLBACK_ALL_OF_HEIGHT)
            touched = self.store.rollback_to(mark)
            self.env.note(self, f"rolled back {len(report.rolled_back)} txs to h={report.fork_height}")
            for key in [k for k, p in self.pending.items() if p.coord[0] > report.fork_height]:
                del self.pending[key]
            for tx in report.rolled_back:
                if tx.digest in self.own_mined:
                    self.own_unconfirmed[tx.digest] = self.own_mined.pop(tx.digest)[0]
                elif tx.editor_hash == self.editor_hash:
                    self.own_reorged[tx.digest] = tx
        for tx, h, i in report.applied:
            if tx.digest in self.own_unconfirmed:
                self.own_mined[tx.digest] = (self.own_unconfirmed.pop(tx.digest), h)
            if not self._topic_ok(tx.topic_id):
                continue
            self.pending[(tx.doc_id, tx.sequence_id)] = PendingFetch(tx=tx, coord=(h, i))
        self._settle_own_txs()
        if self.own_reorged:
            self._watch_reorged()
        self._process_confirmations()
        if report.rolled_back:
            # only rollbacks can leave live revisions without payloads
            self._queue_missing_refills(touched)
        self._retry_deferred()
        self.env.request_poll(self)

    def _settle_own_txs(self) -> None:
        tip_height = self.chain.height
        pushes = self.config.mode is _ETHERCOUCH
        recipients = None  # read once per chain event, at the first push
        for d, (tx, h) in list(self.own_mined.items()):
            if tip_height - h + 1 < self.config.confirmation_depth:
                continue
            del self.own_mined[d]
            if pushes and tx.task is not _DELETE:
                if recipients is None:
                    recipients = self._push_recipients()
                if recipients:
                    self._push_payload(tx, recipients)
            self._next_reannounce.pop(d, None)

    def _watch_reorged(self) -> None:
        """Forget an own tx a reorg took off the chain after it settled
        once it is on chain again, and release its bytes once it is dead:
        neither queued nor on chain."""
        for d, tx in list(self.own_reorged.items()):
            if self.chain.confirmations(tx):
                del self.own_reorged[d]
            elif not self.chain.in_mempool(tx):
                del self.own_reorged[d]
                self._release(tx)

    def _push_recipients(self) -> list[str]:
        """The other peers currently marked up to date."""
        return [name for name in self.location.up_to_date_peers() if name != self.name]

    def _push_payload(self, tx: DbFunction, recipients: list[str]) -> None:
        """Off-chain broadcast after mining: hand the fresh payload to
        ``recipients``, the peers marked up to date; everyone else pulls on
        demand."""
        payload = self.store.staged_payload(tx.data_hash)
        if payload is None:
            return
        chunks, proofs = self._proved_chunks(tx.data_hash, payload)
        self.env.broadcast(self, Response(tx.doc_id, tx.sequence_id, tuple(chunks), proofs), recipients)

    def _process_confirmations(self) -> None:
        tip_height = self.chain.height
        k = self.config.confirmation_depth
        for key in list(self.pending):
            pf = self.pending.get(key)
            if pf is None:
                continue
            if pf.state is _AWAITING_CONFIRM:
                if tip_height - pf.coord[0] + 1 < k:
                    continue
                self._dispatch_confirmed(pf)
            elif pf.state is _UNAVAILABLE:
                # fresh chain activity: bytes or sources may have changed,
                # so start over from the bytes at hand
                self._dispatch_confirmed(pf)

    def _dispatch_confirmed(self, pf: PendingFetch) -> None:
        """The one way a confirmed mutation starts toward the store, for a
        new confirmation, a refill and a retry of an unavailable fetch. A
        delete applies at once; otherwise the bytes at hand go first (the
        inline payload, the store's held bytes, a cached push), unchecked
        since the store's hash on apply is the one check, and bytes it
        refuses fall through to the next. Only then does a fetch start."""
        tx = pf.tx
        if tx.task is _DELETE:
            self._confirm_delete(pf)
            return
        if tx.inline_payload is not None and self._apply_payload(pf, tx.inline_payload):
            return
        held = self.store.held_payload(tx.data_hash)
        if held is not None and self._apply_payload(pf, held):
            return
        pushed = self.push_cache.pop((tx.doc_id, tx.sequence_id), None)
        if pushed is not None and self._apply_payload(pf, pushed):
            return
        pf.candidates = self._sources(self.location.all_peers.get(tx.editor_hash))
        pf.attempts = 0
        pf.state = _FETCHING
        self._send_fetch(pf)

    def _queue_missing_refills(self, touched: list[Digest]) -> None:
        """After a rollback un-deletes a document, its erased payloads need
        to come back: from the chain's inline copy in chain-only mode, else
        from bytes at hand, else from peers that never applied the delete.
        Only the lineages the rollback ``touched`` can hold such a
        document."""
        for lineage, seq, data_hash in self.store.missing_payload_revisions(touched):
            key = (lineage, seq)
            if key in self.pending:
                continue
            entry = self.chain.registry.entry(lineage, seq)
            if entry is None or entry.tx.data_hash != data_hash:
                continue
            refill = PendingFetch(tx=entry.tx, coord=(entry.height, entry.index), refill=True)
            self.pending[key] = refill
            self._dispatch_confirmed(refill)

    # -- polling ------------------------------------------------------------

    def wants_poll(self) -> bool:
        if not self.online:
            return False
        if self._resync is not None or self.deferred:
            return True
        if self.own_unconfirmed and self._has_peers():
            return True
        return any(pf.state in (_FETCHING, _UNAVAILABLE) for pf in self.pending.values())

    def on_poll(self) -> None:
        if not self.online:
            return
        now = self.env.now()
        if self._resync is not None and now - self._resync["sent_at"] >= self.env.fetch_timeout:
            tried = self._resync["tried"]
            if len(tried) >= len(self.location.all_peers) - 1:
                tried = ()  # everyone tried once; start the rotation over
            self._begin_resync(tried)
        for key in list(self.pending):
            pf = self.pending.get(key)
            if pf is None:
                continue
            if pf.state is _FETCHING and now >= pf.due:
                pf.attempts += 1
                self._send_fetch(pf)
            elif pf.state is _UNAVAILABLE and now >= pf.due:
                self._dispatch_confirmed(pf)
        self._reannounce_own(now)
        self._retry_deferred()
        self.env.request_poll(self)

    def _reannounce_own(self, now: int) -> None:
        if not self._has_peers():
            return  # single node: nobody to flood, settling happens on chain events
        for d, tx in list(self.own_unconfirmed.items()):
            if not self.chain.in_mempool(tx):
                # lost the sequence race on some branch; a dead record stays dead
                self.env.note(self, f"dropping dead tx {tx.task.label} seq={tx.sequence_id}")
                del self.own_unconfirmed[d]
                self._next_reannounce.pop(d, None)
                self._release(tx)
                continue
            if now >= self._next_reannounce.get(d, 0):
                self.env.broadcast(self, TxAnnounce(tx))
                self._next_reannounce[d] = now + self.env.poll_interval * 2

    def _release(self, tx: DbFunction) -> None:
        """Give up a dead tx's claim on the bytes it staged, unless another
        open tx of this peer claims the same root for the same lineage."""
        live = [*self.own_unconfirmed.values(), *(t for t, _ in self.own_mined.values()), *self.own_reorged.values()]
        if not any(t.doc_id == tx.doc_id and t.data_hash == tx.data_hash for t in live):
            self.store.release(tx.data_hash, tx.doc_id)
