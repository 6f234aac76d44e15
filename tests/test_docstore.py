"""Document store tests: revisions, tombstones, buffering, rollback, and a
seeded replay model of all of them."""

import random
from dataclasses import dataclass

import pytest

from conftest import CHUNK, EDITOR_A, TOPIC_T, TOPIC_U, make_add, make_delete, make_edit
from ethercouch.cli import main
from ethercouch.codec import lp, u64
from ethercouch.crypto import ZERO_DIGEST, chunk_payload, hash_bytes, merkle_root, payload_root
from ethercouch.docstore import (
    Document,
    DuplicateDocument,
    IntegrityError,
    Revision,
    StaleRevision,
    StoreState,
    TombstoneError,
    UnknownLineage,
)
from ethercouch.ledger import ChainState, DbFunction, Task, lineage_of


def add_doc(store, payload, origin=(1, 0), **kw):
    tx = make_add(payload, **kw)
    lineage = lineage_of(tx)
    store.apply_add(tx, payload, origin)
    return tx, lineage


def test_add_then_read():
    store = StoreState(chunk_size=CHUNK)
    _, lineage = add_doc(store, b"hello")
    assert store.get_active(lineage) == b"hello"
    assert len(store.history(lineage)) == 1


def test_add_rejects_flipped_byte():
    store = StoreState(chunk_size=CHUNK)
    tx = make_add(b"payload")
    bad = b"qayload"
    with pytest.raises(IntegrityError):
        store.apply_add(tx, bad, (1, 0))
    assert lineage_of(tx) not in store.docs


def test_two_adds_two_documents():
    store = StoreState(chunk_size=CHUNK)
    _, l1 = add_doc(store, b"one")
    _, l2 = add_doc(store, b"two", origin=(1, 1))
    assert l1 != l2
    assert len(store.docs) == 2


def test_duplicate_add_rejected():
    store = StoreState(chunk_size=CHUNK)
    tx, lineage = add_doc(store, b"doc")
    with pytest.raises(DuplicateDocument):
        store.apply_add(tx, b"doc", (2, 0))


def test_edit_becomes_active_and_history_grows():
    store = StoreState(chunk_size=CHUNK)
    _, lineage = add_doc(store, b"v1")
    edit = make_edit(lineage, 2, b"v2")
    res = store.apply_edit(edit, b"v2", (2, 0))
    assert res.applied == ((lineage, 2),)
    assert store.get_active(lineage) == b"v2"
    assert [r.seq for r in store.history(lineage)] == [1, 2]
    # the old revision keeps its payload
    assert store.history(lineage)[0].payload == b"v1"


def test_out_of_order_edit_buffers_then_drains():
    store = StoreState(chunk_size=CHUNK)
    _, lineage = add_doc(store, b"v1")
    e3 = make_edit(lineage, 3, b"v3")
    res = store.apply_edit(e3, b"v3", (3, 0))
    assert res.buffered and res.applied == ()
    assert store.get_active(lineage) == b"v1"
    e2 = make_edit(lineage, 2, b"v2")
    res = store.apply_edit(e2, b"v2", (2, 0))
    assert res.applied == ((lineage, 2), (lineage, 3))
    assert store.get_active(lineage) == b"v3"


def test_edit_before_add_buffers_under_lineage():
    store = StoreState(chunk_size=CHUNK)
    tx = make_add(b"v1")
    lineage = lineage_of(tx)
    res = store.apply_edit(make_edit(lineage, 2, b"v2"), b"v2", (2, 0))
    assert res.buffered
    res = store.apply_add(tx, b"v1", (1, 0))
    assert res.applied == ((lineage, 1), (lineage, 2))


def test_stale_edit_rejected():
    store = StoreState(chunk_size=CHUNK)
    _, lineage = add_doc(store, b"v1")
    store.apply_edit(make_edit(lineage, 2, b"v2"), b"v2", (2, 0))
    with pytest.raises(StaleRevision):
        store.apply_edit(make_edit(lineage, 2, b"v2x"), b"v2x", (3, 0))


def test_delete_erases_all_payload_bytes():
    store = StoreState(chunk_size=CHUNK)
    _, lineage = add_doc(store, b"v1-secret")
    store.apply_edit(make_edit(lineage, 2, b"v2-secret"), b"v2-secret", (2, 0))
    store.apply_delete(make_delete(lineage, 3), (3, 0))
    doc = store.docs[lineage]
    assert doc.deleted and doc.active_seq is None
    assert len(doc.revisions) == 3
    assert all(r.payload is None for r in doc.revisions)
    assert store.payload_bytes() == 0


def test_get_active_on_deleted_doc_is_tombstone_not_not_found():
    store = StoreState(chunk_size=CHUNK)
    _, lineage = add_doc(store, b"v1")
    store.apply_delete(make_delete(lineage, 2), (2, 0))
    assert store.get_active(lineage) is None
    with pytest.raises(UnknownLineage):
        store.get_active(hash_bytes(b"never seen"))


def test_edit_on_deleted_doc_tombstone_error():
    store = StoreState(chunk_size=CHUNK)
    _, lineage = add_doc(store, b"v1")
    store.apply_delete(make_delete(lineage, 2), (2, 0))
    with pytest.raises(TombstoneError):
        store.apply_edit(make_edit(lineage, 3, b"zombie"), b"zombie", (3, 0))


def test_delete_on_unknown_lineage_buffers():
    store = StoreState(chunk_size=CHUNK)
    tx = make_add(b"v1")
    lineage = lineage_of(tx)
    res = store.apply_delete(make_delete(lineage, 2), (2, 0))
    assert res.buffered
    res = store.apply_add(tx, b"v1", (1, 0))
    assert (lineage, 2) in res.applied
    assert store.docs[lineage].deleted


def test_history_of_deleted_doc_keeps_metadata():
    store = StoreState(chunk_size=CHUNK)
    add_tx, lineage = add_doc(store, b"v1")
    store.apply_edit(make_edit(lineage, 2, b"v2"), b"v2", (2, 0))
    store.apply_delete(make_delete(lineage, 3), (3, 0))
    revs = store.history(lineage)
    assert [r.seq for r in revs] == [1, 2, 3]
    assert revs[0].data_hash == add_tx.data_hash
    assert all(r.payload is None for r in revs)
    with pytest.raises(UnknownLineage):
        store.history(hash_bytes(b"ghost"))


def test_deletion_leaves_no_payload_substring_in_snapshot():
    rng = random.Random(99)
    store = StoreState(chunk_size=CHUNK)
    secrets = []
    lineages = []
    for i in range(5):
        payload = rng.randbytes(64)
        secrets.append(payload)
        _, lineage = add_doc(store, payload, origin=(1, i))
        lineages.append(lineage)
    for i, lineage in enumerate(lineages):
        store.apply_delete(make_delete(lineage, 2), (2, i))
    blob = store.snapshot_bytes()
    for secret in secrets:
        for start in range(0, len(secret) - 16 + 1, 8):
            assert secret[start : start + 16] not in blob


def test_erased_revision_catchup_past_delete():
    # a peer that saw nothing before the delete still materializes history
    store = StoreState(chunk_size=CHUNK)
    add_tx = make_add(b"v1")
    lineage = lineage_of(add_tx)
    edit_tx = make_edit(lineage, 2, b"v2")
    store.apply_erased(add_tx, (1, 0))
    store.apply_erased(edit_tx, (2, 0))
    store.apply_delete(make_delete(lineage, 3), (3, 0))
    doc = store.docs[lineage]
    assert doc.deleted
    assert [r.seq for r in doc.revisions] == [1, 2, 3]
    assert all(r.payload is None for r in doc.revisions)
    # idempotent for revisions already present
    assert store.apply_erased(add_tx, (1, 0)).applied == ()


def test_apply_erased_refuses_an_edit_it_cannot_place():
    store = StoreState(chunk_size=CHUNK)
    add_tx = make_add(b"v1")
    lineage = lineage_of(add_tx)
    # an edit of a document the store never saw has nothing to attach to
    with pytest.raises(UnknownLineage):
        store.apply_erased(make_edit(lineage, 2, b"v2"), (2, 0))
    assert lineage not in store.docs
    store.apply_erased(add_tx, (1, 0))
    store.apply_delete(make_delete(lineage, 2), (2, 0))
    # past the delete, a revision would follow a tombstone
    with pytest.raises(TombstoneError):
        store.apply_erased(make_edit(lineage, 3, b"v3"), (3, 0))
    assert [r.seq for r in store.history(lineage)] == [1, 2]


def test_fill_payload_refuses_what_it_cannot_fill():
    store = StoreState(chunk_size=CHUNK)
    add_tx = make_add(b"v1")
    lineage = lineage_of(add_tx)
    with pytest.raises(UnknownLineage):
        store.fill_payload(lineage, 1, b"v1")
    store.apply_erased(add_tx, (1, 0))
    for seq in (0, 2):
        with pytest.raises(StaleRevision):
            store.fill_payload(lineage, seq, b"v1")
    with pytest.raises(IntegrityError):
        store.fill_payload(lineage, 1, b"not v1")
    assert store.revision(lineage, 1).payload is None
    store.fill_payload(lineage, 1, b"v1")
    assert store.get_active(lineage) == b"v1"


# -- rollback ------------------------------------------------------------


def test_rollback_reverts_active_revision():
    store = StoreState(chunk_size=CHUNK)
    _, lineage = add_doc(store, b"v1", origin=(1, 0))
    store.apply_edit(make_edit(lineage, 2, b"v2"), b"v2", (2, 0))
    store.rollback_to((1, 2**62))
    assert store.get_active(lineage) == b"v1"
    assert store.applied_upto <= (1, 2**62)
    # rolled-back payload is held for re-application, but not served
    root = make_edit(lineage, 2, b"v2").data_hash
    assert (store.held_payload(root), store.staged_payload(root)) == (b"v2", None)


def test_rollback_to_current_mark_is_noop():
    store = StoreState(chunk_size=CHUNK)
    _, lineage = add_doc(store, b"v1", origin=(1, 0))
    before = store.snapshot_bytes()
    store.rollback_to((5, 0))
    assert store.snapshot_bytes() == before


def test_rollback_then_reapply_equals_never_rolled_back():
    store_a = StoreState(chunk_size=CHUNK)
    store_b = StoreState(chunk_size=CHUNK)
    add_tx = make_add(b"v1")
    lineage = lineage_of(add_tx)
    e2 = make_edit(lineage, 2, b"v2")
    e3 = make_edit(lineage, 3, b"v3")
    for store in (store_a, store_b):
        store.apply_add(add_tx, b"v1", (1, 0))
        store.apply_edit(e2, b"v2", (2, 0))
        store.apply_edit(e3, b"v3", (3, 0))
    store_a.rollback_to((1, 2**62))
    store_a.apply_edit(e2, store_a.held_payload(e2.data_hash), (2, 0))
    store_a.apply_edit(e3, store_a.held_payload(e3.data_hash), (3, 0))
    assert store_a.snapshot_bytes() == store_b.snapshot_bytes()
    assert store_a.dump_text() == store_b.dump_text()


def test_rollback_removes_document_whose_add_rolled_back():
    store = StoreState(chunk_size=CHUNK)
    _, l1 = add_doc(store, b"keep", origin=(1, 0))
    _, l2 = add_doc(store, b"drop", origin=(2, 0))
    store.rollback_to((1, 2**62))
    assert l1 in store.docs
    assert l2 not in store.docs


def test_rollback_undeletes_when_delete_rolls_back():
    store = StoreState(chunk_size=CHUNK)
    _, lineage = add_doc(store, b"v1", origin=(1, 0))
    store.apply_delete(make_delete(lineage, 2), (2, 0))
    store.rollback_to((1, 2**62))
    doc = store.docs[lineage]
    assert not doc.deleted
    assert doc.active_seq == 1
    # erased payloads do not come back on their own
    assert store.get_active(lineage) is None
    assert store.missing_payload_revisions(store.docs) == [(lineage, 1, make_add(b"v1").data_hash)]


def test_delete_purges_rollback_side_buffer():
    store = StoreState(chunk_size=CHUNK)
    _, lineage = add_doc(store, b"v1", origin=(1, 0))
    e2 = make_edit(lineage, 2, b"v2-secret")
    store.apply_edit(e2, b"v2-secret", (2, 0))
    # a rollback keeps the edit payload by its root
    store.rollback_to((1, 2**62))
    assert store.held_payload(e2.data_hash) == b"v2-secret"
    # re-apply, then delete: the held copy must go with everything else
    store.apply_edit(e2, b"v2-secret", (2, 0))
    store.rollback_to((1, 2**62))
    store.apply_edit(e2, b"v2-secret", (2, 0))
    store.apply_delete(make_delete(lineage, 3), (3, 0))
    assert store.held_payload(e2.data_hash) is None


# -- snapshots -----------------------------------------------------------


def test_snapshot_roundtrip():
    store = StoreState(chunk_size=512, topics=frozenset({hash_bytes(b"topic")}))
    _, lineage = add_doc(store, b"v1" * 300, origin=(1, 0), chunk=512)
    store.apply_edit(make_edit(lineage, 2, b"v2" * 300, chunk=512), b"v2" * 300, (2, 0))
    blob = store.snapshot_bytes()
    loaded = StoreState.from_snapshot(blob)
    assert loaded.snapshot_bytes() == blob
    assert loaded.dump_text() == store.dump_text()
    assert loaded.chunk_size == 512
    assert loaded.topics == store.topics
    assert loaded.applied_upto == store.applied_upto


def doc_fields(lineage: bytes, deleted: int = 0, delete_field: int = 0, seqs=(1,), topic=TOPIC_T, data_hash=ZERO_DIGEST) -> list[bytes]:
    """One document of a store snapshot, written field by field."""
    out = [lp(lineage), lp(topic), lp(bytes([deleted])), lp(u64(delete_field)), lp(u64(len(seqs)))]
    for seq in seqs:
        out += [lp(u64(seq)), lp(data_hash), lp(u64(seq)), lp(u64(0)), lp(b"\x00")]
    return out


def snapshot_of(docs: list[list[bytes]], topics: bytes = b"") -> bytes:
    """A store snapshot of ``docs`` (``doc_fields`` each), in the order given."""
    out = [StoreState.SNAPSHOT_MAGIC, lp(u64(CHUNK)), lp(topics), lp(b"\x00"), lp(u64(len(docs)))]
    return b"".join(out + [field for doc in docs for field in doc])


def one_doc_snapshot(deleted: int, delete_field: int, seqs: tuple[int, ...]) -> bytes:
    """A store snapshot holding one document, written field by field."""
    return snapshot_of([doc_fields(hash_bytes(b"doc"), deleted, delete_field, seqs)])


LOW, HIGH = sorted([hash_bytes(b"doc"), hash_bytes(b"doc2")])
TOPICS_SORTED = b"".join(sorted([TOPIC_T, TOPIC_U]))


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(one_doc_snapshot(0, 0, (1, 3)), id="revision-gap"),
        pytest.param(one_doc_snapshot(0, 0, (1, 1)), id="revision-repeat"),
        pytest.param(one_doc_snapshot(1, 1, (1, 2)), id="delete-field-not-last-revision"),
        pytest.param(one_doc_snapshot(0, 2, (1, 2)), id="live-with-delete-field"),
        pytest.param(one_doc_snapshot(0, 0, ()), id="no-revisions"),
        pytest.param(snapshot_of([doc_fields(LOW), doc_fields(LOW, seqs=(1, 2))]), id="lineage-listed-twice"),
        pytest.param(snapshot_of([doc_fields(HIGH), doc_fields(LOW)]), id="documents-unsorted"),
        pytest.param(snapshot_of([doc_fields(LOW)], TOPIC_T + TOPIC_T), id="topic-repeated"),
        pytest.param(snapshot_of([doc_fields(LOW)], TOPICS_SORTED[32:] + TOPICS_SORTED[:32]), id="topics-unsorted"),
        pytest.param(snapshot_of([doc_fields(LOW[:5])]), id="short-lineage"),
        pytest.param(snapshot_of([doc_fields(LOW, topic=TOPIC_T[:5])]), id="short-topic"),
        pytest.param(snapshot_of([doc_fields(LOW, data_hash=ZERO_DIGEST[:5])]), id="short-data-hash"),
    ],
)
def test_snapshot_refuses_misnumbered_revisions_and_delete_fields(tmp_path, capsys, bad):
    # a snapshot loads only in the form ``snapshot_bytes`` writes: revisions
    # numbered 1..n with n >= 1, the delete field n for a deleted document
    # and 0 for a live one, documents in strictly increasing lineage order,
    # a strictly increasing topic filter, and 32-byte lineages, topics and
    # data hashes; these well-formed ones load
    for good in (
        one_doc_snapshot(0, 0, (1, 2)),
        one_doc_snapshot(1, 2, (1, 2)),
        snapshot_of([doc_fields(LOW), doc_fields(HIGH, seqs=(1, 2))], TOPICS_SORTED),
    ):
        assert StoreState.from_snapshot(good).snapshot_bytes() == good
    with pytest.raises(ValueError):
        StoreState.from_snapshot(bad)
    (tmp_path / "p0.store").write_bytes(bad)
    ChainState(chunk_size=CHUNK).save(tmp_path / "p0.chain")
    for argv in (["dump-store", str(tmp_path / "p0.store")], ["verify", str(tmp_path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert captured.out == ""


# -- replay model --------------------------------------------------------


@dataclass
class Mutation:
    """One mutation on the model chain, at its current chain origin."""

    tx: DbFunction
    lineage: bytes
    payload: bytes | None  # None for a delete
    origin: tuple[int, int] = (0, 0)

    @property
    def key(self) -> tuple[bytes, int]:
        return (self.lineage, self.tx.sequence_id)


def model_chain(rng: random.Random) -> list[Mutation]:
    """About 20 valid mutations over four lineages, in chain order: adds,
    edits, and a delete that ends some lineages."""
    chain: list[Mutation] = []
    live: dict[bytes, int] = {}  # lineage -> its last sequence number
    adds = 0
    while len(chain) < 20 and (live or adds < 4):
        if adds < 4 and (not live or rng.random() < 0.3):
            payload = rng.randbytes(rng.randint(1, 40))
            tx = make_add(payload, topic=rng.choice((TOPIC_T, TOPIC_U)))
            lineage = lineage_of(tx)
            adds += 1
            live[lineage] = 1
        else:
            lineage = rng.choice(list(live))
            seq = live[lineage] + 1
            if rng.random() < 0.2:
                tx, payload = make_delete(lineage, seq), None
                del live[lineage]
            else:
                payload = rng.randbytes(rng.randint(1, 40))
                tx = make_edit(lineage, seq, payload)
                live[lineage] = seq
        chain.append(Mutation(tx, lineage, payload))
    for i, m in enumerate(chain):
        m.origin = (1 + i // 3, i % 3)
    return chain


def deliver(store: StoreState, m: Mutation, chain: list[Mutation]) -> set:
    """Hand one confirmed mutation to the store as a peer does, and return
    the (lineage, seq) pairs the store reports as landed. A delete goes as
    ``Peer._confirm_delete`` sends it: every earlier revision as erased,
    then the delete."""
    if m.tx.task is Task.ADD:
        results = [store.apply_add(m.tx, m.payload, m.origin)]
    elif m.tx.task is Task.EDIT:
        results = [store.apply_edit(m.tx, m.payload, m.origin)]
    else:
        earlier = [e for e in chain if e.lineage == m.lineage and e.tx.sequence_id < m.tx.sequence_id]
        results = [store.apply_erased(e.tx, e.origin) for e in earlier]
        results.append(store.apply_delete(m.tx, m.origin))
    return {pair for r in results for pair in r.applied}


class StoreModel:
    """What a store must hold, folded from the mutations handed to it.

    A delivered mutation lands once every earlier revision of its lineage
    has landed; a landed delete empties every revision of its lineage. The
    applied-upto mark is the largest origin that ever landed, clamped down
    to the mark of each rollback (not the largest surviving origin). A
    rollback that removes a delete leaves the earlier revisions empty.
    """

    def __init__(self, chain: list[Mutation]):
        self.chain = chain  # the current chain, in chain order
        self.held: dict[tuple[bytes, int], bytes | None] = {}  # delivered key -> bytes the store keeps
        self.landed: set[tuple[bytes, int]] = set()
        self.applied_upto: tuple[int, int] | None = None

    def settle(self) -> set:
        """Land what can land; return the keys that landed just now."""
        landed = set()
        for m in self.chain:
            lineage, seq = m.key
            if m.key in self.held and (seq == 1 or (lineage, seq - 1) in landed):
                landed.add(m.key)
                if m.tx.task is Task.DELETE:
                    for key in self.held:
                        if key[0] == lineage:
                            self.held[key] = None
        new = landed - self.landed
        for m in self.chain:
            if m.key in new and (self.applied_upto is None or m.origin > self.applied_upto):
                self.applied_upto = m.origin
        self.landed = landed
        return new

    def rollback(self, mark: tuple[int, int]) -> None:
        for m in self.chain:
            if m.origin > mark:
                self.held.pop(m.key, None)
        self.landed = {m.key for m in self.chain if m.key in self.landed and m.origin <= mark}
        if self.applied_upto is not None and self.applied_upto > mark:
            self.applied_upto = mark

    def fold(self) -> StoreState:
        """A store built directly from the landed mutations, no apply path."""
        store = StoreState(chunk_size=CHUNK)
        store.applied_upto = self.applied_upto
        for m in self.chain:
            if m.key not in self.landed:
                continue
            doc = store.docs.setdefault(m.lineage, Document(m.lineage, m.tx.topic_id))
            doc.revisions.append(Revision(m.tx.sequence_id, m.tx.data_hash, self.held[m.key], m.origin))
            if m.tx.task is Task.DELETE:
                doc.deleted = True
        return store


def replay_in_chain_order(model: StoreModel) -> StoreState:
    """A fresh store fed only the landed mutations, in chain order."""
    fresh = StoreState(chunk_size=CHUNK)
    for m in model.chain:
        if m.key in model.landed:
            deliver(fresh, m, model.chain)
    return fresh


@pytest.mark.parametrize("seed", range(24))
def test_store_matches_a_replay_model(seed):
    rng = random.Random(seed)
    chain = model_chain(rng)
    next_height = chain[-1].origin[0] + 1
    model = StoreModel(chain)
    store = StoreState(chunk_size=CHUNK)
    for step in range(80):
        roll = rng.random()
        undelivered = [m for m in model.chain if m.key not in model.held]
        if roll < 0.5 and undelivered:
            m = rng.choice(undelivered)
            reported = deliver(store, m, model.chain)
            model.held[m.key] = m.payload
            if m.tx.task is Task.DELETE:
                for e in model.chain:
                    if e.lineage == m.lineage:
                        model.held.setdefault(e.key, None)
            assert reported == model.settle(), (seed, step)
        elif roll < 0.7:
            # a reorg: everything after the mark leaves the chain; per
            # lineage a prefix of it comes back at new, higher origins
            mark = rng.choice([(0, 0)] + [m.origin for m in model.chain])
            store.rollback_to(mark)
            model.rollback(mark)
            gone = [m for m in model.chain if m.origin > mark]
            back, lost = [], set()
            for m in gone:
                if m.lineage in lost or rng.random() < 0.05:
                    lost.add(m.lineage)
                else:
                    back.append(m)
            for i, m in enumerate(back):
                m.origin = (next_height + i // 3, i % 3)
            next_height += len(back) // 3 + 1
            model.chain = [m for m in model.chain if m.origin <= mark] + back
        elif roll < 0.85:
            by_key = {m.key: m for m in model.chain}
            deleted = {k[0] for k in model.landed if by_key[k].tx.task is Task.DELETE}
            expected_missing = sorted(
                (k[0], k[1], by_key[k].tx.data_hash) for k in model.landed if model.held[k] is None and k[0] not in deleted
            )
            assert sorted(store.missing_payload_revisions(store.docs)) == expected_missing, (seed, step)
            for lineage, seq, _ in expected_missing:
                store.fill_payload(lineage, seq, by_key[(lineage, seq)].payload)
                model.held[(lineage, seq)] = by_key[(lineage, seq)].payload
            # with every live revision whole again, the store is the one
            # its landed mutations build, but for the clamped mark
            fresh = replay_in_chain_order(model).dump_text().split("\n", 1)[1]
            assert store.dump_text().split("\n", 1)[1] == fresh, (seed, step)
        else:
            # buffered mutations are not part of a snapshot
            store = StoreState.from_snapshot(store.snapshot_bytes())
            for key in [k for k in model.held if k not in model.landed]:
                del model.held[key]
        expected = model.fold()
        assert store.dump_text() == expected.dump_text(), (seed, step)
        assert store.snapshot_bytes() == expected.snapshot_bytes(), (seed, step)
        # revision seq of a document is the one history lists under seq
        for lineage, seq in set(model.held) | {(lin, len(doc.revisions) + 1) for lin, doc in store.docs.items()}:
            scan = store.history(lineage) if lineage in store.docs else []
            assert store.revision(lineage, seq) is next((r for r in scan if r.seq == seq), None), (seed, step)


def test_add_doc_respects_chunked_payloads():
    store = StoreState(chunk_size=8)
    payload = bytes(range(64))
    tx = make_add(payload, chunk=8)
    store.apply_add(tx, payload, (1, 0))
    assert store.get_active(lineage_of(tx)) == payload


# -- publisher staging ---------------------------------------------------


def count_store_hashes(monkeypatch):
    """Count the store's payload_root calls; returns the list of payloads."""
    import ethercouch.docstore as docstore

    hashed = []
    real = docstore.payload_root

    def counting(payload, chunk_size):
        hashed.append(payload)
        return real(payload, chunk_size)

    monkeypatch.setattr(docstore, "payload_root", counting)
    return hashed


def test_staged_bytes_are_held_under_the_given_root():
    store = StoreState(chunk_size=8)
    payload = bytes(range(100))  # 13 chunks
    tx = make_add(payload, chunk=8)
    store.stage(tx.data_hash, payload, lineage_of(tx))
    assert store.staged_payload(tx.data_hash) == store.held_payload(tx.data_hash) == payload
    other = payload_root(payload[1:], 8)
    assert store.staged_payload(other) is store.held_payload(other) is None


def test_release_drops_one_lineages_claim_and_leaves_rollback_copies():
    store = StoreState(chunk_size=8)
    payload = bytes(range(40))
    root = payload_root(payload, 8)
    first, second = hash_bytes(b"lineage one"), hash_bytes(b"lineage two")
    store.stage(root, payload, first)
    store.stage(root, payload, second)
    store.proof_set(root, lambda: ("proofs",))
    store.release(root, first)
    assert store._held[root] == (payload, second)
    store.release(root, first)  # a lineage with no claim changes nothing
    assert store._held[root] == (payload, second)
    assert store._proof_sets[root] == ("proofs",)
    store.release(root, second)
    assert root not in store._held and root not in store._proof_sets
    assert store.held_payload(root) is None
    store.release(root, second)  # nothing held: nothing to do
    # a rollback copy has no claim to drop
    tx, lineage = add_doc(store, payload, chunk=8)
    store.rollback_to((0, 0))
    assert store._held[tx.data_hash] == (payload,)
    store.release(tx.data_hash, lineage)
    assert store._held[tx.data_hash] == (payload,)


def test_applying_staged_bytes_skips_the_hash(monkeypatch):
    store = StoreState(chunk_size=8)
    v1, v2, v3, v4 = (bytes(range(i, 40 + i)) for i in range(4))
    add = make_add(v1, chunk=8)
    lineage = lineage_of(add)
    edits = [make_edit(lineage, seq, p, chunk=8) for seq, p in ((2, v2), (3, v3), (4, v4))]
    for tx, p in zip((add, *edits[:2]), (v1, v2, v3)):
        store.stage(tx.data_hash, p, lineage)
    hashed = count_store_hashes(monkeypatch)
    store.apply_add(add, v1, (1, 0))
    store.apply_edit(edits[0], bytes(bytearray(v2)), (2, 0))  # equal, not identical
    # a payload-less revision, as after a rollback past its delete
    store.apply_erased(edits[1], (3, 0))
    store.fill_payload(lineage, 3, v3)
    assert hashed == []
    # bytes a rollback removed were hashed when they landed, and not again
    store.apply_edit(edits[2], v4, (4, 0))
    store.rollback_to((3, 2**62))
    store.apply_edit(edits[2], bytes(bytearray(v4)), (5, 0))
    assert hashed == [v4]
    assert [r.payload for r in store.history(lineage)] == [v1, v2, v3, v4]


def test_bytes_that_differ_from_the_staged_ones_are_hashed_and_refused(monkeypatch):
    store = StoreState(chunk_size=8)
    payload = bytes(range(40))
    tx = make_add(payload, chunk=8)
    store.stage(tx.data_hash, payload, lineage_of(tx))
    hashed = count_store_hashes(monkeypatch)
    bad = bytes([payload[0] ^ 1]) + payload[1:]
    with pytest.raises(IntegrityError):
        store.apply_add(tx, bad, (1, 0))
    assert hashed == [bad]
    assert lineage_of(tx) not in store.docs
    # staged bytes offered for another root are checked against that root
    other = make_add(bytes(range(3, 43)), chunk=8)
    with pytest.raises(IntegrityError):
        store.apply_add(other, payload, (1, 1))
    assert hashed == [bad, payload]


def test_unstaged_payload_is_hashed_once(monkeypatch):
    store = StoreState(chunk_size=8)
    never, dropped = bytes(range(40)), bytes(range(1, 41))
    first = make_add(dropped, chunk=8)
    store.stage(first.data_hash, dropped, lineage_of(first))
    store.apply_add(first, dropped, (1, 0))
    # a landed delete of the lineage they were staged under releases the bytes
    store.apply_delete(make_delete(lineage_of(first), 2), (2, 0))
    hashed = count_store_hashes(monkeypatch)
    for i, payload in enumerate((never, dropped)):
        tx = make_add(payload, topic=TOPIC_U, chunk=8)
        store.apply_add(tx, payload, (3, i))
        assert store.get_active(lineage_of(tx)) == payload
    assert hashed == [never, dropped]


def test_staged_payloads_stay_out_of_snapshots_and_dumps():
    store = StoreState(chunk_size=CHUNK)
    _, lineage = add_doc(store, b"applied")
    before = (store.snapshot_bytes(), store.dump_text(), store.payload_bytes())
    secret = b"staged but not yet applied"
    tx = make_add(secret)
    store.stage(tx.data_hash, secret, lineage_of(tx))
    assert (store.snapshot_bytes(), store.dump_text(), store.payload_bytes()) == before
    assert StoreState.from_snapshot(store.snapshot_bytes()).staged_payload(tx.data_hash) is None


@pytest.mark.parametrize("seed", range(12))
def test_held_bytes_follow_the_staged_else_retained_model(seed):
    # the model: bytes staged under a lineage stay until a delete of that
    # lineage lands; bytes a rollback removed stay until a revision holding
    # their root lands again or a delete of any document holding it lands.
    # Four payloads make documents share roots.
    rng = random.Random(seed)
    alphabet = {payload_root(p, CHUNK): p for p in (b"red", b"green", b"blue", b"grey")}
    store = StoreState(chunk_size=CHUNK)
    staged: dict = {}  # root -> the lineages its bytes were staged under
    retained: set = set()  # roots whose bytes a rollback removed
    height = 1
    for step in range(60):
        live = [lineage for lineage, doc in store.docs.items() if not doc.deleted]
        payload = rng.choice(list(alphabet.values()))
        roll, tx = rng.random(), None
        if roll < 0.3 or not live:
            tx = make_add(payload, topic=hash_bytes(b"%d" % step))
        elif roll < 0.6:
            lineage = rng.choice(live)
            tx = make_edit(lineage, store.docs[lineage].max_seq + 1, payload)
        elif roll < 0.75:
            lineage = rng.choice(live)
            for rev in store.docs[lineage].revisions:
                retained.discard(rev.data_hash)
                staged[rev.data_hash] = staged.get(rev.data_hash, set()) - {lineage}
            store.apply_delete(make_delete(lineage, store.docs[lineage].max_seq + 1), (height, 0))
            height += 1
        else:
            mark = (rng.randrange(height), 2**62)
            for doc in store.docs.values():
                retained.update(r.data_hash for r in doc.revisions if r.origin > mark and r.payload is not None)
            store.rollback_to(mark)
        if tx is not None:
            if rng.random() < 0.4:  # published here
                store.stage(tx.data_hash, payload, tx.doc_id)
                staged.setdefault(tx.data_hash, set()).add(tx.doc_id)
            if rng.random() < 0.8:  # else it never lands, as a record that lost a race
                (store.apply_add if tx.task is Task.ADD else store.apply_edit)(tx, payload, (height, 0))
                retained.discard(tx.data_hash)
                height += 1
        for root, p in alphabet.items():
            is_staged = bool(staged.get(root))
            assert store.staged_payload(root) == (p if is_staged else None), (seed, step)
            assert store.held_payload(root) == (p if is_staged or root in retained else None), (seed, step)


# -- fetched payloads -------------------------------------------------------


@pytest.mark.parametrize(
    "payload",
    [b"", b"short", bytes(range(8)), bytes(range(16)), bytes(range(20))],
    ids=["empty", "one-short-chunk", "one-full-chunk", "two-full-chunks", "three-chunks"],
)
def test_checked_transfer_applies_without_a_second_hash(monkeypatch, payload):
    # a Response's joined chunks are checked once, by the root check on apply
    store = StoreState(chunk_size=8)
    fetched = b"".join(chunk_payload(payload, 8))
    hashed = count_store_hashes(monkeypatch)
    tx = make_add(payload, chunk=8)
    store.apply_add(tx, fetched, (1, 0))
    assert hashed == [fetched]
    assert store.get_active(lineage_of(tx)) == payload


@pytest.mark.parametrize(
    "chunks",
    [
        (b"abcd", b"efghijkl"),
        (b"abcdefgh", b""),
        (b"abcdefgh", b"", b"ijkl"),
        (b"abcdefgh", b"ijklmnopq"),
        (b"abcdefghi",),
        (b"", b""),
    ],
    ids=["short-first-chunk", "empty-last-chunk", "empty-middle-chunk", "oversized-last-chunk", "oversized-only-chunk", "two-empty-chunks"],
)
def test_non_canonical_split_is_hashed_on_apply_and_refused(monkeypatch, chunks):
    # a hostile publisher anchors the tree root of its own split on chain;
    # every proof of that split checks against it, but the joined bytes
    # chunk another way, so the store's one hash refuses them
    store = StoreState(chunk_size=8)
    root = merkle_root(list(chunks))
    payload = b"".join(chunks)
    tx = DbFunction(Task.ADD, root, EDITOR_A, TOPIC_T, 1, ZERO_DIGEST, None)
    hashed = count_store_hashes(monkeypatch)
    with pytest.raises(IntegrityError):
        store.apply_add(tx, payload, (1, 0))
    assert hashed == [payload]
    assert lineage_of(tx) not in store.docs
