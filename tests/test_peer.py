"""Peer state machine tests: publishing, serving, fetching, failover, resync."""

import random

import pytest

from conftest import build_convergence_scenario, make_add, make_delete, make_edit
from test_crypto import BYTES_INTACT, tampered_responses
from test_wire import count_sections, response_bytes
from ethercouch.codec import lp, u64
from ethercouch.crypto import ONE_LEAF_PROOFS, ZERO_DIGEST, chunk_payload, hash_bytes, merkle_prove, merkle_root, payload_root, verify_chunk
from ethercouch.ledger import DbFunction, Task, TxRejected, lineage_of
from ethercouch.peer import FetchState, Mode, PendingFetch, Peer, PeerConfig, editor_hash_for, topic_hash
from ethercouch.registry import LocationRegistry
from ethercouch.simnet import Scenario, ScriptAction, run_scenario
from ethercouch.wire import BlockAnnounce, BlockRequest, Refusal, Request, Response, encode_message

NEWS = topic_hash("news")
OPS = topic_hash("ops")


class FakeEnv:
    """Minimal synchronous environment for driving one or two peers by hand."""

    poll_interval = 25
    fetch_timeout = 25

    def __init__(self):
        self.t = 0
        self.sent = []
        self.notes = []

    def now(self):
        return self.t

    def send(self, src, dst, msg):
        self.sent.append((src.name, dst, msg))

    def send_batch(self, src, dst, msgs):
        for m in msgs:
            self.sent.append((src.name, dst, m))

    def broadcast(self, src, msg, names=None):
        for dst in ("*",) if names is None else names:
            self.sent.append((src.name, dst, msg))

    def note(self, src, text):
        self.notes.append((src.name, text))

    def arm_mining(self, peer):
        pass

    def request_poll(self, peer):
        pass


def make_peer(name="alice", env=None, location=None, **cfg):
    env = env or FakeEnv()
    location = location or LocationRegistry()
    peer = Peer(PeerConfig(name=name, **cfg), env=env, location=location)
    return peer, env


def test_config_derives_its_editor_hash_once():
    cfg = PeerConfig(name="alice")
    assert cfg.editor_hash == editor_hash_for("alice")
    assert cfg.editor_hash is cfg.editor_hash
    assert cfg == PeerConfig(name="alice") and hash(cfg) == hash(PeerConfig(name="alice"))


# -- publishing ----------------------------------------------------------


def test_publish_add_builds_sequence_one_with_merkle_root():
    peer, _ = make_peer()
    payload = bytes(range(200)) * 30
    tx = peer.publish(Task.ADD, NEWS, payload)
    assert tx.sequence_id == 1
    assert tx.data_hash == payload_root(payload, peer.chunk_size)
    assert tx.inline_payload is None
    assert peer.chain.mempool == [tx]


def test_publish_edit_increments_sequence():
    peer, _ = make_peer()
    tx = peer.publish(Task.ADD, NEWS, b"v1")
    peer.on_mine_complete()  # mined and applied locally at depth 1
    lineage = lineage_of(tx)
    assert peer.store.get_active(lineage) == b"v1"
    edit = peer.publish(Task.EDIT, NEWS, b"v2", lineage)
    assert edit.sequence_id == 2
    assert edit.lineage == lineage


def test_publish_delete_carries_no_payload():
    peer, _ = make_peer()
    tx = peer.publish(Task.ADD, NEWS, b"v1")
    peer.on_mine_complete()
    delete = peer.publish(Task.DELETE, NEWS, None, lineage_of(tx))
    assert delete.task is Task.DELETE
    assert delete.inline_payload is None
    assert delete.sequence_id == 2


def test_publish_edit_unknown_lineage_rejected():
    peer, _ = make_peer()
    with pytest.raises(TxRejected):
        peer.publish(Task.EDIT, NEWS, b"x", topic_hash("ghost-lineage"))


def test_chain_only_mode_embeds_payload():
    peer, _ = make_peer(mode=Mode.CHAIN_ONLY)
    tx = peer.publish(Task.ADD, NEWS, b"inline me")
    assert tx.inline_payload == b"inline me"
    peer.on_mine_complete()
    assert peer.store.get_active(lineage_of(tx)) == b"inline me"


def test_an_empty_queue_is_mined_only_while_an_entry_awaits_depth_k():
    peer, _ = make_peer(confirmation_depth=2)
    assert not peer.wants_mining()
    peer.on_mine_complete()
    assert peer.chain.height == 0
    tx = peer.publish(Task.ADD, NEWS, b"queued")
    assert peer.wants_mining()
    peer.on_mine_complete()
    # the add is one block deep of the two it needs: an empty block buries it
    assert peer.pending[(tx.doc_id, 1)].state is FetchState.AWAITING_CONFIRM
    assert not peer.chain.mempool and peer.wants_mining()
    peer.on_mine_complete()
    assert peer.chain.height == 2 and peer.chain.tip_block.txs == ()
    assert not peer.pending and peer.store.get_active(tx.doc_id) == b"queued"
    assert not peer.wants_mining()
    peer.on_mine_complete()
    assert peer.chain.height == 2
    # an offline peer mines nothing, whatever it has queued
    peer.publish(Task.EDIT, NEWS, b"queued too", tx.doc_id)
    peer.go_offline()
    assert not peer.wants_mining()


# -- serving ---------------------------------------------------------------


def served_peer():
    peer, env = make_peer()
    payload = bytes(range(250)) * 40  # 10000 bytes, 3 chunks at 4096
    tx = peer.publish(Task.ADD, NEWS, payload)
    peer.on_mine_complete()
    return peer, env, tx, payload


def test_serve_open_filter_returns_verifiable_chunks():
    peer, _, tx, payload = served_peer()
    req = Request(lineage_of(tx), 1, ())
    resp = peer.serve_request(req, "bob")
    assert isinstance(resp, Response)
    assert b"".join(resp.chunks) == payload
    for chunk, proof in zip(resp.chunks, resp.proofs):
        assert verify_chunk(chunk, proof, tx.data_hash)


def test_serve_refuses_requester_outside_topic():
    peer, _, tx, _ = served_peer()
    req = Request(lineage_of(tx), 1, (OPS,))
    resp = peer.serve_request(req, "bob")
    assert isinstance(resp, Refusal)
    assert resp.reason == "filter-refused"


def test_serve_deleted_doc_not_held():
    peer, _, tx, _ = served_peer()
    peer.publish(Task.DELETE, NEWS, None, lineage_of(tx))
    peer.on_mine_complete()
    resp = peer.serve_request(Request(lineage_of(tx), 1, ()), "bob")
    assert isinstance(resp, Refusal)
    assert resp.reason == "not-held"


def test_serve_unknown_doc_not_held():
    peer, _, _, _ = served_peer()
    resp = peer.serve_request(Request(topic_hash("nothing"), 1, ()), "bob")
    assert isinstance(resp, Refusal) and resp.reason == "not-held"


def test_serve_from_staging_before_apply():
    # a publisher can hand out payloads as soon as the record is queued
    peer, _ = make_peer(confirmation_depth=3)
    payload = b"early bird payload"
    tx = peer.publish(Task.ADD, NEWS, payload)
    peer.on_mine_complete()  # depth 1 < 3: not applied yet
    assert lineage_of(tx) not in peer.store.docs
    resp = peer.serve_request(Request(lineage_of(tx), 1, ()), "bob")
    assert isinstance(resp, Response)
    assert b"".join(resp.chunks) == payload


# -- chain event filtering ---------------------------------------------------


def test_other_topic_is_ignored():
    env = FakeEnv()
    location = LocationRegistry()
    alice = Peer(PeerConfig(name="alice"), env=env, location=location)
    bob = Peer(PeerConfig(name="bob", topics=frozenset({OPS})), env=env, location=location)
    tx = alice.publish(Task.ADD, NEWS, b"not for bob")
    alice.on_mine_complete()
    announce = [m for (_, dst, m) in env.sent if dst == "*"][-1]
    bob.handle_message(announce, "alice")
    assert bob.chain.tip == alice.chain.tip
    assert not bob.store.docs
    assert not bob.pending
    del tx


def test_subscribed_topic_creates_pending_fetch_at_depth_one():
    env = FakeEnv()
    location = LocationRegistry()
    alice = Peer(PeerConfig(name="alice"), env=env, location=location)
    bob = Peer(PeerConfig(name="bob", topics=frozenset({NEWS})), env=env, location=location)
    tx = alice.publish(Task.ADD, NEWS, b"for bob")
    alice.on_mine_complete()
    announce = [m for (_, dst, m) in env.sent if dst == "*"][-1]
    env.sent.clear()
    bob.handle_message(announce, "alice")
    key = (lineage_of(tx), 1)
    assert key in bob.pending
    assert bob.pending[key].state is FetchState.FETCHING
    # fetch request went to the editor first
    requests = [(dst, m) for (_, dst, m) in env.sent if isinstance(m, Request)]
    assert requests and requests[0][0] == "alice"


# -- fetch failover -----------------------------------------------------------


def failover_setup():
    env = FakeEnv()
    location = LocationRegistry()
    alice = Peer(PeerConfig(name="alice"), env=env, location=location)
    bob = Peer(PeerConfig(name="bob"), env=env, location=location)
    carol = Peer(PeerConfig(name="carol"), env=env, location=location)
    payload = bytes(range(100)) * 50
    tx = alice.publish(Task.ADD, NEWS, payload)
    alice.on_mine_complete()
    announce = [m for (_, dst, m) in env.sent if dst == "*"][-1]
    carol.handle_message(announce, "alice")  # carol fetches and applies later
    env.sent.clear()
    bob.handle_message(announce, "alice")
    return env, alice, bob, carol, tx, payload


def test_corrupt_source_triggers_failover():
    env, alice, bob, carol, tx, payload = failover_setup()
    key = (lineage_of(tx), 1)
    pf = bob.pending[key]
    assert pf.candidates[pf.attempts] == "alice"
    # alice answers with a flipped byte in the first chunk
    honest = alice.serve_request(Request(*key, ()), "bob")
    bad_chunk = bytearray(honest.chunks[0])
    bad_chunk[0] ^= 1
    corrupted = Response(key[0], 1, (bytes(bad_chunk),) + honest.chunks[1:], honest.proofs)
    bob.handle_message(corrupted, "alice")
    # moved on to the next candidate instead of storing bad bytes
    assert bob.pending[key].state is FetchState.FETCHING
    assert pf.candidates[pf.attempts] == "carol"
    assert key[0] not in bob.store.docs
    bob.handle_message(honest, "carol")
    assert key not in bob.pending
    assert bob.store.revision(*key).payload == payload
    assert bob.store.get_active(key[0]) == payload


def test_fetched_payload_costs_one_tree_inside_the_stores_root_check(monkeypatch):
    import ethercouch.crypto as crypto
    import ethercouch.docstore as docstore

    env = FakeEnv()
    location = LocationRegistry()
    alice = Peer(PeerConfig(name="alice"), env=env, location=location)
    bob = Peer(PeerConfig(name="bob"), env=env, location=location)
    payload = bytes(range(250)) * 40  # 3 chunks
    tx = alice.publish(Task.ADD, NEWS, payload)
    alice.on_mine_complete()
    bob.handle_message([m for (_, dst, m) in env.sent if dst == "*"][-1], "alice")
    key = (lineage_of(tx), 1)
    assert bob.pending[key].state is FetchState.FETCHING
    honest = alice.serve_request(Request(*key, ()), "bob")
    assert len(honest.chunks) == 3
    trees, store_hashes = [], []
    real_tree, real_root = crypto._tree, docstore.payload_root
    monkeypatch.setattr(crypto, "_tree", lambda chunks: trees.append(len(chunks)) or real_tree(chunks))
    monkeypatch.setattr(docstore, "payload_root", lambda p, size: store_hashes.append(p) or real_root(p, size))
    bob.handle_message(honest, "alice")
    assert key not in bob.pending
    assert bob.store.revision(*key).payload == payload
    assert bob.store.get_active(key[0]) == payload
    # the one tree is the store's payload_root of the joined chunks
    assert trees == [3] and store_hashes == [payload]


def count_trees(monkeypatch):
    """Record the leaf count of every merkle tree built from here on."""
    import ethercouch.crypto as crypto

    trees, real_tree = [], crypto._tree
    monkeypatch.setattr(crypto, "_tree", lambda chunks: trees.append(len(chunks)) or real_tree(chunks))
    return trees


def test_publisher_builds_one_tree_for_a_push_and_two_serves(monkeypatch):
    env = FakeEnv()
    location = LocationRegistry()
    alice = Peer(PeerConfig(name="alice"), env=env, location=location)
    bob = Peer(PeerConfig(name="bob"), env=env, location=location)
    payload = bytes(range(250)) * 40  # 3 chunks
    # the tree that gives the root at publish also proves the push and the serves
    trees = count_trees(monkeypatch)
    tx = alice.publish(Task.ADD, NEWS, payload)
    alice.on_mine_complete()  # nobody else is up to date yet: no push
    key = (lineage_of(tx), 1)
    location.mark_up_to_date(bob.editor_hash, alice.chain.tip)
    env.sent.clear()
    alice._push_payload(tx, alice._push_recipients())
    served = [alice.serve_request(Request(*key, ()), name) for name in ("bob", "carol")]
    pushed = [m for (_, dst, m) in env.sent if dst == "bob"]
    assert len(pushed) == 1 and trees == [3]
    chunks = chunk_payload(payload, alice.chunk_size)
    for resp in pushed + served:
        assert resp.chunks == tuple(chunks)
        assert resp.proofs == merkle_prove(chunks, range(3))


def test_publisher_encodes_its_proof_section_once_for_a_push_and_two_serves(monkeypatch):
    env = FakeEnv()
    location = LocationRegistry()
    alice, bob, carol, dave = (Peer(PeerConfig(name=n), env=env, location=location) for n in ("alice", "bob", "carol", "dave"))
    payload = bytes(range(250)) * 40  # 3 chunks
    tx = alice.publish(Task.ADD, NEWS, payload)
    alice.on_mine_complete()
    location.mark_up_to_date(bob.editor_hash, alice.chain.tip)
    env.sent.clear()
    sections = count_sections(monkeypatch)
    alice._push_payload(tx, alice._push_recipients())
    served = [alice.serve_request(Request(tx.doc_id, 1, ()), peer.name) for peer in (carol, dave)]
    pushed = [m for (_, dst, m) in env.sent if dst == "bob"]
    sent = [encode_message(resp) for resp in pushed + served]
    # the set kept at publish packs its proofs at the push, and only then
    assert len(sections) == 1 and sections[0] is alice.store._proof_sets[tx.data_hash]
    chunks = chunk_payload(payload, alice.chunk_size)
    layout = response_bytes(tx.doc_id, lp(u64(1)), chunks=chunks, proofs=merkle_prove(chunks, range(3)))
    assert sent == [layout] * 3


@pytest.mark.parametrize("mode", [Mode.ETHERCOUCH, Mode.CHAIN_ONLY])
@pytest.mark.parametrize("cs", [7, 4096])
def test_publish_builds_the_proof_set_only_for_a_payload_of_several_chunks(monkeypatch, mode, cs):
    import ethercouch.peer as peer_module

    proved, real_prove = [], peer_module.merkle_prove
    monkeypatch.setattr(peer_module, "merkle_prove", lambda chunks, index: proved.append(len(chunks)) or real_prove(chunks, index))
    for size in (0, 1, cs - 1, cs, cs + 1, 2 * cs + 1, 64 * cs):
        peer = Peer(PeerConfig(name="alice", mode=mode), env=FakeEnv(), location=LocationRegistry(), chunk_size=cs)
        payload = bytes(i % 251 for i in range(size))
        proved.clear()
        tx = peer.publish(Task.ADD, NEWS, payload)
        assert tx.data_hash == payload_root(payload, cs), size
        chunks = chunk_payload(payload, cs)
        n = len(chunks)
        if mode is Mode.ETHERCOUCH and n > 1:
            # the tree that gave the root proves every chunk, before any push
            assert proved == [n], size
            assert peer.store._proof_sets == {tx.data_hash: merkle_prove(chunks, range(n))}, size
        else:
            assert proved == [] and peer.store._proof_sets == {}, size


def fetched_by_bob():
    env = FakeEnv()
    location = LocationRegistry()
    alice = Peer(PeerConfig(name="alice"), env=env, location=location)
    bob = Peer(PeerConfig(name="bob"), env=env, location=location)
    payload = bytes(range(250)) * 40  # 3 chunks
    tx = alice.publish(Task.ADD, NEWS, payload)
    alice.on_mine_complete()
    bob.handle_message([m for (_, dst, m) in env.sent if dst == "*"][-1], "alice")
    key = (lineage_of(tx), 1)
    bob.handle_message(alice.serve_request(Request(*key, ()), "bob"), "alice")
    assert key not in bob.pending
    assert bob.store.revision(*key).payload == payload
    return env, alice, bob, tx, payload


def test_a_push_for_an_applied_revision_is_not_cached():
    # the revision landed and left pending; a late copy of its bytes is
    # stale and must not take a push-cache slot
    _, alice, bob, tx, _ = fetched_by_bob()
    late = alice.serve_request(Request(lineage_of(tx), 1, ()), "bob")
    assert isinstance(late, Response)
    bob.handle_message(late, "alice")
    assert not bob.push_cache


def test_receiver_builds_one_tree_to_serve_a_fetched_payload_twice(monkeypatch):
    _, _, bob, tx, payload = fetched_by_bob()
    trees = count_trees(monkeypatch)
    served = [bob.serve_request(Request(lineage_of(tx), 1, ()), name) for name in ("carol", "dave")]
    assert trees == [3]
    chunks = chunk_payload(payload, bob.chunk_size)
    assert all(resp.proofs == merkle_prove(chunks, range(3)) for resp in served)


def test_proof_sets_leave_with_their_bytes():
    env, alice, bob, tx, _ = fetched_by_bob()
    lineage, root = lineage_of(tx), tx.data_hash
    for peer in (alice, bob):
        assert isinstance(peer.serve_request(Request(lineage, 1, ()), "carol"), Response)
        assert root in peer.store._proof_sets
    # a confirmed delete erases the bytes at the publisher and the receiver
    alice.publish(Task.DELETE, NEWS, None, lineage)
    alice.on_mine_complete()
    bob.handle_message([m for (_, dst, m) in env.sent if dst == "*"][-1], "alice")
    for peer in (alice, bob):
        assert root not in peer.store._proof_sets
        assert peer.serve_request(Request(lineage, 1, ()), "carol") == Refusal(lineage, 1, "not-held")
    # serving staged bytes of several chunks before they apply serves the
    # kept set; staged bytes of one chunk keep none
    carol, _ = make_peer("carol", confirmation_depth=3)
    staged = carol.publish(Task.ADD, NEWS, b"served from staging " * 400)
    one_chunk = carol.publish(Task.ADD, NEWS, b"served from staging")
    carol.on_mine_complete()  # depth 1 of 3: in the registry, not in the store
    for tx in (staged, one_chunk):
        served = carol.serve_request(Request(lineage_of(tx), 1, ()), "bob")
        assert isinstance(served, Response) and lineage_of(tx) not in carol.store.docs
    assert served.proofs is ONE_LEAF_PROOFS
    assert list(carol.store._proof_sets) == [staged.data_hash]


CS = 4096


@pytest.mark.parametrize("size", [0, 1, CS - 1, CS, CS + 1])
def test_a_one_chunk_payload_is_pushed_and_served_with_no_tree_and_no_kept_set(monkeypatch, size):
    trees = count_trees(monkeypatch)
    env = FakeEnv()
    location = LocationRegistry()
    alice, bob = (Peer(PeerConfig(name=n), env=env, location=location, chunk_size=CS) for n in ("alice", "bob"))
    payload = bytes(i % 251 for i in range(size))
    tx = alice.publish(Task.ADD, NEWS, payload)
    alice.on_mine_complete()
    bob.handle_message([m for (_, dst, m) in env.sent if dst == "*"][-1], "alice")
    key = (lineage_of(tx), 1)
    bob.handle_message(alice.serve_request(Request(*key, ()), "bob"), "alice")
    assert bob.store.revision(*key).payload == payload
    env.sent.clear()
    alice._push_payload(tx, ["carol"])
    served = [holder.serve_request(Request(*key, ()), name) for holder in (alice, bob) for name in ("carol", "dave")]
    sent = [m for (_, dst, m) in env.sent if dst == "carol"] + served
    assert len(sent) == 5
    built = list(trees)
    chunks = chunk_payload(payload, CS)
    proofs = merkle_prove(chunks, range(len(chunks)))
    layout = response_bytes(tx.doc_id, lp(u64(1)), chunks=chunks, proofs=proofs)
    for resp in sent:
        assert resp == Response(*key, tuple(chunks), proofs)
        assert encode_message(resp) == layout
    if size <= CS:
        assert built == [] and alice.store._proof_sets == bob.store._proof_sets == {}
        assert all(resp.proofs is ONE_LEAF_PROOFS for resp in sent)
    else:
        # the publisher's tree gives the root and its proofs, the receiver
        # hashes the bytes on apply and builds its proofs at its first serve
        assert built == [2, 2, 2]
        assert list(alice.store._proof_sets) == list(bob.store._proof_sets) == [tx.data_hash]


def test_non_canonical_split_under_its_own_root_is_never_stored():
    env = FakeEnv()
    location = LocationRegistry()
    mallory = Peer(PeerConfig(name="mallory"), env=env, location=location)
    bob = Peer(PeerConfig(name="bob"), env=env, location=location)
    # every chunk but the last is short of the chunk size: not how a store
    # chunks the joined bytes, so their payload root is another digest
    chunks = (b"x" * 100, b"y" * 100, b"z" * 100)
    proofs, root = merkle_prove(list(chunks), range(3)), merkle_root(list(chunks))
    assert payload_root(b"".join(chunks), bob.chunk_size) != root
    tx = DbFunction(Task.ADD, root, mallory.editor_hash, NEWS, 1, ZERO_DIGEST, None)
    mallory.chain.submit_tx(tx)
    mallory.on_mine_complete()
    announce = [m for (_, dst, m) in env.sent if dst == "*"][-1]
    bob.handle_message(announce, "mallory")
    key = (lineage_of(tx), 1)
    pf = bob.pending[key]
    assert pf.candidates[pf.attempts] == "mallory"
    bob.handle_message(Response(key[0], 1, chunks, proofs), "mallory")
    assert key[0] not in bob.store.docs
    assert ("bob", f"bad chunks from mallory lineage={key[0].hex()[:12]}") in env.notes
    # the fetch moved on at once, and mallory was its only source
    assert pf.attempts == 1 and pf.state is FetchState.UNAVAILABLE


@pytest.mark.parametrize("n", [1, 3, 11])
def test_a_response_is_judged_by_its_bytes_alone(n):
    # the chain anchors the bytes, not the proofs: honest chunks apply
    # whatever their proofs say, and a changed, dropped or extra chunk is
    # refused as bad chunks and the fetch fails over to the next source
    for case, chunks, proofs, root in tampered_responses(n, random.Random(n)):
        env = FakeEnv()
        location = LocationRegistry()
        alice, bob, _ = (Peer(PeerConfig(name=name), env=env, location=location, chunk_size=64) for name in ("alice", "bob", "carol"))
        tx = DbFunction(Task.ADD, root, alice.editor_hash, NEWS, 1, ZERO_DIGEST, None)
        alice.chain.submit_tx(tx)
        alice.on_mine_complete()
        bob.handle_message([m for (_, dst, m) in env.sent if dst == "*"][-1], "alice")
        key = (lineage_of(tx), 1)
        pf = bob.pending[key]
        assert pf.candidates[pf.attempts] == "alice", case
        bob.handle_message(Response(key[0], 1, chunks, proofs), "alice")
        bad = [text for (name, text) in env.notes if name == "bob" and text.startswith("bad chunks from alice")]
        if case in BYTES_INTACT:
            assert key not in bob.pending and not bad, case
            assert bob.store.get_active(key[0]) == b"".join(chunks), case
        else:
            assert key[0] not in bob.store.docs and len(bad) == 1, case
            assert pf.state is FetchState.FETCHING and pf.candidates[pf.attempts] == "carol", case


def test_refusal_advances_candidate():
    env, alice, bob, carol, tx, payload = failover_setup()
    key = (lineage_of(tx), 1)
    bob.handle_message(Refusal(key[0], 1, "not-held"), "alice")
    pf = bob.pending[key]
    assert pf.candidates[pf.attempts] == "carol"


def test_all_candidates_exhausted_goes_unavailable():
    env, alice, bob, carol, tx, payload = failover_setup()
    key = (lineage_of(tx), 1)
    bob.handle_message(Refusal(key[0], 1, "not-held"), "alice")
    bob.handle_message(Refusal(key[0], 1, "not-held"), "carol")
    assert bob.pending[key].state is FetchState.UNAVAILABLE
    # a later poll retries the whole candidate cycle
    env.t = bob.pending[key].due
    env.sent.clear()
    bob.on_poll()
    assert bob.pending[key].state is FetchState.FETCHING
    assert any(isinstance(m, Request) for (_, _, m) in env.sent)


def test_an_unavailable_fetch_retries_from_bytes_the_peer_has_come_to_hold():
    env, alice, bob, carol, tx, payload = failover_setup()
    key = (lineage_of(tx), 1)
    bob.handle_message(Refusal(key[0], 1, "not-held"), "alice")
    bob.handle_message(Refusal(key[0], 1, "not-held"), "carol")
    pf = bob.pending[key]
    assert pf.state is FetchState.UNAVAILABLE
    # bob publishes the same bytes under a document of its own
    bob.publish(Task.ADD, OPS, payload)
    assert bob.store.held_payload(tx.data_hash) == payload
    env.t = pf.due
    env.sent.clear()
    bob.on_poll()
    assert key not in bob.pending
    assert bob.store.get_active(key[0]) == payload
    assert not [m for (_, _, m) in env.sent if isinstance(m, Request)]


def test_an_exhausted_fetch_retries_one_poll_interval_later_every_time():
    env = FakeEnv()
    alice = Peer(PeerConfig(name="alice"), env=env, location=LocationRegistry())
    directory = LocationRegistry()  # bob's directory knows nobody else yet
    bob = Peer(PeerConfig(name="bob"), env=env, location=directory)
    tx = alice.publish(Task.ADD, NEWS, b"nobody bob knows holds this")
    alice.on_mine_complete()
    env.t = 10
    bob.handle_message([m for (_, dst, m) in env.sent if dst == "*"][-1], "alice")
    key = (lineage_of(tx), 1)
    assert bob.pending[key].state is FetchState.UNAVAILABLE

    def requests():
        return [(dst, m) for (src, dst, m) in env.sent if src == "bob" and isinstance(m, Request)]

    def poll_at(t):
        env.t = t
        env.sent.clear()
        bob.on_poll()

    # each restart finds no source again, and each retry waits exactly one
    # poll interval, not a growing gap
    for _ in range(2):
        start = env.t
        poll_at(start + env.poll_interval - 1)
        assert bob.pending[key].state is FetchState.UNAVAILABLE and not requests()
        poll_at(start + env.poll_interval)
        assert bob.pending[key].state is FetchState.UNAVAILABLE and not requests()
    # once a source is known, Requests resume at the next retry tick
    directory.register_peer(alice.editor_hash, "alice")
    start = env.t
    poll_at(start + env.poll_interval - 1)
    assert not requests()
    poll_at(start + env.poll_interval)
    assert bob.pending[key].state is FetchState.FETCHING
    assert requests() == [("alice", Request(*key, ()))]


def test_an_edit_buffered_behind_its_add_leaves_pending_and_lands_after_it():
    env = FakeEnv()
    location = LocationRegistry()
    alice = Peer(PeerConfig(name="alice"), env=env, location=location)
    bob = Peer(PeerConfig(name="bob"), env=env, location=location)
    add = alice.publish(Task.ADD, NEWS, b"v1")
    alice.on_mine_complete()
    lineage = lineage_of(add)
    alice.publish(Task.EDIT, NEWS, b"v2", lineage)
    alice.on_mine_complete()
    for announce in [m for (_, dst, m) in env.sent if isinstance(m, BlockAnnounce)]:
        bob.handle_message(announce, "alice")
    assert bob.pending[(lineage, 1)].state is FetchState.FETCHING
    assert bob.pending[(lineage, 2)].state is FetchState.FETCHING
    # the edit's bytes arrive first: the store buffers them behind the add
    edit_resp = alice.serve_request(Request(lineage, 2, ()), "bob")
    bob.handle_message(edit_resp, "alice")
    assert (lineage, 2) not in bob.pending
    assert lineage not in bob.store.docs
    # a repeated Response is neither applied nor cached
    bob.handle_message(edit_resp, "alice")
    assert lineage not in bob.store.docs
    assert not bob.push_cache
    env.notes.clear()
    bob.handle_message(alice.serve_request(Request(lineage, 1, ()), "bob"), "alice")
    assert not bob.pending
    assert [r.seq for r in bob.store.history(lineage)] == [1, 2]
    assert bob.store.get_active(lineage) == b"v2"
    applied = [text for (name, text) in env.notes if name == "bob" and text.startswith("applied")]
    short = lineage.hex()[:12]
    assert applied == [f"applied lineage={short} seq=1", f"applied lineage={short} seq=2"]
    bob.handle_message(edit_resp, "alice")
    assert [r.seq for r in bob.store.history(lineage)] == [1, 2]
    assert not bob.push_cache


def test_filtered_peer_ignores_unsolicited_foreign_push():
    env = FakeEnv()
    location = LocationRegistry()
    alice = Peer(PeerConfig(name="alice"), env=env, location=location)
    bob = Peer(PeerConfig(name="bob", topics=frozenset({OPS})), env=env, location=location)
    tx = alice.publish(Task.ADD, NEWS, b"news payload bob never asked for")
    alice.on_mine_complete()
    push = alice.serve_request(Request(lineage_of(tx), 1, ()), "x")
    bob.handle_message(push, "alice")
    assert not bob.push_cache
    assert not bob.store.docs


def test_the_push_cache_keeps_the_last_256_unsolicited_pushes_in_arrival_order():
    bob, _ = make_peer("bob")
    keys = [(hash_bytes(b"unknown-%d" % i), 1) for i in range(257)]
    for key in keys:
        bob.handle_message(Response(*key, (b"bytes for " + key[0],), ()), "alice")
    # the 257th evicts the oldest
    assert list(bob.push_cache) == keys[1:]
    assert bob.push_cache[keys[-1]] == b"bytes for " + keys[-1][0]


def test_unsolicited_push_applies_once_confirmed():
    env = FakeEnv()
    location = LocationRegistry()
    alice = Peer(PeerConfig(name="alice"), env=env, location=location)
    bob = Peer(PeerConfig(name="bob"), env=env, location=location)
    payload = b"pushed before the block arrives"
    tx = alice.publish(Task.ADD, NEWS, payload)
    alice.on_mine_complete()
    push = alice.serve_request(Request(lineage_of(tx), 1, ()), "x")
    bob.handle_message(push, "alice")  # bob has not seen the block yet
    assert bob.push_cache
    announce = [m for (_, dst, m) in env.sent if dst == "*"][-1]
    bob.handle_message(announce, "alice")
    assert bob.store.get_active(lineage_of(tx)) == payload
    assert not env.sent or not any(
        isinstance(m, Request) and dst == "alice" for (_, dst, m) in env.sent if _ == "bob"
    )


def test_confirmation_depth_two_delays_application():
    peer, _ = make_peer(confirmation_depth=2)
    tx = peer.publish(Task.ADD, NEWS, b"needs depth two")
    peer.on_mine_complete()  # depth 1: recorded but not applied
    lineage = lineage_of(tx)
    assert lineage not in peer.store.docs
    assert peer.pending[(lineage, 1)].state is FetchState.AWAITING_CONFIRM
    peer.publish(Task.ADD, NEWS, b"filler block content")
    peer.on_mine_complete()  # depth 2 reached for the first add
    assert peer.store.get_active(lineage) == b"needs depth two"


def test_corrupt_unsolicited_push_is_refused_by_the_store_then_fetched():
    env = FakeEnv()
    location = LocationRegistry()
    alice = Peer(PeerConfig(name="alice"), env=env, location=location)
    bob = Peer(PeerConfig(name="bob"), env=env, location=location)
    payload = bytes(range(250)) * 40  # 3 chunks
    tx = alice.publish(Task.ADD, NEWS, payload)
    alice.on_mine_complete()
    key = (lineage_of(tx), 1)
    honest = alice.serve_request(Request(*key, ()), "bob")
    bad_chunk = bytearray(honest.chunks[1])
    bad_chunk[7] ^= 1
    corrupt = Response(key[0], 1, (honest.chunks[0], bytes(bad_chunk), honest.chunks[2]), honest.proofs)
    bob.handle_message(corrupt, "alice")  # ahead of the block: cached unchecked
    assert key in bob.push_cache
    announce = [m for (_, dst, m) in env.sent if dst == "*"][-1]
    env.sent.clear()
    bob.handle_message(announce, "alice")
    # the store refused the cached bytes; the peer asks the editor instead
    assert key[0] not in bob.store.docs
    assert not bob.push_cache
    assert bob.pending[key].state is FetchState.FETCHING
    assert [(src, dst, m) for (src, dst, m) in env.sent if isinstance(m, Request)] == [
        ("bob", "alice", Request(*key, ()))
    ]
    bob.handle_message(honest, "alice")
    assert key not in bob.pending
    assert bob.store.revision(*key).payload == payload
    assert bob.store.get_active(key[0]) == payload


def test_confirmed_delete_unstages_every_revision_of_the_lineage():
    peer, _ = make_peer()
    tx = peer.publish(Task.ADD, NEWS, b"v1")
    peer.on_mine_complete()
    lineage = lineage_of(tx)
    edit = peer.publish(Task.EDIT, NEWS, b"v2", lineage)
    peer.on_mine_complete()
    roots = [tx.data_hash, edit.data_hash]
    assert [peer.store.staged_payload(r) for r in roots] == [b"v1", b"v2"]
    peer.publish(Task.DELETE, NEWS, None, lineage)
    peer.on_mine_complete()
    assert [peer.store.staged_payload(r) for r in roots] == [None, None]
    for seq in (1, 2):
        assert peer.serve_request(Request(lineage, seq, ()), "bob") == Refusal(lineage, seq, "not-held")


def test_a_confirmed_delete_purges_the_cached_push_of_an_edit_that_lost_its_race():
    env = FakeEnv()
    location = LocationRegistry()
    alice, bob, carol = (Peer(PeerConfig(name=n), env=env, location=location) for n in ("alice", "bob", "carol"))
    add = alice.publish(Task.ADD, NEWS, b"v1")
    alice.on_mine_complete()
    lineage = lineage_of(add)
    block = [m for (_, dst, m) in env.sent if dst == "*"][-1]
    for peer in (bob, carol):
        peer.handle_message(block, "alice")
        peer.handle_message(alice.serve_request(Request(lineage, 1, ()), peer.name), "alice")
        assert peer.store.get_active(lineage) == b"v1"
    # alice's edit and carol's delete both take seq 2, and the delete is mined
    edit = alice.publish(Task.EDIT, NEWS, b"v2, never confirmed", lineage)
    carol.publish(Task.DELETE, NEWS, None, lineage)
    carol.on_mine_complete()
    delete_block = [m for (src, dst, m) in env.sent if src == "carol" and dst == "*"][-1]
    # the edit's push, and one for another document, reach bob ahead of any block
    env.sent.clear()
    alice._push_payload(edit, ["bob"])
    bob.handle_message(env.sent[-1][2], "alice")
    other = (hash_bytes(b"another document"), 1)
    bob.handle_message(Response(*other, (b"bytes of another document",), ()), "dave")
    assert list(bob.push_cache) == [(lineage, 2), other]
    bob.handle_message(delete_block, "carol")
    assert bob.store.docs[lineage].deleted
    assert bob.store.revision(lineage, 1).payload is None
    # the delete erased the lineage's pushed bytes too, and only those
    assert list(bob.push_cache) == [other]
    # and the edit can never land: its seq is taken
    alice.handle_message(delete_block, "carol")
    assert not alice.chain.in_mempool(edit)


def race_two_edits():
    """alice and bob each edit alice's document as seq 2, and bob's edit is
    mined; alice takes bob's block, so her edit can never land."""
    env = FakeEnv()
    location = LocationRegistry()
    alice, bob = (Peer(PeerConfig(name=n), env=env, location=location) for n in ("alice", "bob"))
    add = alice.publish(Task.ADD, NEWS, b"v1")
    alice.on_mine_complete()
    lineage = lineage_of(add)
    bob.handle_message([m for (_, dst, m) in env.sent if dst == "*"][-1], "alice")
    bob.handle_message(alice.serve_request(Request(lineage, 1, ()), "bob"), "alice")
    edit = alice.publish(Task.EDIT, NEWS, b"alice's v2", lineage)
    bob.publish(Task.EDIT, NEWS, b"bob's v2", lineage)
    bob.on_mine_complete()
    alice.handle_message([m for (src, dst, m) in env.sent if src == "bob" and dst == "*"][-1], "bob")
    assert not alice.chain.in_mempool(edit) and edit.digest in alice.own_unconfirmed
    return env, alice, bob, edit


def test_an_edit_that_lost_its_sequence_race_releases_its_bytes_at_the_poll_that_drops_it():
    env, alice, _, edit = race_two_edits()
    add_root = alice.store.revision(edit.doc_id, 1).data_hash
    assert alice.store.staged_payload(edit.data_hash) == b"alice's v2"
    alice.on_poll()
    assert ("alice", "dropping dead tx edit seq=2") in env.notes
    assert edit.digest not in alice.own_unconfirmed
    assert edit.data_hash not in alice.store._held
    # the add's bytes, claimed by the same lineage under another root, stay
    assert alice.store.staged_payload(add_root) == b"v1"


def test_a_dead_edit_keeps_its_bytes_while_another_open_edit_claims_them():
    _, alice, bob, edit = race_two_edits()
    # alice takes bob's edit in, then publishes her bytes again as seq 3
    key = (edit.doc_id, 2)
    assert alice.pending[key].state is FetchState.FETCHING
    alice.handle_message(bob.serve_request(Request(*key, ()), "alice"), "bob")
    again = alice.publish(Task.EDIT, NEWS, b"alice's v2", edit.doc_id)
    assert again.sequence_id == 3 and again.data_hash == edit.data_hash
    alice.on_poll()
    assert edit.digest not in alice.own_unconfirmed
    assert alice.store.staged_payload(edit.data_hash) == b"alice's v2"


# convergence seeds whose peers kept bytes for records that never landed:
# edits dropped as dead txs (42, 44), own txs a reorg took off the chain
# after they settled (3, 118), and ones requeued by that reorg whose
# sequence was taken later (87, 135)
@pytest.mark.parametrize("seed", [3, 42, 44, 87, 118, 135])
def test_no_peer_keeps_bytes_for_a_record_that_never_landed(seed):
    result = run_scenario(build_convergence_scenario(seed), until=200_000)
    for peer in result.peers.values():
        roots = {rev.data_hash for doc in peer.store.docs.values() for rev in doc.revisions}
        claimed = [root for root, entry in peer.store._held.items() if len(entry) > 1]
        assert set(claimed) <= roots, peer.name
        assert not peer.own_unconfirmed and not peer.own_reorged


def open_fetch_at_bob(payloads):
    """alice publishes one document's revisions, each in a block of its
    own; bob takes in all but the last, whose fetch is open at alice."""
    env = FakeEnv()
    location = LocationRegistry()
    alice, bob = (Peer(PeerConfig(name=n), env=env, location=location) for n in ("alice", "bob"))
    txs = []
    for payload in payloads:
        lineage = lineage_of(txs[0]) if txs else None
        txs.append(alice.publish(Task.EDIT if txs else Task.ADD, NEWS, payload, lineage))
        alice.on_mine_complete()
        bob.handle_message([m for (_, dst, m) in env.sent if dst == "*"][-1], "alice")
        key = (txs[-1].doc_id, txs[-1].sequence_id)
        if len(txs) < len(payloads):
            bob.handle_message(alice.serve_request(Request(*key, ()), "bob"), "alice")
    assert bob.pending[key].state is FetchState.FETCHING
    return env, alice, bob, txs


@pytest.mark.parametrize("refusal", ["DuplicateDocument", "StaleRevision", "TombstoneError"])
def test_a_fetched_payload_for_a_revision_the_store_settled_closes_its_fetch(refusal):
    payloads = [b"v1"] if refusal == "DuplicateDocument" else [b"v1", b"v2"]
    env, alice, bob, txs = open_fetch_at_bob(payloads)
    tx = txs[-1]
    key = (tx.doc_id, tx.sequence_id)
    coord = bob.pending[key].coord
    # the store settles the revision through its own API before the reply lands
    if refusal == "DuplicateDocument":
        bob.store.apply_add(tx, b"v1", coord)
    elif refusal == "StaleRevision":
        bob.store.apply_edit(tx, b"v2", coord)
    else:
        bob.store.apply_delete(make_delete(tx.doc_id, 2), coord)
    env.sent.clear()
    bob.handle_message(alice.serve_request(Request(*key, ()), "bob"), "alice")
    assert key not in bob.pending
    notes = [text for (name, text) in env.notes if name == "bob"]
    assert notes[-1] == f"apply skipped ({refusal}) lineage={tx.doc_id[:6].hex()}"
    assert not any(text.startswith("bad chunks") for text in notes)
    assert env.sent == []  # the fetch is over, not moved on


@pytest.mark.parametrize("settled", ["stale", "tombstone"])
def test_a_confirmed_delete_of_a_revision_the_store_settled_closes_without_a_note(settled):
    env, alice, bob, (add,) = open_fetch_at_bob([b"v1"])
    lineage = add.doc_id
    bob.handle_message(alice.serve_request(Request(lineage, 1, ()), "bob"), "alice")
    delete = alice.publish(Task.DELETE, NEWS, None, lineage)
    alice.on_mine_complete()
    # the store takes seq 2 through its own API before the delete's block lands
    if settled == "stale":
        bob.store.apply_edit(make_edit(lineage, 2, b"v2 from elsewhere"), b"v2 from elsewhere", (2, 0))
    else:
        bob.store.apply_delete(delete, (2, 0))
    noted = len(env.notes)
    bob.handle_message([m for (_, dst, m) in env.sent if dst == "*"][-1], "alice")
    assert not bob.pending
    assert env.notes[noted:] == []
    assert bob.store.docs[lineage].deleted is (settled == "tombstone")
    assert [rev.seq for rev in bob.store.history(lineage)] == [1, 2]


def test_a_confirmed_delete_ahead_of_its_document_waits_in_the_store():
    bob, env = make_peer("bob")
    add = make_add(b"v1")
    lineage = lineage_of(add)
    # the delete's predecessors are not on bob's chain, so none is erased first
    pf = PendingFetch(tx=make_delete(lineage, 2), coord=(5, 0))
    bob.pending[(lineage, 2)] = pf
    bob._dispatch_confirmed(pf)
    assert not bob.pending and env.notes == []
    assert lineage not in bob.store.docs
    # the add lands through the store's API, and the buffered delete after it
    result = bob.store.apply_add(add, b"v1", (4, 0))
    assert result.applied == ((lineage, 1), (lineage, 2))
    assert bob.store.docs[lineage].deleted


def test_confirmed_delete_keeps_bytes_another_live_document_was_published_with():
    peer, _ = make_peer()
    payload = b"the same bytes under two topics"
    first = peer.publish(Task.ADD, NEWS, payload)
    peer.on_mine_complete()
    peer.publish(Task.DELETE, NEWS, None, lineage_of(first))
    second = peer.publish(Task.ADD, OPS, payload)
    peer.on_mine_complete()  # the delete confirms first, then the second add, in one block
    lineage = lineage_of(second)
    assert (lineage, 1) not in peer.pending
    assert peer.store.revision(lineage, 1).payload == payload
    assert peer.store.get_active(lineage) == payload
    assert peer.store.get_active(lineage_of(first)) is None
    assert peer.store.staged_payload(second.data_hash) == payload
    # the bytes go once no live document of this peer was published with them
    peer.publish(Task.DELETE, OPS, None, lineage)
    peer.on_mine_complete()
    assert peer.store.staged_payload(second.data_hash) is None


def test_rejected_duplicate_add_does_not_restage_deleted_bytes():
    peer, _ = make_peer()
    tx = peer.publish(Task.ADD, NEWS, b"gone for good")
    peer.on_mine_complete()
    peer.publish(Task.DELETE, NEWS, None, lineage_of(tx))
    peer.on_mine_complete()
    with pytest.raises(TxRejected):
        peer.publish(Task.ADD, NEWS, b"gone for good")
    assert peer.store.staged_payload(tx.data_hash) is None
    assert peer.serve_request(Request(lineage_of(tx), 1, ()), "bob") == Refusal(lineage_of(tx), 1, "not-held")


def test_publishing_and_applying_hashes_each_payload_once(monkeypatch):
    import ethercouch.crypto as crypto

    # a 5,000 B payload is two chunks, so every hash of one builds a tree
    hashed, real_tree = [], crypto._tree
    monkeypatch.setattr(crypto, "_tree", lambda chunks: hashed.append(b"".join(chunks)) or real_tree(chunks))
    n = 50
    script = [ScriptAction(1 + i, "publish", "p0", {"doc": f"d{i}", "topic": "news", "size": 5000}) for i in range(n)]
    result = run_scenario(Scenario(seed=3, peers=[PeerConfig(name="p0")], script=script, mean_block_interval=20))
    store = result.peer("p0").store
    assert len(store.docs) == n
    assert set(hashed) == {doc.revisions[0].payload for doc in store.docs.values()}
    assert len(hashed) == n


# -- read locality --------------------------------------------------------------


def test_reads_touch_no_chain_state():
    peer, _ = make_peer()
    tx = peer.publish(Task.ADD, NEWS, b"local read")
    peer.on_mine_complete()
    lineage = lineage_of(tx)
    peer.chain = None  # any chain access below would raise
    assert peer.store.get_active(lineage) == b"local read"
    assert len(peer.store.history(lineage)) == 1


# -- scenario-level behaviour ------------------------------------------------


def test_offline_creator_makes_fetch_unavailable_then_recovers():
    scenario = Scenario(
        seed=21,
        peers=[PeerConfig(name="p0"), PeerConfig(name="p1"), PeerConfig(name="p2")],
        mining_power={"p0": 0.0, "p1": 1.0, "p2": 1.0},
        script=[
            ScriptAction(5, "publish", "p0", {"doc": "a", "topic": "news", "size": 600}),
            ScriptAction(8, "offline", "p0", {}),
            ScriptAction(400, "online", "p0", {}),
        ],
        latency=(1, 3),
        mean_block_interval=30,
    )
    result = run_scenario(scenario, until=30000)
    trace = "\n".join(result.trace.lines)
    assert "unavailable" in trace  # nobody held the payload while p0 was down
    stores = {p.store.dump_text() for p in result.peers.values()}
    assert len(stores) == 1
    assert result.peer("p1").store.payload_bytes() == 600


def test_peer_that_published_while_offline_propagates_after_reconnect():
    scenario = Scenario(
        seed=22,
        peers=[PeerConfig(name="p0"), PeerConfig(name="p1")],
        script=[
            ScriptAction(5, "offline", "p0", {}),
            ScriptAction(10, "publish", "p0", {"doc": "a", "topic": "news", "size": 300}),
            ScriptAction(200, "online", "p0", {}),
        ],
        latency=(1, 4),
        mean_block_interval=25,
    )
    result = run_scenario(scenario, until=30000)
    assert result.peer("p1").store.payload_bytes() == 300
    assert result.peer("p0").chain.tip == result.peer("p1").chain.tip


def test_a_lone_peer_that_comes_back_online_asks_nobody_for_blocks():
    peer, env = make_peer()
    tx = peer.publish(Task.ADD, NEWS, b"v1")
    peer.on_mine_complete()
    peer.go_offline()
    env.sent.clear()
    peer.go_online()
    # no other peer is registered, so the resync has no source and ends at once
    assert peer._resync is None
    assert not any(isinstance(m, BlockRequest) for (_, _, m) in env.sent)
    assert not peer.wants_poll() and not peer.wants_mining()
    assert peer.store.get_active(tx.doc_id) == b"v1"


def test_resync_converges_after_missed_mutations():
    script = [ScriptAction(4, "publish", "p0", {"doc": "base", "topic": "news", "size": 200})]
    script.append(ScriptAction(60, "offline", "p2", {}))
    for i in range(5):
        script.append(
            ScriptAction(80 + 40 * i, "publish", "p0", {"doc": f"d{i}", "topic": "news", "size": 150})
        )
    script.append(ScriptAction(400, "online", "p2", {}))
    scenario = Scenario(
        seed=23,
        peers=[PeerConfig(name="p0"), PeerConfig(name="p1"), PeerConfig(name="p2")],
        script=script,
        latency=(1, 5),
        mean_block_interval=30,
    )
    result = run_scenario(scenario, until=30000)
    dumps = {p.store.dump_text() for p in result.peers.values()}
    assert len(dumps) == 1
    tips = {p.chain.tip for p in result.peers.values()}
    assert len(tips) == 1


def test_filtered_peer_never_stores_foreign_topics():
    scenario = Scenario(
        seed=24,
        peers=[
            PeerConfig(name="p0"),
            PeerConfig(name="p1"),
            PeerConfig(name="filtered", topics=frozenset({NEWS})),
        ],
        script=[
            ScriptAction(5, "publish", "p0", {"doc": "n1", "topic": "news", "size": 100}),
            ScriptAction(25, "publish", "p1", {"doc": "o1", "topic": "ops", "size": 100}),
            ScriptAction(45, "publish", "p0", {"doc": "o2", "topic": "ops", "size": 100}),
            ScriptAction(65, "publish", "p1", {"doc": "n2", "topic": "news", "size": 100}),
        ],
        latency=(1, 4),
        mean_block_interval=25,
    )
    result = run_scenario(scenario, until=30000)
    filtered = result.peer("filtered")
    assert filtered.store.docs
    assert all(doc.topic_id == NEWS for doc in filtered.store.docs.values())
    assert filtered.chain.tip == result.peer("p0").chain.tip
