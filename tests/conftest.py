"""Shared fixtures and factories for building valid chain fixtures."""

import hashlib
import random

import pytest

from ethercouch.crypto import ZERO_DIGEST, hash_bytes, payload_root
from ethercouch.ledger import (
    Block,
    ChainState,
    DbFunction,
    Task,
    block_preimage,
    lineage_of,
    meets_target,
)
from ethercouch.registry import OK, DataRegistry

EDITOR_A = hash_bytes(b"editor-a")
EDITOR_B = hash_bytes(b"editor-b")
TOPIC_T = hash_bytes(b"topic-t")
TOPIC_U = hash_bytes(b"topic-u")
CHUNK = 4096


def make_add(payload: bytes, editor=EDITOR_A, topic=TOPIC_T, inline=False, chunk=CHUNK):
    return DbFunction(
        task=Task.ADD,
        data_hash=payload_root(payload, chunk),
        editor_hash=editor,
        topic_id=topic,
        sequence_id=1,
        inline_payload=payload if inline else None,
    )


def make_edit(lineage, seq, payload: bytes, editor=EDITOR_A, topic=TOPIC_T, inline=False, chunk=CHUNK):
    return DbFunction(
        task=Task.EDIT,
        data_hash=payload_root(payload, chunk),
        editor_hash=editor,
        topic_id=topic,
        sequence_id=seq,
        lineage=lineage,
        inline_payload=payload if inline else None,
    )


def make_delete(lineage, seq, editor=EDITOR_A, topic=TOPIC_T):
    return DbFunction(
        task=Task.DELETE,
        data_hash=ZERO_DIGEST,
        editor_hash=editor,
        topic_id=topic,
        sequence_id=seq,
        lineage=lineage,
    )


def raw_block(state: ChainState, parent_hash, height, txs, miner=EDITOR_A) -> Block:
    """Mine a block directly against a parent for fork fixtures.

    Transactions are taken as given; use only with txs that are valid in
    their intended chain context.
    """
    nonce = 0
    while True:
        pre = block_preimage(parent_hash, height, nonce, miner, tuple(txs))
        h = hash_bytes(pre)
        if meets_target(h, state.difficulty_bits):
            return Block(parent_hash, height, nonce, miner, tuple(txs), h)
        nonce += 1


def rebuild_registry(chain) -> DataRegistry:
    """Reference fold: a fresh registry built from ``chain.canonical_txs()``.

    Every transaction on a canonical chain passed ``validate_block``, so
    each must be valid in order here; the fold asserts it.
    """
    reg = DataRegistry()
    for tx, height, index in chain.canonical_txs():
        assert reg.fork_view().validate(tx) == OK, (height, index, reg.fork_view().validate(tx))
        reg.apply(tx, height, index)
    return reg


def random_mutation_batch(rng: random.Random, n: int, editors=(EDITOR_A, EDITOR_B), topics=(TOPIC_T, TOPIC_U), live=None, payloads=None):
    """A sequence of n valid chained mutations with their payloads.

    Returns (txs, payloads) where payloads maps data_hash -> payload bytes.
    Each tx is valid when applied in order after its predecessors. ``live``
    (lineage -> next sequence) carries document state across calls so a
    caller can build branches that continue a shared prefix.
    """
    txs = []
    payloads = payloads if payloads is not None else {}
    live = live if live is not None else {}
    for i in range(n):
        editor = rng.choice(editors)
        topic = rng.choice(topics)
        choices = ["add"] if not live else ["add", "edit", "edit", "delete"]
        op = rng.choice(choices)
        if op == "add":
            payload = rng.randbytes(rng.randint(8, 96))
            tx = make_add(payload, editor=editor, topic=topic)
            payloads[tx.data_hash] = payload
            live[lineage_of(tx)] = 2
        elif op == "edit":
            lineage = rng.choice(sorted(live))
            payload = rng.randbytes(rng.randint(8, 96))
            tx = make_edit(lineage, live[lineage], payload, editor=editor, topic=topic)
            payloads[tx.data_hash] = payload
            live[lineage] += 1
        else:
            lineage = rng.choice(sorted(live))
            tx = make_delete(lineage, live[lineage], editor=editor, topic=topic)
            del live[lineage]
        txs.append(tx)
    return txs, payloads


# -- seeded convergence scenarios ------------------------------------------


def build_convergence_scenario(seed: int):
    """One randomized multi-peer scenario: 3-7 peers, 20-60 mutations,
    random offline windows, exactly one partition/heal.

    Every offline window closes and the partition heals before the script
    ends, so by the end every payload's editor is back online and can serve
    it. Editors are always chosen so their topic filter covers the document.
    """
    from ethercouch.peer import PeerConfig, topic_hash
    from ethercouch.simnet import Scenario, ScriptAction

    rng = random.Random(0xEC0_0000 + seed)
    n_peers = rng.randint(3, 7)
    topic_names = ["alpha", "beta", "gamma"][: rng.randint(2, 3)]
    peers = []
    filtered_name = None
    filtered_topic = None
    for i in range(n_peers):
        name = f"p{i}"
        if i == n_peers - 1 and n_peers >= 4 and rng.random() < 0.4:
            filtered_topic = rng.choice(topic_names)
            peers.append(PeerConfig(name=name, topics=frozenset({topic_hash(filtered_topic)})))
            filtered_name = name
        else:
            peers.append(PeerConfig(name=name))
    unfiltered = [p.name for p in peers if p.name != filtered_name]

    events = []  # (time, kind, ...) assembled then sorted
    t = 5
    docs = {}  # doc name -> (topic, deleted?)
    n_mutations = rng.randint(20, 60)
    for i in range(n_mutations):
        live_docs = [d for d, (_, dead) in docs.items() if not dead]
        op = "add" if not live_docs or rng.random() < 0.45 else rng.choice(["edit", "edit", "delete"])
        if op == "add":
            doc = f"d{len(docs)}"
            topic = rng.choice(topic_names)
            docs[doc] = (topic, False)
            editor = rng.choice(unfiltered + ([filtered_name] if filtered_name and topic == filtered_topic else []))
            events.append((t, "publish", editor, {"doc": doc, "topic": topic, "size": rng.randint(40, 700)}))
        elif op == "edit":
            doc = rng.choice(live_docs)
            editor = rng.choice(unfiltered)
            events.append((t, "edit", editor, {"doc": doc, "size": rng.randint(40, 700)}))
        else:
            doc = rng.choice(live_docs)
            docs[doc] = (docs[doc][0], True)
            editor = rng.choice(unfiltered)
            events.append((t, "delete", editor, {"doc": doc}))
        t += rng.randint(5, 35)
    script_end = t + 10

    # offline windows, all closed before the script ends
    for p in peers:
        if rng.random() < 0.5:
            start = rng.randint(10, max(11, script_end - 120))
            end = rng.randint(start + 30, start + 200)
            events.append((start, "offline", p.name, {}))
            events.append((min(end, script_end), "online", p.name, {}))

    # exactly one partition/heal
    names = [p.name for p in peers]
    rng.shuffle(names)
    cut = rng.randint(1, len(names) - 1)
    p_start = rng.randint(10, max(11, script_end - 150))
    p_end = rng.randint(p_start + 40, p_start + 250)
    events.append((p_start, "partition", "", {"groups": [names[:cut], names[cut:]]}))
    events.append((min(p_end, script_end), "heal", "", {}))

    events.sort(key=lambda e: e[0])
    script = [ScriptAction(at, action, peer, args) for (at, action, peer, args) in events]
    return Scenario(
        seed=seed,
        peers=peers,
        script=script,
        latency=(1, rng.randint(3, 8)),
        mean_block_interval=rng.choice([20, 30, 50]),
        poll_interval=25,
    )


def run_convergence_scenario(seed: int):
    """Run one generated scenario twice; return a compact summary used by
    the convergence, one-to-one mapping and determinism criteria."""
    from ethercouch.bench import verify_pair
    from ethercouch.simnet import run_scenario

    horizon = 200_000
    r1 = run_scenario(build_convergence_scenario(seed), until=horizon)
    r2 = run_scenario(build_convergence_scenario(seed), until=horizon)
    unfiltered = r1.unfiltered_peers()
    tips = {p.chain.tip for p in unfiltered}
    reg_dumps = {p.chain.registry.dump_text() for p in unfiltered}
    store_dumps = {p.store.dump_text() for p in unfiltered}
    violations = []
    for peer in r1.peers.values():
        violations.extend(verify_pair(peer.chain, peer.store))
    filtered_ok = all(
        all(doc.topic_id in p.config.topics for doc in p.store.docs.values())
        for p in r1.peers.values()
        if p.config.topics
    )
    return {
        "seed": seed,
        "converged": len(tips) == 1 and len(reg_dumps) == 1 and len(store_dumps) == 1,
        "violations": violations,
        "digest1": r1.trace.digest(),
        "digest2": r2.trace.digest(),
        "filtered_ok": filtered_ok,
        "leftover": sum(len(p.pending) for p in r1.peers.values()),
        "cached": sum(len(p.push_cache) for p in r1.peers.values()),
        "state": peer_state_hash(r1.peers),
    }


def peer_state_hash(peers) -> str:
    """SHA-256 over every peer's chain tip and store snapshot, by name."""
    h = hashlib.sha256()
    for _, peer in sorted(peers.items()):
        h.update(peer.chain.tip + hashlib.sha256(peer.store.snapshot_bytes()).digest())
    return h.hexdigest()


def convergence_pin(summaries) -> str:
    """One SHA-256 over every scenario's first trace digest and end state."""
    h = hashlib.sha256()
    for s in summaries:
        h.update(f"{s['seed']} {s['digest1']} {s['state']}\n".encode())
    return h.hexdigest()


CONVERGENCE_SEEDS = list(range(200))


@pytest.fixture(scope="session")
def convergence_suite():
    """Shared by the convergence, mapping and determinism criteria: each of
    the 200 seeded scenarios runs exactly twice for the whole session."""
    return [run_convergence_scenario(seed) for seed in CONVERGENCE_SEEDS]
