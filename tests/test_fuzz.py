"""Seeded mutation fuzz of parsers of untrusted bytes.

Each test mutates one real, valid encoding thousands of times (truncate,
flip one bit, delete one byte) and parses every mutant. A mutant may still
parse, but the only exception allowed to escape is ValueError; anything
else would reach the CLI as a traceback or crash a peer. Scenario files
are mutated at the JSON level instead: a dropped key, a value of another
kind, or another top level.
"""

import json
import random

import pytest

from conftest import EDITOR_A, TOPIC_T, TOPIC_U, build_convergence_scenario, make_add, make_delete, make_edit, raw_block
from ethercouch.crypto import ONE_LEAF_PROOFS, MerkleProof, chunk_payload, hash_bytes, merkle_prove
from ethercouch.docstore import StoreState
from ethercouch.ledger import Block, ChainState, lineage_of, parse_block, parse_tx, serialize_tx
from ethercouch.simnet import deterministic_bytes, run_scenario, scenario_from_json
from ethercouch.wire import (
    BlockAnnounce,
    BlockRequest,
    Refusal,
    Request,
    Response,
    TxAnnounce,
    decode_message,
    encode_message,
)

MUTANTS = 5000


def mutants(buf: bytes, seed: int):
    rng = random.Random(seed)
    for _ in range(MUTANTS):
        b = bytearray(buf)
        op = rng.randrange(3)
        if op == 0:
            del b[rng.randrange(len(b)) :]
        elif op == 1:
            b[rng.randrange(len(b))] ^= 1 << rng.randrange(8)
        else:
            del b[rng.randrange(len(b))]
        yield bytes(b)


def rejected_share(parse, buf: bytes, seed: int) -> float:
    """Parse every mutant; other exceptions than ValueError propagate."""
    rejected = 0
    for m in mutants(buf, seed):
        try:
            parse(m)
        except ValueError:
            rejected += 1
    return rejected / MUTANTS


def decode_canonical(buf: bytes):
    """``decode_message``, checking that a message that parses re-encodes to
    exactly the bytes it came from: the decoder takes no second encoding."""
    msg = decode_message(buf)
    assert encode_message(msg) == buf
    return msg


def load_store_canonical(buf: bytes) -> StoreState:
    """``StoreState.from_snapshot``, checking that a snapshot that loads
    saves back to exactly the bytes it came from."""
    store = StoreState.from_snapshot(buf)
    assert store.snapshot_bytes() == buf
    return store


def test_store_snapshot_mutants_raise_only_value_error():
    peer = run_scenario(build_convergence_scenario(0), until=200_000).peer("p0")
    store = peer.store
    # the snapshot has every field kind: a mark, deleted docs, erased payloads
    assert store.applied_upto is not None
    assert any(doc.deleted for doc in store.docs.values())
    assert any(rev.payload is None for doc in store.docs.values() for rev in doc.revisions)
    buf = store.snapshot_bytes()
    assert StoreState.from_snapshot(buf).snapshot_bytes() == buf
    assert rejected_share(load_store_canonical, buf, seed=1) > 0.5


def test_multi_chunk_response_mutants_raise_only_value_error():
    chunks = chunk_payload(deterministic_bytes("fuzz", 700), 64)
    resp = Response(hash_bytes(b"lin"), 2, tuple(chunks), merkle_prove(chunks, range(len(chunks))))
    buf = encode_message(resp)
    assert len(chunks) == 11 and decode_message(buf) == resp
    assert rejected_share(decode_canonical, buf, seed=2) > 0.5


LINEAGE = hash_bytes(b"lin")
TX = make_edit(LINEAGE, 3, b"inline edit", inline=True)
# hand-built proofs of 0, 3, 1 and 6 siblings, and a payload of 64 chunks
MIXED_PROOFS = tuple(MerkleProof(i, 64, tuple(hash_bytes(bytes([i, j])) for j in range(k))) for i, k in enumerate((0, 3, 1, 6)))
CHUNKS_64 = chunk_payload(deterministic_bytes("fuzz", 256), 4)
BLOCK = raw_block(ChainState(difficulty_bits=0), hash_bytes(b"parent"), 7, [make_add(b"a"), TX, make_delete(LINEAGE, 4)])


@pytest.mark.parametrize(
    "value, encode, parse, seed",
    [
        pytest.param(TX, serialize_tx, parse_tx, 3, id="tx"),
        pytest.param(BLOCK, Block.preimage, parse_block, 4, id="block"),
        pytest.param(Request(LINEAGE, 2, (TOPIC_T, TOPIC_U)), encode_message, decode_canonical, 5, id="request"),
        pytest.param(Request(LINEAGE, 2), encode_message, decode_canonical, 12, id="request-no-topics"),
        pytest.param(Refusal(LINEAGE, 2, "filter-refused"), encode_message, decode_canonical, 6, id="refusal"),
        pytest.param(BlockAnnounce(BLOCK), encode_message, decode_canonical, 7, id="block-announce"),
        pytest.param(BlockRequest(17), encode_message, decode_canonical, 8, id="block-request"),
        pytest.param(TxAnnounce(TX), encode_message, decode_canonical, 9, id="tx-announce"),
        pytest.param(
            Response(LINEAGE, 2, (b"one chunk",), (merkle_prove([b"one chunk"], 0),)),
            encode_message,
            decode_canonical,
            11,
            id="single-chunk-response",
        ),
        pytest.param(
            # a served one-chunk payload: its proof section is read by its bytes
            Response(LINEAGE, 2, (deterministic_bytes("fuzz", 300),), ONE_LEAF_PROOFS),
            encode_message,
            decode_canonical,
            15,
            id="one-chunk-response",
        ),
        pytest.param(
            Response(LINEAGE, 2, (b"a", b"bc", b"", b"def"), MIXED_PROOFS),
            encode_message,
            decode_canonical,
            13,
            id="mixed-sibling-counts-response",
        ),
        pytest.param(
            Response(LINEAGE, 2, tuple(CHUNKS_64), merkle_prove(CHUNKS_64, range(64))),
            encode_message,
            decode_canonical,
            14,
            id="64-chunk-response",
        ),
    ],
)
def test_parser_mutants_raise_only_value_error(value, encode, parse, seed):
    buf = encode(value)
    assert parse(buf) == value
    assert rejected_share(parse, buf, seed) > 0.5


def test_chain_file_mutants_raise_only_value_error(tmp_path):
    state = ChainState(difficulty_bits=4)
    add = make_add(b"on chain", inline=True)
    for txs in ([add, make_add(b"b")], [make_edit(lineage_of(add), 2, b"v2", inline=True)], [make_delete(lineage_of(add), 3)]):
        for tx in txs:
            state.submit_tx(tx)
        state.adopt_block(state.mine_block(EDITOR_A))
    path = tmp_path / "chain.bin"
    state.save(path)
    buf = path.read_bytes()
    assert ChainState.load(path).dump_text() == state.dump_text()

    def load(mutant: bytes):
        # a chain file that loads saves back to exactly its own bytes
        path.write_bytes(mutant)
        chain = ChainState.load(path)
        chain.save(tmp_path / "saved.bin")
        assert (tmp_path / "saved.bin").read_bytes() == mutant
        return chain

    assert rejected_share(load, buf, seed=10) > 0.5


SCENARIO = {
    "seed": 5,
    "peers": [
        {"name": "p0", "mode": "ethercouch", "topics": [], "confirmation_depth": 1},
        {"name": "p1", "topics": ["news"], "confirmation_depth": 2},
        {"name": "p2"},
    ],
    "mining_power": {"p0": 1.0, "p1": 2},
    "latency": [1, 4],
    "mean_block_interval": 30,
    "poll_interval": 25,
    "difficulty_bits": 0,
    "chunk_size": 64,
    "allow_empty_blocks": False,
    "max_txs_per_block": 10,
    "script": [
        {"at": 5, "action": "publish", "peer": "p0", "doc": "a", "topic": "news", "size": 200},
        {"at": 9, "action": "publish", "peer": "p2", "doc": "b", "topic": "ops", "data": "hello"},
        {"at": 40, "action": "partition", "groups": [["p0"], ["p1", "p2"]]},
        {"at": 60, "action": "edit", "peer": "p1", "doc": "a", "size": 90},
        {"at": 90, "action": "heal"},
        {"at": 120, "action": "delete", "peer": "p0", "doc": "b"},
    ],
}
# one value of each JSON kind; a swap picks one of another kind
KINDS = (None, True, 7, 1.5, "x", [1], {"k": 1})


def scenario_mutants(seed: int, count: int):
    """Drop one key, swap one value for one of another JSON kind, or
    replace the top level; yields the mutant's JSON text."""
    rng = random.Random(seed)
    slots = []  # (container path, key or index) of every value in SCENARIO

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            slots.append((path, key))
            walk(child, path + (key,))

    walk(SCENARIO, ())
    keyed = [s for s in slots if isinstance(s[1], str)]
    for _ in range(count):
        doc = json.loads(json.dumps(SCENARIO))
        op = rng.randrange(3)
        if op == 2:
            doc = rng.choice([k for k in KINDS if not isinstance(k, dict)])
        else:
            path, key = rng.choice(keyed if op == 0 else slots)
            parent = doc
            for step in path:
                parent = parent[step]
            if op == 0:
                del parent[key]
            else:
                parent[key] = rng.choice([k for k in KINDS if type(k) is not type(parent[key])])
        yield json.dumps(doc)


def test_scenario_mutants_raise_only_value_error():
    assert run_scenario(scenario_from_json(json.dumps(SCENARIO)), until=3000).peer("p1").store.docs
    rejected = total = 0
    for text in scenario_mutants(seed=11, count=400):
        total += 1
        try:
            # what parses must also run: the parser checks every field the
            # simulator reads
            run_scenario(scenario_from_json(text), until=3000)
        except ValueError:
            rejected += 1
    assert 0.5 < rejected / total < 1
