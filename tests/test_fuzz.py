"""Seeded mutation fuzz of parsers of untrusted bytes.

Each test mutates one real, valid encoding thousands of times (truncate,
flip one bit, delete one byte) and parses every mutant. A mutant may still
parse, but the only exception allowed to escape is ValueError; anything
else would reach the CLI as a traceback or crash a peer.
"""

import random

import pytest

from conftest import EDITOR_A, TOPIC_T, TOPIC_U, build_convergence_scenario, make_add, make_delete, make_edit, raw_block
from ethercouch.crypto import chunk_payload, hash_bytes, merkle_prove
from ethercouch.docstore import StoreState
from ethercouch.ledger import ChainState, lineage_of, parse_block, parse_tx, serialize_block, serialize_tx
from ethercouch.simnet import deterministic_bytes, run_scenario
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


def test_store_snapshot_mutants_raise_only_value_error():
    peer = run_scenario(build_convergence_scenario(0), until=200_000).peer("p0")
    store = peer.store
    # the snapshot has every field kind: a mark, deleted docs, erased payloads
    assert store.applied_upto is not None
    assert any(doc.deleted for doc in store.docs.values())
    assert any(rev.payload is None for doc in store.docs.values() for rev in doc.revisions)
    buf = store.snapshot_bytes()
    assert StoreState.from_snapshot(buf).snapshot_bytes() == buf
    assert rejected_share(StoreState.from_snapshot, buf, seed=1) > 0.5


def test_multi_chunk_response_mutants_raise_only_value_error():
    chunks = chunk_payload(deterministic_bytes("fuzz", 700), 64)
    resp = Response(hash_bytes(b"lin"), 2, 0, tuple(chunks), merkle_prove(chunks, range(len(chunks))))
    buf = encode_message(resp)
    assert len(chunks) == 11 and decode_message(buf) == resp
    assert rejected_share(decode_message, buf, seed=2) > 0.5


LINEAGE = hash_bytes(b"lin")
TX = make_edit(LINEAGE, 3, b"inline edit", inline=True)
BLOCK = raw_block(ChainState(difficulty_bits=0), hash_bytes(b"parent"), 7, [make_add(b"a"), TX, make_delete(LINEAGE, 4)])


@pytest.mark.parametrize(
    "value, encode, parse, seed",
    [
        pytest.param(TX, serialize_tx, parse_tx, 3, id="tx"),
        pytest.param(BLOCK, serialize_block, parse_block, 4, id="block"),
        pytest.param(Request(LINEAGE, 2, 1, 3, (TOPIC_T, TOPIC_U)), encode_message, decode_message, 5, id="request"),
        pytest.param(Refusal(LINEAGE, 2, "filter-refused"), encode_message, decode_message, 6, id="refusal"),
        pytest.param(BlockAnnounce(BLOCK), encode_message, decode_message, 7, id="block-announce"),
        pytest.param(BlockRequest(17), encode_message, decode_message, 8, id="block-request"),
        pytest.param(TxAnnounce(TX), encode_message, decode_message, 9, id="tx-announce"),
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
        path.write_bytes(mutant)
        return ChainState.load(path)

    assert rejected_share(load, buf, seed=10) > 0.5
