"""Seeded mutation fuzz of parsers of untrusted bytes.

Each test mutates one real, valid encoding thousands of times (truncate,
flip one bit, delete one byte) and parses every mutant. A mutant may still
parse, but the only exception allowed to escape is ValueError; anything
else would reach the CLI as a traceback or crash a peer.
"""

import random

from conftest import build_convergence_scenario
from ethercouch.crypto import chunk_payload, hash_bytes, merkle_prove
from ethercouch.docstore import StoreState
from ethercouch.simnet import deterministic_bytes, run_scenario
from ethercouch.wire import Response, decode_message, encode_message

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
