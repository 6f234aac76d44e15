"""Wire message serialization roundtrips."""

import pytest

from conftest import EDITOR_A, TOPIC_T, make_add, make_edit
from ethercouch.codec import lp, u64
from ethercouch.crypto import ONE_LEAF_PROOFS, MerkleProof, ProofSet, chunk_payload, hash_bytes, merkle_prove
from ethercouch.docstore import StoreState
from ethercouch.ledger import ChainState, lineage_of
from ethercouch.wire import (
    BlockAnnounce,
    BlockRequest,
    Refusal,
    Request,
    Response,
    TxAnnounce,
    decode_message,
    describe,
    encode_message,
)


def roundtrip(msg):
    buf = encode_message(msg)
    out = decode_message(buf)
    assert out == msg
    assert encode_message(out) == buf  # the canonical encoding is the only one
    assert describe(out)
    if isinstance(out, Response):
        assert all(type(p) is MerkleProof for p in out.proofs)
    return out


def test_request_roundtrip():
    roundtrip(Request(hash_bytes(b"lin"), 3, ()))
    roundtrip(Request(hash_bytes(b"lin"), 1, (hash_bytes(b"t1"), hash_bytes(b"t2"))))


def test_response_roundtrip():
    payload = bytes(range(256)) * 5
    chunks = chunk_payload(payload, 300)
    proofs = tuple(merkle_prove(chunks, i) for i in range(len(chunks)))
    roundtrip(Response(hash_bytes(b"lin"), 2, tuple(chunks), proofs))
    one = roundtrip(Response(hash_bytes(b"lin"), 2, (b"one",), (merkle_prove([b"one"], 0),)))
    assert one.proofs == (MerkleProof(0, 1, ()),)
    roundtrip(Response(hash_bytes(b"lin"), 2, (), ()))
    # records of different widths follow one another
    roundtrip(Response(hash_bytes(b"lin"), 2, (b"a", b"bc", b"", b"def"), mixed_proofs((0, 3, 1, 6))))
    chunks = chunk_payload(bytes(range(256)), 4)
    kept = Response(hash_bytes(b"lin"), 2, tuple(chunks), merkle_prove(chunks, range(64)))
    roundtrip(kept)
    # a set that kept its section encodes to the bytes a fresh tuple gives
    assert kept.proofs.encoded and encode_message(kept) == encode_message(kept._replace(proofs=tuple(kept.proofs)))


def mixed_proofs(counts) -> tuple[MerkleProof, ...]:
    """Hand-built proofs with the given sibling counts."""
    return tuple(MerkleProof(i, 64, tuple(hash_bytes(bytes([i, j])) for j in range(k))) for i, k in enumerate(counts))


def test_refusal_roundtrip():
    roundtrip(Refusal(hash_bytes(b"lin"), 4, "not-held"))
    roundtrip(Refusal(hash_bytes(b"lin"), 4, "filter-refused"))


def test_block_announce_roundtrip():
    state = ChainState(difficulty_bits=0)
    state.submit_tx(make_add(b"doc"))
    block = state.mine_block(EDITOR_A)
    out = roundtrip(BlockAnnounce(block))
    assert out.block.block_hash == block.block_hash


def test_block_request_and_tx_announce_roundtrip():
    roundtrip(BlockRequest(17))
    roundtrip(TxAnnounce(make_add(b"doc", inline=True)))
    roundtrip(TxAnnounce(make_add(b"doc")))


def test_garbage_rejected():
    with pytest.raises(ValueError):
        decode_message(b"")
    with pytest.raises(ValueError):
        decode_message(b"\xff\x00\x00")
    for good in (encode_message(BlockRequest(1)), encode_message(Request(LINEAGE, 1))):
        with pytest.raises(ValueError):
            decode_message(good + b"extra")


def mined_block():
    state = ChainState(difficulty_bits=0)
    add = make_add(b"doc")
    state.submit_tx(add)
    state.submit_tx(make_edit(lineage_of(add), 2, b"inline v2", inline=True))
    return state.mine_block(EDITOR_A)


LINEAGE = hash_bytes(b"lin")
SEQ = lp(u64(4))
NO_TOPICS = lp(u64(0))


def request_bytes(lineage=LINEAGE, seq=SEQ, topics=NO_TOPICS) -> bytes:
    return b"\x01" + lp(lineage) + seq + topics


def refusal_bytes(lineage=LINEAGE, seq=SEQ) -> bytes:
    return b"\x03" + lp(lineage) + seq + lp(b"not-held")


CHUNKS = (b"two chunks: ", b"this one")
PROOFS = merkle_prove(list(CHUNKS), range(2))


def proof_bytes(proof, index=None, sibling_count=None, siblings=None) -> bytes:
    siblings = proof.siblings if siblings is None else siblings
    index = lp(u64(proof.leaf_index)) if index is None else index
    sibling_count = lp(u64(len(siblings))) if sibling_count is None else sibling_count
    return lp(index + lp(u64(proof.leaf_count)) + sibling_count + b"".join(lp(s) for s in siblings))


def response_bytes(lineage=LINEAGE, seq=SEQ, first_proof=None, chunks=CHUNKS, proofs=PROOFS) -> bytes:
    records = [proof_bytes(p) for p in proofs]
    if first_proof is not None:
        records[0] = first_proof
    body = lp(u64(len(chunks))) + b"".join(lp(c) for c in chunks)
    return b"\x02" + lp(lineage) + seq + body + lp(u64(len(records))) + b"".join(records)


def block_with_parent(width: int) -> bytes:
    buf = mined_block().preimage()
    return lp(bytes(width)) + buf[4 + 32 :]


def test_hand_built_canonical_bytes_parse():
    assert decode_message(request_bytes()) == Request(LINEAGE, 4, ())
    assert decode_message(request_bytes(topics=lp(u64(1)) + lp(TOPIC_T))) == Request(LINEAGE, 4, (TOPIC_T,))
    assert decode_message(refusal_bytes()) == Refusal(LINEAGE, 4, "not-held")
    assert decode_message(b"\x04" + lp(block_with_parent(32))).block.parent == bytes(32)
    response = Response(LINEAGE, 4, CHUNKS, PROOFS)
    assert decode_message(response_bytes()) == response
    assert encode_message(response) == response_bytes()


@pytest.mark.parametrize(
    "buf",
    [
        pytest.param(request_bytes(lineage=LINEAGE[:31]), id="request-31-byte-lineage"),
        pytest.param(request_bytes(seq=lp(u64(4)[1:])), id="request-7-byte-seq"),
        pytest.param(request_bytes(topics=lp(u64(1)) + lp(TOPIC_T[:31])), id="request-31-byte-topic"),
        pytest.param(refusal_bytes(lineage=LINEAGE[:31]), id="refusal-31-byte-lineage"),
        pytest.param(refusal_bytes(seq=lp(u64(4)[1:])), id="refusal-7-byte-seq"),
        pytest.param(b"\x04" + lp(block_with_parent(31)), id="block-31-byte-parent"),
        pytest.param(b"\x04" + lp(block_with_parent(33)), id="block-33-byte-parent"),
        pytest.param(b"\x05" + lp(u64(17)[1:]), id="blockreq-7-byte-height"),
        pytest.param(response_bytes(lineage=LINEAGE[:31]), id="response-31-byte-lineage"),
        pytest.param(response_bytes(seq=lp(u64(4)[1:])), id="response-7-byte-seq"),
        pytest.param(
            response_bytes(first_proof=proof_bytes(PROOFS[0], siblings=(PROOFS[0].siblings[0] + b"x",))),
            id="response-33-byte-sibling",
        ),
        pytest.param(
            # the proof's width is right for two siblings; only their widths are not
            response_bytes(first_proof=proof_bytes(PROOFS[0], siblings=(LINEAGE[:31], LINEAGE + b"x"))),
            id="response-31-and-33-byte-siblings",
        ),
        pytest.param(
            response_bytes(first_proof=proof_bytes(PROOFS[0], index=lp(u64(0)[1:]))), id="response-7-byte-leaf-index"
        ),
        pytest.param(
            response_bytes(first_proof=proof_bytes(PROOFS[0], sibling_count=lp(u64(2)))),
            id="response-proof-width-disagrees-with-sibling-count",
        ),
    ],
)
def test_non_canonical_widths_are_refused(buf):
    with pytest.raises(ValueError):
        decode_message(buf)


def test_encode_refuses_a_digest_that_is_not_32_bytes():
    with pytest.raises(ValueError):
        encode_message(Request(LINEAGE[:31], 1))
    with pytest.raises(ValueError):
        encode_message(Refusal(LINEAGE + b"x", 1, "not-held"))
    with pytest.raises(ValueError):
        encode_message(Response(LINEAGE[:31], 1, CHUNKS, PROOFS))
    for sibling in (PROOFS[0].siblings[0][:31], PROOFS[0].siblings[0] + b"x"):
        with pytest.raises(ValueError):
            encode_message(Response(LINEAGE, 1, CHUNKS, (MerkleProof(0, 2, (sibling,)), PROOFS[1])))


def count_sections(monkeypatch) -> list:
    """Record the proofs of every proof section the encoder packs."""
    import ethercouch.wire as wire

    sections, real_section = [], wire._proof_section
    monkeypatch.setattr(wire, "_proof_section", lambda proofs: sections.append(proofs) or real_section(proofs))
    return sections


def test_a_tuple_of_proofs_that_is_not_a_kept_set_is_encoded_afresh_on_each_call(monkeypatch):
    sections = count_sections(monkeypatch)
    hand_built = Response(LINEAGE, 4, CHUNKS, tuple(PROOFS))
    decoded = decode_message(response_bytes())
    assert type(decoded.proofs) is tuple
    for response in (hand_built, decoded):
        sections.clear()
        assert [encode_message(response) for _ in range(3)] == [response_bytes()] * 3
        assert len(sections) == 3


def test_a_kept_set_that_does_not_encode_keeps_no_section(monkeypatch):
    sections = count_sections(monkeypatch)
    store = StoreState()
    kept = store.proof_set(LINEAGE, lambda: ProofSet([MerkleProof(0, 2, (LINEAGE[:31],)), PROOFS[1]]))
    for _ in range(3):
        with pytest.raises(ValueError):
            encode_message(Response(LINEAGE, 4, CHUNKS, kept))
    assert len(sections) == 3 and vars(kept) == {}


def test_a_sibling_count_beyond_the_bytes_is_refused_before_a_struct_is_sized(monkeypatch):
    import struct

    import ethercouch.wire as wire

    sized, real_struct = [], struct.Struct
    monkeypatch.setattr(wire.struct, "Struct", lambda fmt: sized.append(fmt) or real_struct(fmt))
    wire._record.cache_clear()
    # the width and the count agree on 1,000 siblings, and the frame holds one
    head = lp(u64(0)) + lp(u64(2)) + lp(u64(1000))
    record = struct.pack(">I", len(head) + 1000 * len(lp(LINEAGE))) + head + lp(LINEAGE)
    for first_proof in (record, record[:-10]):
        with pytest.raises(ValueError):
            decode_message(response_bytes(first_proof=first_proof))
    assert sized == []
    # the same count with its bytes present is read, one struct per record width
    siblings = (LINEAGE,) * 1000
    assert decode_message(response_bytes(first_proof=proof_bytes(PROOFS[0], siblings=siblings))).proofs[0].siblings == siblings
    assert [fmt.count("32s") for fmt in sized] == [1000, 1]


def test_the_record_struct_cache_stays_at_its_bound():
    import ethercouch.wire as wire

    for k in range(200):
        proofs = mixed_proofs((k,))
        assert decode_message(encode_message(Response(LINEAGE, 4, (b"c",), proofs))).proofs == proofs
    info = wire._record.cache_info()
    assert info.currsize == info.maxsize == 64


def decoded_or_error(buf: bytes):
    """What ``decode_message`` makes of ``buf``: a message or its ValueError's text."""
    try:
        return decode_message(buf)
    except ValueError as e:
        return f"ValueError: {e}"


def test_a_one_chunk_proof_tail_reads_as_the_record_parser_reads_it(monkeypatch):
    import ethercouch.wire as wire

    one_chunk = encode_message(Response(LINEAGE, 4, (b"one chunk",), ONE_LEAF_PROOFS))
    head, tail = one_chunk[:-52], one_chunk[-52:]
    assert tail == wire._ONE_LEAF_SECTION and decode_message(one_chunk).proofs is ONE_LEAF_PROOFS
    bufs = [head + tail[:i] + bytes([b]) + tail[i + 1 :] for i in range(len(tail)) for b in range(256)]
    bufs += [head + tail[:i] for i in range(len(tail))] + [one_chunk + bytes([b]) for b in range(256)]
    compared = [decoded_or_error(buf) for buf in bufs]
    monkeypatch.setattr(wire, "_ONE_LEAF_SECTION", b"")
    parsed = [decoded_or_error(buf) for buf in bufs]
    assert compared == parsed
    # the 52 unchanged tails read as the constant only with the compare on;
    # a changed leaf index or leaf count byte (16 bytes, 255 changes each)
    # parses to another proof, and every other change is refused
    kept = [out for out in compared if isinstance(out, Response) and out.proofs is ONE_LEAF_PROOFS]
    read = [out for out in parsed if isinstance(out, Response)]
    assert len(kept) == 52 and len(read) == 52 + 16 * 255
    assert not any(out.proofs is ONE_LEAF_PROOFS for out in read)
