"""Hashing and merkle proof tests, checked against independent oracles."""

import hashlib
import random

import pytest

from ethercouch.crypto import (
    MerkleProof,
    chunk_payload,
    digest_from_hex,
    digest_hex,
    hash_bytes,
    merkle_prove,
    merkle_root,
    payload_root,
    proof_root,
    verify_chunk,
)

# Published SHA-256 test vector for the empty string.
SHA256_EMPTY_HEX = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def oracle_root(chunks):
    """Straight-line reference: build every tree level as an explicit list."""
    level = [hashlib.sha256(c).digest() for c in chunks]
    while len(level) > 1:
        if len(level) % 2 == 1:
            level = level + [level[-1]]
        nxt = []
        for i in range(0, len(level), 2):
            nxt.append(hashlib.sha256(level[i] + level[i + 1]).digest())
        level = nxt
    return level[0]


def test_hash_deterministic():
    for b in [b"", b"a", b"hello world", bytes(range(256))]:
        assert hash_bytes(b) == hash_bytes(b)
        assert len(hash_bytes(b)) == 32


def test_hash_empty_matches_published_vector():
    assert hash_bytes(b"").hex() == SHA256_EMPTY_HEX


def test_hash_no_collisions_over_random_corpus():
    rng = random.Random(0xC0FFEE)
    seen = {}
    for _ in range(10_000):
        b = rng.randbytes(rng.randint(0, 64))
        d = hash_bytes(b)
        if d in seen:
            assert seen[d] == b
        seen[d] = b
    # distinct inputs gave distinct digests (dict collisions only for equal input)
    assert len(seen) == len({v for v in seen.values()})


def test_digest_hex_roundtrip():
    d = hash_bytes(b"x")
    assert digest_hex(d) == d.hex()
    assert len(digest_hex(d)) == 64
    assert digest_hex(d) == digest_hex(d).lower()
    assert digest_from_hex(digest_hex(d)) == d
    with pytest.raises(ValueError):
        digest_from_hex("abcd")


def test_single_chunk_root_is_chunk_hash():
    c = b"only chunk"
    assert merkle_root([c]) == hash_bytes(c)


def test_two_chunk_root_by_construction():
    c0, c1 = b"left", b"right"
    assert merkle_root([c0, c1]) == hash_bytes(hash_bytes(c0) + hash_bytes(c1))


def test_root_matches_oracle_on_eight_chunks():
    payload = bytes(range(200)) * 41  # 8200 bytes
    chunks = chunk_payload(payload, 1025)
    assert len(chunks) == 8
    assert merkle_root(chunks) == oracle_root(chunks)


def test_root_matches_oracle_up_to_64_chunks():
    rng = random.Random(7)
    for n in range(1, 65):
        chunks = [rng.randbytes(rng.randint(1, 40)) for _ in range(n)]
        assert merkle_root(chunks) == oracle_root(chunks)


def test_empty_input_rejected():
    with pytest.raises(ValueError, match="empty input"):
        merkle_root([])
    with pytest.raises(ValueError, match="empty input"):
        merkle_prove([], 0)
    with pytest.raises(ValueError, match="empty input"):
        merkle_prove([], range(0))


def test_single_chunk_proof_has_no_siblings():
    p = merkle_prove([b"c"], 0)
    assert p.siblings == ()
    assert verify_chunk(b"c", p, merkle_root([b"c"]))


def test_eight_chunk_proofs_have_three_siblings():
    chunks = [bytes([i]) * 10 for i in range(8)]
    for i in range(8):
        assert len(merkle_prove(chunks, i).siblings) == 3


def test_five_chunk_proof_verifies_last_index():
    chunks = [bytes([i]) * 17 for i in range(5)]
    root = merkle_root(chunks)
    proof = merkle_prove(chunks, 4)
    assert verify_chunk(chunks[4], proof, root)


def test_index_out_of_range():
    with pytest.raises(IndexError):
        merkle_prove([b"a", b"b"], 2)
    with pytest.raises(IndexError):
        merkle_prove([b"a", b"b", b"c"], range(1, 4))
    with pytest.raises(IndexError):
        merkle_prove([b"a", b"b", b"c"], range(-1, 2))


def test_range_proofs_equal_per_index_proofs():
    rng = random.Random(7)
    for n in range(1, 34):  # every odd-level padding shape up to 33 leaves
        chunks = [rng.randbytes(rng.randint(0, 40)) for _ in range(n)]
        a, b = sorted(rng.sample(range(n + 1), 2))
        proofs = merkle_prove(chunks, range(n))
        assert proofs == tuple(merkle_prove(chunks, i) for i in range(n))
        # every leaf's proof folds up to the root of the tree it was cut from
        assert [proof_root(c, proof) for c, proof in zip(chunks, proofs)] == [merkle_root(chunks)] * n
        assert merkle_prove(chunks, range(a, b)) == tuple(merkle_prove(chunks, i) for i in range(a, b))


def test_empty_range_returns_no_proofs():
    assert merkle_prove([b"a", b"b", b"c"], range(0)) == ()
    assert merkle_prove([b"a", b"b", b"c"], range(2, 2)) == ()


def test_proving_every_chunk_hashes_one_tree(monkeypatch):
    from ethercouch import crypto

    calls = 0
    real = crypto.hash_bytes

    def counting(payload):
        nonlocal calls
        calls += 1
        return real(payload)

    monkeypatch.setattr(crypto, "hash_bytes", counting)
    for n in range(1, 34):
        chunks = [bytes([i]) for i in range(n)]
        calls = 0
        merkle_root(chunks)
        tree = calls
        calls = 0
        proofs = merkle_prove(chunks, range(n))
        assert len(proofs) == n and calls == tree
        # n leaves, n - 1 parents, and one more parent per odd level
        assert calls <= 2 * n - 1 + (n - 1).bit_length()
        if n & (n - 1) == 0:
            assert calls == 2 * n - 1


def test_roundtrip_property_random_chunk_lists():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(1, 33)
        chunks = [rng.randbytes(rng.randint(0, 50)) for _ in range(n)]
        root = merkle_root(chunks)
        for i in range(n):
            assert verify_chunk(chunks[i], merkle_prove(chunks, i), root)


def test_tamper_sweep_every_byte_position():
    # flipping any single byte of any chunk of a 4-chunk payload must fail
    chunks = [b"alpha-chunk-0", b"beta-chunk-11", b"gamma-chunk-2", b"delta-chunk-3"]
    root = merkle_root(chunks)
    for i, chunk in enumerate(chunks):
        proof = merkle_prove(chunks, i)
        for pos in range(len(chunk)):
            bad = bytearray(chunk)
            bad[pos] ^= 0x01
            assert not verify_chunk(bytes(bad), proof, root)


def test_tamper_property_random():
    rng = random.Random(977)
    for _ in range(100):
        n = rng.randint(1, 16)
        chunks = [rng.randbytes(rng.randint(1, 64)) for _ in range(n)]
        root = merkle_root(chunks)
        i = rng.randrange(n)
        proof = merkle_prove(chunks, i)
        bad = bytearray(chunks[i])
        bad[rng.randrange(len(bad))] ^= 1 << rng.randrange(8)
        assert not verify_chunk(bytes(bad), proof, root)


def test_cross_document_root_rejected():
    a = [b"doc a chunk 0", b"doc a chunk 1"]
    b = [b"doc b chunk 0", b"doc b chunk 1"]
    proof = merkle_prove(a, 0)
    assert verify_chunk(a[0], proof, merkle_root(a))
    assert not verify_chunk(a[0], proof, merkle_root(b))


def test_malformed_proofs_return_false():
    chunks = [b"a", b"b", b"c"]
    root = merkle_root(chunks)
    good = merkle_prove(chunks, 1)
    assert verify_chunk(b"b", good, root)
    # wrong sibling count
    short = MerkleProof(1, 3, good.siblings[:1])
    assert not verify_chunk(b"b", short, root)
    # index outside the tree
    bad_index = MerkleProof(5, 3, good.siblings)
    assert not verify_chunk(b"b", bad_index, root)
    # sibling of the wrong width
    odd = MerkleProof(1, 3, (good.siblings[0][:16], good.siblings[1]))
    assert not verify_chunk(b"b", odd, root)


def test_a_malformed_proof_reaches_no_root():
    chunks = [b"a", b"b", b"c"]
    good = merkle_prove(chunks, 1)
    assert proof_root(b"b", good) == merkle_root(chunks)
    for bad in (MerkleProof(1, 3, good.siblings[:1]), MerkleProof(5, 3, good.siblings), MerkleProof(1, 0, ())):
        assert proof_root(b"b", bad) is None
    assert proof_root(b"b", MerkleProof(1, 3, (good.siblings[0][:16], good.siblings[1]))) is None


def test_chunking():
    assert chunk_payload(b"", 4) == [b""]
    assert chunk_payload(b"abcdefgh", 4) == [b"abcd", b"efgh"]
    assert chunk_payload(b"abcdefghi", 4) == [b"abcd", b"efgh", b"i"]
    with pytest.raises(ValueError):
        chunk_payload(b"x", 0)


def test_payload_root_consistent_with_manual_chunking():
    payload = bytes(range(256)) * 20
    assert payload_root(payload, 512) == merkle_root(chunk_payload(payload, 512))


@pytest.mark.parametrize("cs", [1, 7, 4096])
def test_payload_root_equals_the_tree_root_on_both_sides_of_one_chunk(cs):
    # a payload of at most one chunk is hashed once, without a tree
    rng = random.Random(cs)
    for n in (0, 1, cs - 1, cs, cs + 1, 2 * cs, 2 * cs + 1):
        payload = rng.randbytes(n)
        assert payload_root(payload, cs) == merkle_root(chunk_payload(payload, cs)), n
    for bad in (0, -1):
        for payload in (b"", b"x"):
            with pytest.raises(ValueError):
                payload_root(payload, bad)


# -- whole-payload check -------------------------------------------------------


def per_chunk_check(chunks, proofs, root):
    """Reference: chunk i must carry leaf index i and the shared leaf count,
    and each proof must verify on its own (the check of a ranged fetch)."""
    if not chunks or len(chunks) != len(proofs) or len(chunks) != proofs[0].leaf_count:
        return False
    n = len(chunks)
    return all(
        p.leaf_index == i and p.leaf_count == n and verify_chunk(c, p, root)
        for i, (c, p) in enumerate(zip(chunks, proofs))
    )


def flip(b: bytes, rng) -> bytes:
    out = bytearray(b)
    out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return bytes(out)


def tampered_responses(n: int, rng):
    """(case, chunks, proofs, root) for one seeded n-chunk payload, in
    chunks of 64 bytes: the honest set, then every tamper of the proofs, the
    chunks or the root."""
    chunks = tuple(chunk_payload(rng.randbytes(64 * (n - 1) + rng.randint(1, 64)), 64))
    assert len(chunks) == n
    proofs = merkle_prove(list(chunks), range(n))
    root = merkle_root(list(chunks))
    i = rng.randrange(n)
    p = proofs[i]

    def with_proof(q):
        return proofs[:i] + (q,) + proofs[i + 1 :]

    yield "honest", chunks, proofs, root
    yield "flipped-chunk-byte", chunks[:i] + (flip(chunks[i], rng),) + chunks[i + 1 :], proofs, root
    if p.siblings:
        k = rng.randrange(len(p.siblings))
        siblings = p.siblings[:k] + (flip(p.siblings[k], rng),) + p.siblings[k + 1 :]
        yield "flipped-sibling-byte", chunks, with_proof(MerkleProof(i, n, siblings)), root
    if n > 1:
        j = (i + 1 + rng.randrange(n - 1)) % n
        swapped = list(proofs)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield "swapped-proofs", chunks, tuple(swapped), root
    yield "wrong-leaf-index", chunks, with_proof(MerkleProof((i + 1) % n if n > 1 else 1, n, p.siblings)), root
    yield "wrong-leaf-count", chunks, with_proof(MerkleProof(i, n + 1, p.siblings)), root
    yield "dropped-proof", chunks, proofs[:i] + proofs[i + 1 :], root
    yield "dropped-chunk", chunks[:i] + chunks[i + 1 :], proofs, root
    yield "extra-chunk", chunks + (b"extra",), proofs, root
    other = chunk_payload(rng.randbytes(64 * n), 64)
    yield "root-of-another-payload", chunks, proofs, merkle_root(other)


# the cases whose chunks join to the payload under its root
BYTES_INTACT = {"honest", "flipped-sibling-byte", "swapped-proofs", "wrong-leaf-index", "wrong-leaf-count", "dropped-proof"}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 11, 64])
def test_whole_set_check_agrees_with_the_per_chunk_loop(n):
    rng = random.Random(n)
    cases = list(tampered_responses(n, rng))
    assert len(cases) == 10 - (n == 1) * 2
    for case, chunks, proofs, root in cases:
        assert per_chunk_check(chunks, proofs, root) is (case == "honest"), case
        # the receiver's rule reads the bytes alone: it takes every proof
        # tamper and refuses every tamper of the chunks or the root
        assert (payload_root(b"".join(chunks), 64) == root) is (case in BYTES_INTACT), case


def test_whole_set_check_refuses_what_the_loop_takes_from_a_longer_payload():
    # the loop never reads the copy an odd last node is paired with, so it
    # takes chunks 0..2 of a 4-chunk payload, with that payload's proofs
    # relabelled for 3 leaves, under the 4-chunk root
    full = [b"chunk-0", b"chunk-1", b"chunk-2", b"chunk-3"]
    root = merkle_root(full)
    relabelled = tuple(MerkleProof(i, 3, p.siblings) for i, p in enumerate(merkle_prove(full, range(3))))
    assert per_chunk_check(full[:3], relabelled, root)
    assert payload_root(b"".join(full[:3]), 7) != root  # a store would refuse the bytes


def test_whole_set_check_hashes_one_tree(monkeypatch):
    from ethercouch import crypto

    calls = 0
    real = crypto.hash_bytes

    def counting(payload):
        nonlocal calls
        calls += 1
        return real(payload)

    for n in (1, 3, 64):
        chunks = [bytes([i]) * 5 for i in range(n)]
        proofs = merkle_prove(chunks, range(n))
        root = merkle_root(chunks)
        monkeypatch.setattr(crypto, "hash_bytes", counting)
        calls = 0
        assert payload_root(b"".join(chunks), 5) == root
        tree = calls
        calls = 0
        assert all(verify_chunk(c, p, root) for c, p in zip(chunks, proofs))
        monkeypatch.setattr(crypto, "hash_bytes", real)
        assert tree == 2 * n - 1 + (n == 3)  # 3 leaves pad one level
        assert calls == n * (crypto._levels(n) + 1)
    assert (tree, calls) == (127, 448)
