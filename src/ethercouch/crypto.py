"""Content hashing and merkle trees for chunked off-chain transfers.

Every digest in the system is SHA-256 (32 bytes). Payloads travel between
peers as fixed-size chunks; a binary merkle tree over the chunk hashes lets
a holder prove each chunk against the single 32-byte root recorded on
chain, so a receiver can verify a chunk without holding the whole payload
first (``verify_chunk``, which folds a chunk's proof up to the root it
reaches, ``proof_root``). A receiver of a whole payload checks it by its
root alone (``payload_root``).

Wire contract (must match across implementations):
- leaf(i)   = sha256(chunk_i)
- parent    = sha256(left || right)
- an odd node at any level is paired with a copy of itself
- a single-chunk tree has root = sha256(chunk)
- digests serialize as 64 lowercase hex characters
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

# A Digest is plain bytes, always exactly 32 of them.
Digest = bytes

DIGEST_SIZE = 32
ZERO_DIGEST: Digest = b"\x00" * DIGEST_SIZE

# Default size of one off-chain transfer chunk. Configurable per deployment;
# all peers in one network must agree because the on-chain root depends on it.
DEFAULT_CHUNK_SIZE = 4096


def hash_bytes(payload: bytes) -> Digest:
    """SHA-256 of a byte string. Pure, deterministic, empty input allowed."""
    return hashlib.sha256(payload).digest()


def digest_hex(d: Digest) -> str:
    """Canonical text form of a digest: 64 lowercase hex chars."""
    return d.hex()


def digest_from_hex(s: str) -> Digest:
    d = bytes.fromhex(s)
    if len(d) != DIGEST_SIZE:
        raise ValueError(f"digest must be {DIGEST_SIZE} bytes, got {len(d)}")
    return d


def chunk_payload(payload: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[bytes]:
    """Split a payload into transfer chunks.

    The final chunk may be short. An empty payload still produces one empty
    chunk so that every payload has a well-defined merkle root.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if not payload:
        return [b""]
    return [payload[i : i + chunk_size] for i in range(0, len(payload), chunk_size)]


def payload_root(payload: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Digest:
    """Merkle root of a payload after chunking. The on-chain data hash.

    A payload of at most one chunk has the single-chunk tree's root,
    sha256(payload), hashed without building the chunk list and the tree.
    Longer payloads are hashed through views of their chunks, so checking
    a payload holds no second copy of its bytes.
    """
    if 0 < chunk_size and len(payload) <= chunk_size:
        return hash_bytes(payload)
    return merkle_root(chunk_payload(memoryview(payload), chunk_size))


class MerkleProof(NamedTuple):
    """Inclusion proof for one chunk.

    siblings are ordered from the leaf level up to just below the root.
    For a tree of n leaves the proof carries ceil(log2(n)) siblings
    (0 for a single-leaf tree). A named tuple, so it is cheap to build and
    compares equal to the plain tuple (leaf_index, leaf_count, siblings).
    """

    leaf_index: int
    leaf_count: int
    siblings: tuple[Digest, ...]


def _levels(leaf_count: int) -> int:
    """Number of sibling entries a proof needs for a tree of leaf_count leaves."""
    n = leaf_count
    levels = 0
    while n > 1:
        n = (n + 1) // 2
        levels += 1
    return levels


def _tree(chunks: list[bytes]) -> list[list[Digest]]:
    """Every level of the binary merkle tree over sha256(chunk_i), leaves
    first and the root last. An odd level keeps the copy of its last node
    that it was paired with, so the sibling of position p is level[p ^ 1].

    Raises ValueError on an empty chunk list: "empty input".
    """
    if not chunks:
        raise ValueError("empty input")
    level = [hash_bytes(c) for c in chunks]
    levels = [level]
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [hash_bytes(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


def merkle_root(chunks: list[bytes]) -> Digest:
    """Root of the binary merkle tree over sha256(chunk_i); see _tree."""
    return _tree(chunks)[-1][0]


class ProofSet(tuple):
    """Proofs cut from one tree: a tuple that can carry the wire codec's
    encoding of it (``encoded``), which its fixed items keep valid."""


# The proofs of every payload of at most one chunk: its one leaf is its
# root, so no tree is built to prove it, and one set serves every such root.
ONE_LEAF_PROOFS = ProofSet([MerkleProof(0, 1, ())])


def merkle_prove(chunks: list[bytes], index: int | range) -> MerkleProof | ProofSet:
    """Inclusion proof for chunks[index]. For a range of indices, a
    ProofSet of their proofs, all cut from one tree (empty for an empty range).

    Raises IndexError if an index is out of range, ValueError on empty input.
    """
    levels = _tree(chunks)
    indices = range(index, index + 1) if isinstance(index, int) else index
    # every index of a range lies between its first and its last
    if indices and not (0 <= indices[0] < len(chunks) and 0 <= indices[-1] < len(chunks)):
        raise IndexError(f"chunk index {index} out of range for {len(chunks)} chunks")
    proofs = _cut(levels, len(chunks), indices)
    return proofs[0] if isinstance(index, int) else proofs


def _cut(levels: list[list[Digest]], n: int, indices: range) -> ProofSet:
    """The proofs of ``indices`` in the tree of n leaves ``_tree`` built."""
    below_root = levels[:-1]
    # lists, not generators: a list comprehension resumes no generator frame per item
    return ProofSet([MerkleProof(i, n, tuple([lv[(i >> k) ^ 1] for k, lv in enumerate(below_root)])) for i in indices])


def proof_root(chunk: bytes, proof: MerkleProof) -> Digest | None:
    """The root that folding sha256(chunk) with the proof siblings reaches,
    or None for a malformed proof (bad index, wrong sibling count,
    non-digest siblings).

    The bit decomposition of leaf_index decides left/right at each level.
    """
    if proof.leaf_count < 1 or not 0 <= proof.leaf_index < proof.leaf_count:
        return None
    if len(proof.siblings) != _levels(proof.leaf_count):
        return None
    acc = hash_bytes(chunk)
    pos = proof.leaf_index
    for sib in proof.siblings:
        if not isinstance(sib, bytes) or len(sib) != DIGEST_SIZE:
            return None
        if pos % 2 == 0:
            acc = hash_bytes(acc + sib)
        else:
            acc = hash_bytes(sib + acc)
        pos //= 2
    return acc


def verify_chunk(chunk: bytes, proof: MerkleProof, root: Digest) -> bool:
    """True iff folding sha256(chunk) with the proof siblings reproduces
    root (``proof_root``). Malformed proofs return False rather than
    raising.
    """
    return proof_root(chunk, proof) == root
