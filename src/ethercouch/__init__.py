"""Blockchain-anchored document replication for permissionless peer-to-peer networks.

Two storage architectures over one toy proof-of-work ledger:

- chain-only: document payloads live inline in ledger transactions, so the
  chain itself is the data store;
- hash-anchored (the "ethercouch" mode): the chain carries only fixed-size
  mutation records (task, data hash, editor, topic, sequence) while every
  peer keeps the payloads, with full revision history, in a local document
  store and fetches them off-chain, storing no byte before the joined
  chunks hash to the on-chain merkle root.

A deterministic discrete-event simulator drives multi-peer scenarios
(latency, downtime, partitions, mining), and a benchmark harness measures
bulk-insert scaling of both architectures against a plain in-memory
baseline.
"""

from .crypto import (
    DEFAULT_CHUNK_SIZE,
    DIGEST_SIZE,
    ZERO_DIGEST,
    Digest,
    MerkleProof,
    chunk_payload,
    digest_from_hex,
    digest_hex,
    hash_bytes,
    merkle_prove,
    merkle_root,
    payload_root,
    verify_chunk,
)

__version__ = "0.1.0"
