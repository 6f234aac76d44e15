"""The proof-of-work ledger: mining, validation, forks, reorg reports.

Every mutation record is mined into a block; the canonical chain is the
longest valid one (ties to the smaller tip hash). When a better branch
shows up, the adoption report says exactly which transactions rolled back
and which applied, so the document store can repair itself.

Usage:
    python demos/02_proof_of_work_ledger.py
"""

from ethercouch.crypto import digest_hex, hash_bytes, payload_root
from ethercouch.ledger import ChainState, DbFunction, Task, tx_digest


def make_add(text: bytes, editor: bytes) -> DbFunction:
    return DbFunction(
        task=Task.ADD,
        data_hash=payload_root(text, 4096),
        editor_hash=editor,
        topic_id=hash_bytes(b"topic:demo"),
        sequence_id=1,
    )


def main():
    print("=" * 64)
    print("Proof-of-work ledger with longest-chain fork choice")
    print("=" * 64)

    alice, bob = hash_bytes(b"peer:alice"), hash_bytes(b"peer:bob")

    print("\n[1] mine a few real blocks at difficulty 10 (leading zero bits)")
    chain = ChainState(difficulty_bits=10)
    for i in range(3):
        chain.submit_tx(make_add(f"document {i}".encode(), alice))
        block = chain.mine_block(alice)
        report = chain.adopt_block(block)
        print(
            f"    height {block.height}: nonce={block.nonce:>5} "
            f"hash={digest_hex(block.block_hash)[:20]}... "
            f"applied {len(report.applied)} tx"
        )

    print("\n[2] confirmations deepen as blocks stack on top")
    tx = make_add(b"watch this one", alice)
    chain.submit_tx(tx)
    print(f"    in mempool: {chain.confirmations(tx)} confirmations")
    chain.adopt_block(chain.mine_block(alice))
    print(f"    mined:      {chain.confirmations(tx)} confirmation")
    chain.submit_tx(make_add(b"one more on top", alice))
    chain.adopt_block(chain.mine_block(alice))
    print(f"    one deeper: {chain.confirmations(tx)} confirmations")

    print("\n[3] a competing longer branch wins and reports the reorg")
    fork = ChainState(difficulty_bits=4)
    a1 = make_add(b"ours", alice)
    fork.submit_tx(a1)
    fork.adopt_block(fork.mine_block(alice))
    print(f"    our tip:   h={fork.height} {digest_hex(fork.tip)[:20]}... (tx {digest_hex(tx_digest(a1))[:12]})")

    rival = ChainState(difficulty_bits=4)
    rival.submit_tx(make_add(b"theirs 1", bob))
    rival.adopt_block(rival.mine_block(bob))
    rival.submit_tx(make_add(b"theirs 2", bob))
    rival.adopt_block(rival.mine_block(bob))

    rolled_back, applied = [], []
    for block in rival.canonical_blocks()[1:]:
        report = fork.adopt_block(block)
        rolled_back += report.rolled_back
        applied += [tx for tx, _, _ in report.applied]
    print(f"    rival tip: h={fork.height} {digest_hex(fork.tip)[:20]}...")
    print(f"    rolled back: {[digest_hex(tx_digest(t))[:12] for t in rolled_back]}")
    print(f"    applied:     {[digest_hex(tx_digest(t))[:12] for t in applied]}")
    print(f"    rolled-back tx is waiting in the mempool again: {fork.in_mempool(a1)}")

    print("\nThe longest valid chain always wins; nothing is lost, only re-queued.")


if __name__ == "__main__":
    main()
