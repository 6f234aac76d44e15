"""Proof-of-work chain tests: mining, validation, fork choice, reorg reports."""

import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from conftest import (
    EDITOR_A,
    EDITOR_B,
    make_add,
    make_delete,
    make_edit,
    random_mutation_batch,
    raw_block,
    rebuild_registry,
)
from ethercouch import ledger
from ethercouch.codec import lp
from ethercouch.crypto import ZERO_DIGEST, hash_bytes, payload_root
from ethercouch.ledger import (
    Block,
    ChainState,
    DbFunction,
    Task,
    TxRejected,
    lineage_of,
    meets_target,
    parse_block,
    parse_tx,
    serialize_tx,
    tx_digest,
)
from ethercouch.registry import DataRegistry


def fresh(difficulty=0, **kw):
    return ChainState(difficulty_bits=difficulty, **kw)


# -- serialization ------------------------------------------------------


def test_tx_roundtrip():
    for tx in (
        make_add(b"payload"),
        make_add(b"payload", inline=True),
        make_edit(hash_bytes(b"lin"), 2, b"new"),
        make_delete(hash_bytes(b"lin"), 3),
    ):
        assert parse_tx(serialize_tx(tx)) == tx


def test_tx_digest_is_stable_and_distinct():
    a = make_add(b"one")
    b = make_add(b"two")
    assert tx_digest(a) == tx_digest(a)
    assert tx_digest(a) != tx_digest(b)


def test_block_roundtrip():
    state = fresh()
    state.submit_tx(make_add(b"data"))
    block = state.mine_block(EDITOR_A)
    parsed = parse_block(block.preimage())
    assert parsed == block


def test_inline_payload_absent_vs_empty():
    absent = make_delete(hash_bytes(b"l"), 2)
    assert parse_tx(serialize_tx(absent)).inline_payload is None
    present = DbFunction(
        Task.ADD,
        data_hash=hash_bytes(b""),
        editor_hash=EDITOR_A,
        topic_id=ZERO_DIGEST,
        sequence_id=1,
        inline_payload=b"",
    )
    assert parse_tx(serialize_tx(present)).inline_payload == b""


# -- the identity a tx carries ------------------------------------------


def reference_bytes(tx: DbFunction) -> bytes:
    """The README's tx layout, written out field by field."""
    payload = b"\x00" if tx.inline_payload is None else b"\x01" + tx.inline_payload
    fields = (bytes([tx.task.value]), tx.data_hash, tx.editor_hash, tx.topic_id, tx.sequence_id.to_bytes(8, "big"), tx.lineage, payload)
    return b"".join(lp(f) for f in fields)


def identity_cases() -> list[DbFunction]:
    lin = hash_bytes(b"lin")
    return [
        make_add(b"payload"),
        make_add(b"payload", inline=True),
        make_edit(lin, 2, b"new"),
        make_edit(lin, 2, b"new", inline=True),
        make_delete(lin, 3),
    ]


def test_a_tx_carries_its_digest_and_document_id_whether_built_or_parsed():
    for built in identity_cases():
        buf = reference_bytes(built)
        parsed = parse_tx(buf)
        for tx in (built, parsed):
            assert serialize_tx(tx) == buf
            # a parsed tx's digest is the hash of the bytes it arrived in
            assert tx_digest(tx) == hash_bytes(serialize_tx(tx)) == hash_bytes(buf)
            assert lineage_of(tx) == (hash_bytes(buf) if tx.task is Task.ADD else tx.lineage)
            # a hash-anchored record keeps its fixed-size bytes; a chain-only
            # one keeps none, so its inline payload is held once
            if tx.inline_payload is None:
                assert tx.raw == buf and len(buf) == 166
            else:
                assert tx.raw is None
        assert built == parsed and hash(built) == hash(parsed)
        again = DbFunction(
            built.task, built.data_hash, built.editor_hash, built.topic_id, built.sequence_id, built.lineage, built.inline_payload
        )
        assert again == built and hash(again) == hash(built) and len({built, parsed, again}) == 1


def test_txs_that_differ_in_one_field_are_unequal():
    base = make_edit(hash_bytes(b"lin"), 2, b"new", inline=True)
    other = hash_bytes(b"other")
    fields = dict(
        task=base.task, data_hash=base.data_hash, editor_hash=base.editor_hash, topic_id=base.topic_id,
        sequence_id=base.sequence_id, lineage=base.lineage, inline_payload=base.inline_payload,
    )
    changes = dict(
        task=Task.DELETE, data_hash=other, editor_hash=other, topic_id=other, sequence_id=3, lineage=other, inline_payload=None,
    )
    for name, value in changes.items():
        changed = DbFunction(**{**fields, name: value})
        assert changed != base and parse_tx(serialize_tx(changed)) != base, name
        assert tx_digest(changed) != tx_digest(base), name
    assert DbFunction(**{**fields, "inline_payload": b""}) != DbFunction(**{**fields, "inline_payload": None})


def test_sequence_id_must_fit_its_eight_bytes():
    top = make_delete(hash_bytes(b"lin"), 2**64 - 1)
    parsed = parse_tx(serialize_tx(top))
    assert parsed == top and parsed.sequence_id == 2**64 - 1
    for seq in (2**64, -1):
        with pytest.raises(ValueError):
            make_delete(hash_bytes(b"lin"), seq)


def test_mining_encodes_each_tx_once_not_once_per_nonce(monkeypatch):
    # a hash-anchored record is never re-encoded (it keeps its bytes); an
    # inline tx is encoded once for the whole nonce search and once more
    # when the found block hashes its fields, and at difficulty 0 nothing
    # is searched, so only the block's own hash encodes it
    for difficulty, encodes_per_inline_tx in ((12, 2), (0, 1)):
        state = fresh(difficulty=difficulty)
        rng = random.Random(12)
        for i in range(100):
            state.submit_tx(make_add(rng.randbytes(16), inline=i % 2 == 0))
        encoded = []
        real = ledger.serialize_tx
        monkeypatch.setattr(ledger, "serialize_tx", lambda tx: encoded.append(tx) or real(tx))
        block = state.mine_block(EDITOR_A)
        monkeypatch.undo()
        assert len(block.txs) == 100
        assert block.nonce > 1000 if difficulty else block.nonce == 0  # thousands of attempts at 12
        inline = [t for t in block.txs if t.inline_payload is not None]
        assert len(inline) == 50
        assert Counter(encoded) == {t: encodes_per_inline_tx for t in inline}
        raw = block.preimage()
        parsed = parse_block(raw)
        assert parsed == block and parsed.block_hash == block.block_hash == hash_bytes(raw)
        assert meets_target(block.block_hash, difficulty)


def random_txs(rng: random.Random, n: int) -> list[DbFunction]:
    """Valid chained mutations; about a third of adds and edits carry their
    payload inline, some of them empty."""
    txs = []
    for tx in random_mutation_batch(rng, n)[0]:
        if tx.task is not Task.DELETE and rng.random() < 0.35:
            payload = rng.randbytes(rng.choice((0, 1, 40, 300)))
            tx = DbFunction(tx.task, payload_root(payload), tx.editor_hash, tx.topic_id, tx.sequence_id, tx.lineage, payload)
        txs.append(tx)
    return txs


def test_canonical_bytes_are_the_only_encoding():
    rng = random.Random(41)
    txs = random_txs(rng, 300)
    for tx in txs:
        buf = serialize_tx(tx)
        parsed = parse_tx(buf)
        assert serialize_tx(parsed) == buf
        assert tx_digest(parsed) == hash_bytes(buf) == tx_digest(tx)
    state = fresh(difficulty=4)
    for start in range(0, len(txs), 40):
        blocks = [
            raw_block(state, hash_bytes(b"%d" % start), start, txs[start : start + rng.randint(0, 40)]),
            state._mine_raw(hash_bytes(b"p"), start + 1, EDITOR_B, tuple(txs[start : start + 7])),
        ]
        for blk in blocks:
            buf = blk.preimage()
            parsed = parse_block(buf)
            assert parsed == blk
            assert parsed.preimage() == buf == blk.preimage()
            assert parsed.block_hash == hash_bytes(buf) == blk.block_hash


def test_absent_payload_with_trailing_bytes_is_refused():
    tx = make_delete(hash_bytes(b"lin"), 3)
    buf = serialize_tx(tx)
    assert buf.endswith(b"\x00\x00\x00\x01\x00")  # the absent-payload field
    for junk in (b"\x00", b"junk", b"\x01" + b"x" * 40):
        with pytest.raises(ValueError):
            parse_tx(buf[:-5] + lp(b"\x00" + junk))
    with pytest.raises(ValueError):
        parse_tx(buf[:-5] + lp(b"\x02"))


def test_mined_parsed_and_hand_built_blocks_are_their_fields():
    # however a block is made, it holds its five fields and the hash of their
    # canonical bytes, and nothing else: no copy of the bytes it was hashed
    # from or arrived in
    state = fresh(difficulty=8)
    state.submit_tx(make_add(b"kept", inline=True))
    state.submit_tx(make_add(b"anchored"))
    mined = state.mine_block(EDITOR_A)
    buf = bytes(bytearray(mined.preimage()))  # a copy of its own
    parsed = parse_block(buf)
    rebuilt = Block(mined.parent, mined.height, mined.nonce, mined.miner, mined.txs)
    fields = {"parent", "height", "nonce", "miner", "txs", "block_hash"}
    for block in (mined, parsed, rebuilt):
        assert block.preimage() == buf
        assert block.preimage() is not block.preimage()  # serialized afresh on each call
        assert block.block_hash == hash_bytes(block.preimage()) == hash_bytes(buf)
        assert set(vars(block)) == fields
        assert block == mined
        assert state.validate_block(block) == (True, "ok")


def test_a_block_takes_no_hash_and_refuses_a_parent_or_miner_of_another_width():
    state = fresh()
    block = state.mine_block(EDITOR_A)
    args = (block.parent, block.height, block.nonce, block.miner, block.txs)
    with pytest.raises(TypeError):
        Block(*args, block.block_hash)
    with pytest.raises(TypeError):
        Block(*args, block_hash=block.block_hash)
    # a parent or miner of any other width is refused when the block is
    # built, not padded or cut
    for width in (31, 33):
        for parent, miner in ((bytes(width), EDITOR_A), (block.parent, bytes(width))):
            with pytest.raises(ValueError):
                Block(parent, 1, 0, miner, ())


# -- submission ---------------------------------------------------------


def test_submit_valid_add():
    state = fresh()
    tx = make_add(b"doc")
    state.submit_tx(tx)
    assert state.mempool == [tx]


def test_submit_idempotent_on_duplicates():
    state = fresh()
    tx = make_add(b"doc")
    state.submit_tx(tx)
    state.submit_tx(tx)
    assert len(state.mempool) == 1


def test_submit_edit_with_sequence_one_rejected():
    state = fresh()
    add = make_add(b"doc")
    state.submit_tx(add)
    bad = make_edit(lineage_of(add), 1, b"v2")
    with pytest.raises(TxRejected) as e:
        state.submit_tx(bad)
    assert e.value.reason == "stale-sequence"


def test_submit_validates_against_mempool_chain():
    state = fresh()
    add = make_add(b"doc")
    state.submit_tx(add)
    # edit chains onto the queued add even though nothing is mined yet
    state.submit_tx(make_edit(lineage_of(add), 2, b"v2"))
    assert len(state.mempool) == 2
    with pytest.raises(TxRejected):
        state.submit_tx(make_edit(lineage_of(add), 2, b"v2b"))


def test_submit_rejects_inline_hash_mismatch():
    state = fresh()
    tx = DbFunction(
        Task.ADD,
        data_hash=hash_bytes(b"not the payload"),
        editor_hash=EDITOR_A,
        topic_id=ZERO_DIGEST,
        sequence_id=1,
        inline_payload=b"payload",
    )
    with pytest.raises(TxRejected) as e:
        state.submit_tx(tx)
    assert e.value.reason == "inline-hash-mismatch"


# -- mining -------------------------------------------------------------


def test_mine_difficulty_zero_accepts_nonce_zero():
    state = fresh()
    state.submit_tx(make_add(b"doc"))
    block = state.mine_block(EDITOR_A)
    assert block.nonce == 0
    assert state.validate_block(block)[0]


def test_mine_block_on_an_empty_queue_mines_an_empty_block():
    state = fresh()
    block = state.mine_block(EDITOR_A)
    assert block.txs == ()
    assert state.validate_block(block)[0]


def test_mean_nonce_attempts_at_difficulty_eight():
    # geometric search with p = 2^-8: expectation 256 attempts per block
    state = ChainState(difficulty_bits=8)
    attempts = []
    for _ in range(100):
        block = state.mine_block(EDITOR_A)
        attempts.append(block.nonce + 1)
        state.adopt_block(block)
        assert meets_target(block.block_hash, 8)
    mean = sum(attempts) / len(attempts)
    assert 128 <= mean <= 512


def test_mine_takes_fifo_prefix_and_mempool_retains_rest():
    state = fresh()
    txs = [make_add(bytes([i]) * 8) for i in range(3)]
    for tx in txs:
        state.submit_tx(tx)
    block = state.mine_block(EDITOR_A, max_txs=2)
    assert list(block.txs) == txs[:2]
    state.adopt_block(block)
    assert state.mempool == [txs[2]]


# -- validation ---------------------------------------------------------


def test_validate_fresh_block():
    state = fresh()
    state.submit_tx(make_add(b"doc"))
    block = state.mine_block(EDITOR_A)
    assert state.validate_block(block) == (True, "ok")


def test_validate_rejects_tampered_nonce():
    # a block with another nonce is another block: it gets its own hash,
    # which at difficulty 12 misses the target
    state = fresh(difficulty=12)
    state.submit_tx(make_add(b"doc"))
    block = state.mine_block(EDITOR_A)
    assert state.validate_block(block) == (True, "ok")
    tampered = Block(block.parent, block.height, block.nonce + 1, block.miner, block.txs)
    assert tampered.block_hash != block.block_hash
    assert tampered.block_hash == hash_bytes(tampered.preimage())
    assert state.validate_block(tampered) == (False, "pow-target")
    # with no target to miss, the same change makes a block that is valid
    state = fresh()
    state.submit_tx(make_add(b"doc"))
    block = state.mine_block(EDITOR_A)
    tampered = Block(block.parent, block.height, block.nonce + 1, block.miner, block.txs)
    assert tampered.block_hash != block.block_hash
    assert state.validate_block(tampered) == (True, "ok")


def test_validate_rejects_add_with_sequence_two():
    state = fresh()
    bad = DbFunction(
        Task.ADD,
        data_hash=hash_bytes(b"x"),
        editor_hash=EDITOR_A,
        topic_id=ZERO_DIGEST,
        sequence_id=2,
    )
    block = raw_block(state, state.tip, 1, [bad])
    ok, reason = state.validate_block(block)
    assert not ok
    assert reason.startswith("tx-invalid")


def test_validate_rejects_pow_miss():
    state = ChainState(difficulty_bits=8)
    # the first nonce whose block misses the target
    nonce = 0
    while True:
        fake = Block(state.tip, 1, nonce, EDITOR_A, ())
        if not meets_target(fake.block_hash, 8):
            break
        nonce += 1
    assert state.validate_block(fake) == (False, "pow-target")


# -- adoption and fork choice -------------------------------------------


def test_adopt_extends_tip():
    state = fresh()
    tx = make_add(b"doc")
    state.submit_tx(tx)
    block = state.mine_block(EDITOR_A)
    report = state.adopt_block(block)
    assert state.tip == block.block_hash
    assert report.rolled_back == []
    assert report.applied == [(tx, 1, 0)]
    assert state.mempool == []


def test_competing_blocks_tie_break_on_hash():
    state = fresh()
    a = raw_block(state, state.tip, 1, [make_add(b"a")], miner=EDITOR_A)
    b = raw_block(state, state.tip, 1, [make_add(b"b")], miner=EDITOR_B)
    hi, lo = (a, b) if a.block_hash > b.block_hash else (b, a)
    state.adopt_block(hi)
    assert state.tip == hi.block_hash
    report = state.adopt_block(lo)
    assert state.tip == lo.block_hash
    assert report.rolled_back == list(hi.txs)
    assert [tx for tx, _, _ in report.applied] == list(lo.txs)


def test_two_block_branch_beats_one_block_chain():
    state = fresh()
    old = raw_block(state, state.tip, 1, [make_add(b"old")])
    state.adopt_block(old)
    n1 = raw_block(state, state.genesis.block_hash, 1, [make_add(b"n1")], miner=EDITOR_B)
    n2 = raw_block(state, n1.block_hash, 2, [make_add(b"n2")], miner=EDITOR_B)
    state.adopt_block(n1)
    assert state.tip == oracle_tip(state.blocks)  # height tie resolved by hash
    report = state.adopt_block(n2)
    assert state.tip == n2.block_hash
    if report.tip_changed:
        assert [tx for tx, _, _ in report.applied[-1:]] == list(n2.txs)
    # old branch txs are back in the mempool
    assert state.mempool == list(old.txs)


def test_orphan_buffered_until_parent_arrives():
    state = fresh()
    b1 = raw_block(state, state.tip, 1, [make_add(b"one")])
    b2 = raw_block(state, b1.block_hash, 2, [make_add(b"two")])
    report = state.adopt_block(b2)
    assert not report.tip_changed
    assert state.tip == state.genesis.block_hash
    report = state.adopt_block(b1)
    assert state.tip == b2.block_hash
    assert [tx for tx, _, _ in report.applied] == list(b1.txs) + list(b2.txs)


def oracle_tip(blocks: dict) -> bytes:
    """Brute force: enumerate every connected block, pick the head of the
    longest chain, breaking ties by smaller hash."""
    best = None
    for h, blk in blocks.items():
        cur = blk
        connected = True
        while cur.parent != ZERO_DIGEST:
            if cur.parent not in blocks:
                connected = False
                break
            cur = blocks[cur.parent]
        if not connected:
            continue
        key = (-blk.height, h)
        if best is None or key < best:
            best = key
    return best[1]


def test_fork_choice_matches_oracle_all_orderings_three_blocks():
    base = fresh()
    a = raw_block(base, base.tip, 1, [make_add(b"a")])
    b = raw_block(base, base.tip, 1, [make_add(b"b")], miner=EDITOR_B)
    c = raw_block(base, a.block_hash, 2, [make_add(b"c")])
    for order in itertools.permutations([a, b, c]):
        state = fresh()
        for blk in order:
            state.adopt_block(blk)
        assert state.tip == oracle_tip(state.blocks)
        # total tx order is a function of the chain only
        assert [t for t, _, _ in state.canonical_txs()] == [a.txs[0], c.txs[0]]


def test_fork_choice_matches_oracle_random_fixtures():
    rng = random.Random(2024)
    for trial in range(30):
        base = fresh()
        blocks = []
        # grow a random tree of up to 5 blocks over genesis
        nodes = [(base.genesis.block_hash, 0)]
        for i in range(5):
            parent, h = rng.choice(nodes)
            blk = raw_block(
                base,
                parent,
                h + 1,
                [make_add(f"fix-{trial}-{i}".encode())],
                miner=rng.choice([EDITOR_A, EDITOR_B]),
            )
            nodes.append((blk.block_hash, h + 1))
            blocks.append(blk)
        rng.shuffle(blocks)
        state = fresh()
        for blk in blocks:
            state.adopt_block(blk)
            assert state.tip == oracle_tip(state.blocks)


def test_equal_tips_report_equal_tx_sequences():
    base = fresh()
    a = raw_block(base, base.tip, 1, [make_add(b"a1"), make_add(b"a2")])
    b = raw_block(base, a.block_hash, 2, [make_add(b"b1")])
    s1, s2 = fresh(), fresh()
    s1.adopt_block(a)
    s1.adopt_block(b)
    s2.adopt_block(b)  # orphan first
    s2.adopt_block(a)
    assert s1.tip == s2.tip
    assert list(s1.canonical_txs()) == list(s2.canonical_txs())



def replay(tree: dict, digest: bytes) -> DataRegistry:
    """Reference: fold the path from genesis to digest into a fresh
    registry, skipping transactions invalid in their place."""
    path = []
    while digest in tree:
        path.append(tree[digest])
        digest = tree[digest].parent
    reg = DataRegistry()
    for blk in reversed(path):
        for i, tx in enumerate(blk.txs):
            if reg.fork_view().validate(tx) == "ok":
                reg.apply(tx, blk.height, i)
    return reg


def replay_verdict(tree: dict, blk) -> tuple[bool, str]:
    reg = replay(tree, blk.parent)
    for i, tx in enumerate(blk.txs):
        reason = reg.fork_view().validate(tx)
        if reason != "ok":
            return (False, f"tx-invalid:{reason}")
        reg.apply(tx, blk.height, i)
    return (True, "ok")


def test_fork_parent_validation_matches_replay_from_genesis():
    rng = random.Random(77)
    verdicts = Counter()
    fork_checks = 0
    for trial in range(20):
        base = fresh()
        tree = {base.genesis.block_hash: base.genesis}
        for _ in range(10):
            parent = rng.choice(list(tree.values()))
            # now and then build on another block's state, or repeat its
            # records, so that whether a block is valid depends on its branch
            context = parent if rng.random() < 0.6 else rng.choice(list(tree.values()))
            if context.txs and rng.random() < 0.25:
                txs = list(context.txs)
            else:
                reg = replay(tree, context.block_hash)
                live = {lin: reg.latest(lin)[0] + 1 for lin in reg.lineages() if not reg.latest(lin)[1]}
                txs, _ = random_mutation_batch(rng, rng.randint(1, 3), live=live)
            blk = raw_block(base, parent.block_hash, parent.height + 1, txs, miner=rng.choice([EDITOR_A, EDITOR_B]))
            tree[blk.block_hash] = blk
        lineages = {lineage_of(tx) for blk in tree.values() for tx in blk.txs}
        order = [blk for blk in tree.values() if blk != base.genesis]
        rng.shuffle(order)
        state = fresh()
        for adopted in order:
            state.adopt_block(adopted)
            # the canonical switch applies unchecked, yet folds as a replay
            assert state.registry.dump_text() == rebuild_registry(state).dump_text()
            for blk in order:
                if blk.parent in state.blocks:
                    verdict = state.validate_block(blk)
                    assert verdict == replay_verdict(tree, blk)
                    verdicts[verdict[1]] += 1
                    fork_checks += blk.parent != state.tip
            canonical = state.canonical_blocks()
            for h in range(len(canonical)):
                prefix = [(tx, b.height, i) for b in canonical[: h + 1] for i, tx in enumerate(b.txs)]
                ref = rebuild_registry(SimpleNamespace(canonical_txs=lambda: iter(prefix)))
                view = state.registry.fork_view(h)
                assert {lin: view.latest(lin) for lin in lineages} == {lin: ref.latest(lin) for lin in lineages}
        # exactly the blocks whose whole path is valid were stored
        stored = {base.genesis.block_hash}
        grown = True
        while grown:
            grown = False
            for blk in order:
                if blk.block_hash not in stored and blk.parent in stored and replay_verdict(tree, blk)[0]:
                    stored.add(blk.block_hash)
                    grown = True
        assert set(state.blocks) == stored
    # the trees exercised every sequence rule on fork parents
    assert fork_checks > 100
    for reason in ("ok", "unknown-lineage", "stale-sequence", "duplicate-add", "already-deleted"):
        assert any(v.endswith(reason) for v in verdicts), reason


def assert_mempool_invariant(state: ChainState, lineages: set) -> None:
    """The queue is valid, in order, on top of the canonical registry, the
    speculative state is that fold, and mining takes exactly a prefix. The
    fold starts from a registry rebuilt from the chain, because the
    speculative state reads through the live one."""
    view = rebuild_registry(state).fork_view()
    for tx in state.mempool:
        if tx.inline_payload is not None:
            assert payload_root(tx.inline_payload, state.chunk_size) == tx.data_hash
        assert view.validate(tx) == "ok"
        view.apply(tx)
    assert {lin: view.latest(lin) for lin in lineages} == {lin: state.speculative_latest(lin) for lin in lineages}
    for k in {1, len(state.mempool) // 2 + 1, len(state.mempool)} if state.mempool else ():
        assert state.mine_block(EDITOR_A, max_txs=k).txs == tuple(state.mempool[:k])


def requeued(state: ChainState, report, queued: list) -> list:
    """Reference queue after an adoption: the rolled-back, then the queued
    txs that the new branch did not apply, each kept if it is valid, in
    order, on a registry folded afresh from the canonical chain."""
    if not report.tip_changed:
        return queued
    applied = {tx_digest(tx) for tx, _, _ in report.applied}
    view = rebuild_registry(state).fork_view()
    kept = []
    for tx in report.rolled_back + queued:
        inline_ok = tx.inline_payload is None or payload_root(tx.inline_payload, state.chunk_size) == tx.data_hash
        if tx_digest(tx) not in applied and inline_ok and view.validate(tx) == "ok":
            view.apply(tx)
            kept.append(tx)
    return kept


def live_next(latest_of, lineages: set) -> dict:
    """Next sequence number of every lineage that ``latest_of`` reads live."""
    live = {}
    for lin in sorted(lineages):
        latest = latest_of(lin)
        if latest is not None and not latest[1]:
            live[lin] = latest[0] + 1
    return live


def submit_some(rng: random.Random, state: ChainState, lineages: set) -> None:
    """Queue valid txs (some chain-only) and check that a wrong inline hash,
    a repeated sequence number and an unknown lineage are refused."""
    live = live_next(state.speculative_latest, lineages)
    txs, payloads = random_mutation_batch(rng, rng.randint(1, 5), live=live)
    if rng.random() < 0.3:
        txs.append(make_add(rng.randbytes(rng.randint(0, 64)), inline=True))
    for tx in txs:
        if tx.task is Task.EDIT and rng.random() < 0.3:
            tx = DbFunction(tx.task, tx.data_hash, tx.editor_hash, tx.topic_id, tx.sequence_id, tx.lineage, payloads[tx.data_hash])
        state.submit_tx(tx)
        lineages.add(lineage_of(tx))
    wrong = DbFunction(Task.ADD, payload_root(b"other"), EDITOR_A, ZERO_DIGEST, 1, ZERO_DIGEST, b"claimed")
    rejects = [(wrong, "inline-hash-mismatch"), (make_edit(hash_bytes(b"no such doc"), 2, b"x"), "unknown-lineage")]
    for lin, seq in sorted(live.items())[:1]:
        wrong = DbFunction(Task.EDIT, payload_root(b"other"), EDITOR_A, ZERO_DIGEST, seq, lin, b"claimed")
        rejects += [(wrong, "inline-hash-mismatch"), (make_edit(lin, seq - 1, b"stale"), "stale-sequence")]
    for tx, reason in rejects:
        with pytest.raises(TxRejected) as e:
            state.submit_tx(tx)
        assert e.value.reason == reason


def rival_branch(rng: random.Random, state: ChainState, fork: int, length: int, lineages: set) -> list:
    """``length`` blocks by another miner on the canonical block at height
    ``fork``. Each takes a random selection of the old branch's and the
    queue's txs that is valid on the branch, then foreign txs on top."""
    old = [tx for blk in state.canonical_blocks()[fork + 1 :] for tx in blk.txs]
    candidates = (old if rng.random() < 0.5 else []) + state.mempool
    parent = state.blocks[state.canonical_hashes[fork]]
    view = replay(state.blocks, parent.block_hash).fork_view()
    branch = []
    for _ in range(length):
        share = rng.choice((0.0, 0.5, 1.0))
        txs = []
        for tx in candidates:
            if rng.random() < share and view.validate(tx) == "ok":
                view.apply(tx)
                txs.append(tx)
        if rng.random() < 0.5:
            foreign, _ = random_mutation_batch(rng, rng.randint(1, 2), editors=(EDITOR_B,), live=live_next(view.latest, lineages))
            for tx in foreign:
                view.apply(tx)
                lineages.add(lineage_of(tx))
            txs += foreign
        parent = raw_block(state, parent.block_hash, parent.height + 1, txs, miner=EDITOR_B)
        branch.append(parent)
    return branch


def test_mempool_stays_valid_on_the_canonical_chain():
    rng = random.Random(12)
    paths = Counter()
    for _trial in range(15):
        state = fresh()
        lineages: set = set()
        for _ in range(30):
            roll = rng.random()
            if roll < 0.3 or not state.mempool:
                submit_some(rng, state, lineages)
                blocks = []
            elif roll < 0.55:
                blocks = [state.mine_block(EDITOR_A, max_txs=rng.randint(1, len(state.mempool)))]
            else:
                # a rival tip block, or a branch from below the tip that is
                # longer or (then won on hash or not at all) as long
                fork = state.height if roll < 0.75 else rng.randint(max(0, state.height - 3), state.height)
                extra = 1 if roll < 0.9 else 0
                blocks = rival_branch(rng, state, fork, state.height - fork + extra, lineages)
            for blk in blocks:
                queued = list(state.mempool)
                report = state.adopt_block(blk)
                applied = [tx for tx, _, _ in report.applied]
                assert state.mempool == requeued(state, report, queued)
                if not report.tip_changed:
                    paths["kept"] += 1
                elif report.rolled_back:
                    paths["rollback"] += 1
                    paths["reinserted"] += any(tx in state.mempool for tx in report.rolled_back)
                elif applied == queued[: len(applied)]:
                    paths["prefix"] += 1
                elif set(applied) <= set(queued):
                    paths["filtered"] += 1
                else:
                    paths["foreign"] += 1
                paths["dropped"] += any(tx not in state.mempool and tx not in applied for tx in queued)
            assert_mempool_invariant(state, lineages)
    assert min(paths[p] for p in ("kept", "rollback", "reinserted", "prefix", "filtered", "foreign", "dropped")) >= 5, paths


# -- confirmations ------------------------------------------------------


def test_confirmations():
    state = fresh()
    tx = make_add(b"doc")
    state.submit_tx(tx)
    assert state.confirmations(tx) == 0
    block = state.mine_block(EDITOR_A)
    state.adopt_block(block)
    assert state.confirmations(tx) == 1
    for i in range(3):
        state.submit_tx(make_add(f"filler-{i}".encode()))
        state.adopt_block(state.mine_block(EDITOR_A))
    assert state.confirmations(tx) == 4
    unknown = make_add(b"never submitted")
    assert state.confirmations(unknown) == 0
    # an edit, whose lineage is not its own digest, counts as an add does
    edit = make_edit(lineage_of(tx), 2, b"doc v2")
    state.submit_tx(edit)
    assert state.confirmations(edit) == 0
    state.adopt_block(state.mine_block(EDITOR_A))
    assert (state.confirmations(edit), state.confirmations(tx)) == (1, 5)
    # another tx with the same lineage and seq is not the one on chain
    assert state.confirmations(make_edit(lineage_of(tx), 2, b"rival v2")) == 0
    # a longer branch from below the edit, without it
    b5 = raw_block(state, state.canonical_hashes[4], 5, [make_add(b"branch-5")], miner=EDITOR_B)
    b6 = raw_block(state, b5.block_hash, 6, [make_add(b"branch-6")], miner=EDITOR_B)
    state.adopt_block(b5)
    state.adopt_block(b6)
    assert state.tip == b6.block_hash
    assert (state.confirmations(edit), state.confirmations(tx)) == (0, 6)
    # mined again on the new branch, it counts from its new height
    assert state.mempool == [edit]
    state.adopt_block(state.mine_block(EDITOR_A))
    assert state.confirmations(edit) == 1
    state.submit_tx(make_add(b"filler-on-branch"))
    state.adopt_block(state.mine_block(EDITOR_A))
    assert (state.confirmations(edit), state.confirmations(tx)) == (2, 8)


# -- determinism --------------------------------------------------------


def drive(state: ChainState) -> None:
    for i in range(4):
        state.submit_tx(make_add(f"doc-{i}".encode()))
    state.adopt_block(state.mine_block(EDITOR_A, max_txs=3))
    add = make_add(b"chained")
    state.submit_tx(add)
    state.submit_tx(make_edit(lineage_of(add), 2, b"chained-v2"))
    state.adopt_block(state.mine_block(EDITOR_B))


def test_replay_is_bit_identical():
    s1, s2 = fresh(), fresh()
    drive(s1)
    drive(s2)
    assert s1.tip == s2.tip
    assert s1.mempool == s2.mempool
    assert s1.dump_text() == s2.dump_text()
    assert [b.preimage() for b in s1.canonical_blocks()] == [
        b.preimage() for b in s2.canonical_blocks()
    ]


def test_chain_save_load_roundtrip(tmp_path):
    state = fresh()
    drive(state)
    path = tmp_path / "chain.bin"
    state.save(path)
    loaded = ChainState.load(path)
    assert loaded.tip == state.tip
    assert loaded.dump_text() == state.dump_text()


def test_genesis_shared_across_instances():
    assert fresh().genesis == fresh().genesis
    assert ChainState(difficulty_bits=8).genesis == ChainState(difficulty_bits=8).genesis
    assert meets_target(ChainState(difficulty_bits=8).genesis.block_hash, 8)


def test_load_checks_the_file_genesis_before_mining_one(tmp_path, monkeypatch):
    state = ChainState(difficulty_bits=12)
    path = tmp_path / "chain.bin"
    state.save(path)
    buf = path.read_bytes()
    declared = lp(lp(b"\x00" * 7 + bytes([12])))[4:]
    assert buf[8 : 8 + len(declared)] == declared
    # the same chain declaring 20 bits: its genesis misses that target
    assert not meets_target(state.genesis.block_hash, 20)
    path.write_bytes(buf[:8] + lp(bytes(7) + bytes([20])) + buf[8 + len(declared) :])

    def no_mining(*_args):
        raise AssertionError("mined a genesis for a file that cannot match it")

    monkeypatch.setattr(ChainState, "_mine_raw", no_mining)
    with pytest.raises(ValueError, match="genesis mismatch"):
        ChainState.load(path)
    for bad_header in (lp(bytes(7) + bytes([33])), b""):
        path.write_bytes(buf[:8] + bad_header)
        with pytest.raises(ValueError):
            ChainState.load(path)
