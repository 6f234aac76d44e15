"""Data registry and peer directory tests."""

import random
import tracemalloc

import pytest

from conftest import (
    EDITOR_A,
    EDITOR_B,
    make_add,
    make_delete,
    make_edit,
    random_mutation_batch,
    rebuild_registry,
)
from ethercouch.crypto import hash_bytes
from ethercouch.ledger import ChainState, lineage_of
from ethercouch.registry import (
    ALREADY_DELETED,
    DUPLICATE_ADD,
    OK,
    STALE_SEQUENCE,
    UNKNOWN_LINEAGE,
    DataRegistry,
    LocationRegistry,
    UnknownPeer,
)


def applied(reg: DataRegistry, tx, h=1, i=0):
    assert reg.fork_view().validate(tx) == OK
    reg.apply(tx, h, i)


# -- validate_tx --------------------------------------------------------


def test_add_on_fresh_lineage_ok():
    reg = DataRegistry()
    assert reg.fork_view().validate(make_add(b"doc")) == OK


def test_edit_increments_by_one():
    reg = DataRegistry()
    add = make_add(b"doc")
    applied(reg, add)
    edit = make_edit(lineage_of(add), 2, b"v2")
    assert reg.fork_view().validate(edit) == OK
    reg.apply(edit, 2, 0)
    # replaying the same revision number is stale
    assert reg.fork_view().validate(make_edit(lineage_of(add), 2, b"v2x")) == STALE_SEQUENCE


def test_edit_after_delete_is_rejected():
    reg = DataRegistry()
    add = make_add(b"doc")
    applied(reg, add)
    applied(reg, make_delete(lineage_of(add), 2), 2, 0)
    assert reg.fork_view().validate(make_edit(lineage_of(add), 3, b"zombie")) == ALREADY_DELETED


def test_unknown_lineage_and_duplicate_add():
    reg = DataRegistry()
    assert reg.fork_view().validate(make_edit(hash_bytes(b"nope"), 2, b"x")) == UNKNOWN_LINEAGE
    add = make_add(b"doc")
    applied(reg, add)
    assert reg.fork_view().validate(add) == DUPLICATE_ADD


def test_sequence_gap_is_stale():
    reg = DataRegistry()
    add = make_add(b"doc")
    applied(reg, add)
    assert reg.fork_view().validate(make_edit(lineage_of(add), 3, b"skip")) == STALE_SEQUENCE


# -- rebuild ------------------------------------------------------------


def test_rebuild_empty_chain():
    chain = ChainState(difficulty_bits=0)
    reg = rebuild_registry(chain)
    assert reg.entries == [] == chain.registry.entries


def test_rebuild_add_edit_delete_single_lineage():
    chain = ChainState(difficulty_bits=0)
    add = make_add(b"doc")
    chain.submit_tx(add)
    chain.submit_tx(make_edit(lineage_of(add), 2, b"v2"))
    chain.submit_tx(make_delete(lineage_of(add), 3))
    chain.adopt_block(chain.mine_block(EDITOR_A))
    for reg in (chain.registry, rebuild_registry(chain)):
        assert len(reg.entries) == 3
        assert reg.latest(lineage_of(add)) == (3, True)


def test_rebuild_equals_incremental_on_random_chain():
    rng = random.Random(11)
    chain = ChainState(difficulty_bits=0)
    txs, _ = random_mutation_batch(rng, 50)
    i = 0
    while i < len(txs):
        batch = txs[i : i + rng.randint(1, 6)]
        for tx in batch:
            chain.submit_tx(tx)
        chain.adopt_block(chain.mine_block(EDITOR_A, max_txs=len(batch)))
        i += len(batch)
    rebuilt = rebuild_registry(chain)
    # the chain's own registry was maintained incrementally through adoption
    assert rebuilt.entries == chain.registry.entries
    assert rebuilt.dump_text() == chain.registry.dump_text()
    for lineage in rebuilt.lineages():
        assert rebuilt.latest(lineage) == chain.registry.latest(lineage)


def test_rebuild_after_reorg_equals_incremental():
    from conftest import raw_block

    chain = ChainState(difficulty_bits=0)
    a = make_add(b"reorg-doc")
    b1 = raw_block(chain, chain.tip, 1, [a])
    chain.adopt_block(b1)
    c = make_add(b"other-doc")
    n1 = raw_block(chain, chain.genesis.block_hash, 1, [c], miner=EDITOR_B)
    n2 = raw_block(chain, n1.block_hash, 2, [make_edit(lineage_of(c), 2, b"v2", editor=EDITOR_B)], miner=EDITOR_B)
    chain.adopt_block(n1)
    chain.adopt_block(n2)
    rebuilt = rebuild_registry(chain)
    assert rebuilt.entries == chain.registry.entries
    assert rebuilt.dump_text() == chain.registry.dump_text()


# -- fork views ---------------------------------------------------------


def _grown_registry(heights: int, adds_per_height: int, seed: int = 5) -> DataRegistry:
    """adds_per_height new lineages per height, plus edits and deletes of
    random live lineages, some hit twice in one height."""
    rng = random.Random(seed)
    reg = DataRegistry()
    live: list[list] = []  # [lineage, latest seq]
    for height in range(1, heights + 1):
        index = 0
        for k in range(adds_per_height):
            add = make_add(b"%d:%d" % (height, k))
            applied(reg, add, height, index)
            live.append([lineage_of(add), 1])
            index += 1
        for k in range(10):
            pick = rng.randrange(len(live))
            lineage, seq = live[pick]
            if k % 5 == 4:
                applied(reg, make_delete(lineage, seq + 1), height, index)
                live[pick] = live[-1]
                live.pop()
            else:
                applied(reg, make_edit(lineage, seq + 1, b"e%d:%d" % (height, k)), height, index)
                live[pick][1] = seq + 1
            index += 1
    return reg


class _ChainUpTo:
    """The registry's entries up to a height, as a chain to rebuild from."""

    def __init__(self, reg: DataRegistry, height: int):
        self.reg, self.height = reg, height

    def canonical_txs(self):
        return ((e.tx, e.height, e.index) for e in self.reg.entries if e.height <= self.height)


def _allocated(make_view):
    """The view make_view returns, and the peak bytes allocated making it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        view = make_view()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return view, peak - before


def test_fork_views_copy_nothing_and_read_the_registry_at_their_height():
    # 20,000 lineages over 200 heights: a view that copied the lineage map
    # would allocate about 1.3 MB, whatever its height
    tip = 200
    reg = _grown_registry(tip, 100)
    lineages = reg.lineages()
    assert len(lineages) == tip * 100
    small, per_entry = 4096, 256
    for make_view in (reg.fork_view, lambda: reg.fork_view(tip)):
        view, size = _allocated(make_view)
        assert size < small
        assert all(view.latest(lin) == reg.latest(lin) for lin in lineages)
    for height in (tip - 1, 150, 57, 1, 0):
        above = sum(e.height > height for e in reg.entries)
        view, size = _allocated(lambda: reg.fork_view(height))
        assert size < small + per_entry * above, (height, above, size)
        rebuilt = rebuild_registry(_ChainUpTo(reg, height))
        assert all(view.latest(lin) == rebuilt.latest(lin) for lin in lineages)
    # applying to a view leaves the registry and later views as they were
    deleted = reg.entries[-1]
    view = reg.fork_view(tip - 1)
    assert view.validate(deleted.tx) == OK
    view.apply(deleted.tx)
    assert view.latest(deleted.tx.doc_id) == reg.latest(deleted.tx.doc_id) == (deleted.tx.sequence_id, True)
    fresh = make_add(b"not on chain")
    view.apply(fresh)
    assert reg.latest(lineage_of(fresh)) is None and reg.fork_view().latest(lineage_of(fresh)) is None
    below_tip = rebuild_registry(_ChainUpTo(reg, tip - 1))
    assert reg.fork_view(tip - 1).latest(deleted.tx.doc_id) == below_tip.latest(deleted.tx.doc_id)


# -- queries ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_query_by_lineage_matches_a_scan_across_rollbacks(seed):
    rng = random.Random(seed)
    reg = DataRegistry()
    seen = set()
    height = 0
    for _ in range(60):
        if reg.entries and rng.random() < 0.3:
            height = rng.randint(0, height)
            reg.rollback_to_height(height)
        else:
            height += 1
            for index in range(rng.randint(1, 6)):
                tx = _random_op(rng, reg)
                if reg.fork_view().validate(tx) == OK:
                    reg.apply(tx, height, index)
                    seen.add(lineage_of(tx))
        for lineage in seen | {hash_bytes(b"never seen")}:
            scan = [e for e in reg.entries if e.tx.doc_id == lineage]
            assert reg.query_by_lineage(lineage) == scan
            for s in range(len(scan) + 2):
                assert reg.entry(lineage, s) == next((e for e in scan if e.tx.sequence_id == s), None)
    assert any(not reg.query_by_lineage(lineage) for lineage in seen)  # some were rolled away


# -- location registry --------------------------------------------------


def loc(name: str) -> tuple[bytes, str]:
    return hash_bytes(name.encode()), name


def test_register_and_lookup():
    reg = LocationRegistry()
    reg.register_peer(*loc("node-1"))
    assert reg.all_peers.get(hash_bytes(b"node-1")) == "node-1"
    assert reg.all_peers.get(hash_bytes(b"ghost")) is None


def test_reregistration_updates_location():
    reg = LocationRegistry()
    editor = hash_bytes(b"node-1")
    reg.register_peer(editor, "addr-old")
    reg.register_peer(editor, "addr-new")
    assert reg.all_peers.get(editor) == "addr-new"


def test_unbounded_registration():
    reg = LocationRegistry()
    for i in range(101):
        reg.register_peer(*loc(f"peer-{i}"))
    assert len(reg.all_peers) == 101


def test_mark_up_to_date_and_tip_eviction():
    reg = LocationRegistry()
    reg.register_peer(*loc("a"))
    reg.register_peer(*loc("b"))
    tip1, tip2 = hash_bytes(b"tip-1"), hash_bytes(b"tip-2")
    reg.mark_up_to_date(hash_bytes(b"a"), tip1)
    assert reg.up_to_date_peers() == ["a"]
    reg.mark_up_to_date(hash_bytes(b"b"), tip2)
    assert reg.up_to_date_peers() == ["b"]
    # marking the current tip again adds to its set instead of evicting it
    reg.mark_up_to_date(hash_bytes(b"a"), tip2)
    assert reg.up_to_date_peers() == ["b", "a"]


def test_mark_unregistered_peer_fails():
    reg = LocationRegistry()
    with pytest.raises(UnknownPeer):
        reg.mark_up_to_date(hash_bytes(b"ghost"), hash_bytes(b"tip"))


def test_up_to_date_peer_index_zero_semantics():
    reg = LocationRegistry()
    for name in ("a", "b"):
        reg.register_peer(*loc(name))
    tip = hash_bytes(b"tip")
    reg.mark_up_to_date(hash_bytes(b"a"), tip)
    reg.mark_up_to_date(hash_bytes(b"b"), tip)
    assert reg.up_to_date_peers()[:1] == ["a"]
    # eviction by a new tip leaves only the fresh reporter
    reg.mark_up_to_date(hash_bytes(b"b"), hash_bytes(b"tip2"))
    assert reg.up_to_date_peers()[:1] == ["b"]


def test_empty_up_to_date_set():
    reg = LocationRegistry()
    assert reg.up_to_date_peers()[:1] == []


def test_location_token_length_capped():
    with pytest.raises(ValueError):
        LocationRegistry().register_peer(hash_bytes(b"x"), "y" * 33)


def test_sequence_monotonicity_property():
    # accepted sequences per lineage are exactly 1..latest with no gaps
    rng = random.Random(5)
    reg = DataRegistry()
    coord = 0
    for _ in range(300):
        tx = _random_op(rng, reg)
        if reg.fork_view().validate(tx) == OK:
            reg.apply(tx, coord, 0)
            coord += 1
    per_lineage = {}
    for e in reg.entries:
        per_lineage.setdefault(e.tx.doc_id, []).append(e.tx.sequence_id)
    for lineage, seqs in per_lineage.items():
        assert seqs == list(range(1, len(seqs) + 1))
        assert reg.latest(lineage)[0] == seqs[-1]


def _random_op(rng, reg):
    lineages = reg.lineages()
    roll = rng.random()
    if not lineages or roll < 0.3:
        return make_add(rng.randbytes(16))
    lineage = rng.choice(lineages)
    latest, _deleted = reg.latest(lineage)
    # half the time aim correctly, half the time aim anywhere
    seq = latest + 1 if rng.random() < 0.5 else rng.randint(1, latest + 3)
    if roll < 0.8:
        return make_edit(lineage, seq, rng.randbytes(16))
    return make_delete(lineage, seq)
