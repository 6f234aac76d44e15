"""Simulator tests: determinism, delivery rules, mining fairness."""

import ast
import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

from conftest import build_convergence_scenario
from ethercouch.bench import verify_pair
from ethercouch.crypto import hash_bytes, payload_root
from ethercouch.ledger import DbFunction, Task
from ethercouch.peer import FetchState, Mode, PeerConfig, topic_hash
from ethercouch.simnet import (
    Scenario,
    ScriptAction,
    Simulation,
    deterministic_bytes,
    run_scenario,
    scenario_from_json,
)
from ethercouch.wire import BlockAnnounce, BlockRequest, Refusal, Response, decode_message, describe, encode_message


def three_peer_scenario(seed=1, **kw):
    return Scenario(
        seed=seed,
        peers=[PeerConfig(name=f"p{i}") for i in range(3)],
        script=[
            ScriptAction(5, "publish", "p0", {"doc": "a", "topic": "news", "size": 200}),
            ScriptAction(40, "edit", "p1", {"doc": "a", "size": 180}),
            ScriptAction(90, "publish", "p2", {"doc": "b", "topic": "ops", "size": 150}),
        ],
        latency=(1, 5),
        mean_block_interval=30,
        **kw,
    )


def test_empty_script_leaves_genesis_only():
    scenario = Scenario(seed=9, peers=[PeerConfig(name="p0"), PeerConfig(name="p1")])
    result = run_scenario(scenario, until=1000)
    for peer in result.peers.values():
        assert peer.chain.height == 0
        assert not peer.store.docs
    assert result.clock == 0  # nothing ever happened


def test_same_seed_gives_identical_trace_digest():
    r1 = run_scenario(three_peer_scenario(seed=5), until=20000)
    r2 = run_scenario(three_peer_scenario(seed=5), until=20000)
    assert r1.trace.digest() == r2.trace.digest()
    assert r1.clock == r2.clock
    for name in r1.peers:
        assert r1.peer(name).store.snapshot_bytes() == r2.peer(name).store.snapshot_bytes()
        assert r1.peer(name).chain.dump_text() == r2.peer(name).chain.dump_text()


def test_adjacent_seeds_diverge():
    r1 = run_scenario(three_peer_scenario(seed=5), until=20000)
    r2 = run_scenario(three_peer_scenario(seed=6), until=20000)
    assert r1.trace.digest() != r2.trace.digest()


def heap_deliveries(sim) -> list[tuple]:
    """``(at, target, record)`` of each delivery queued on ``sim``'s heap."""
    return [(at, target, rec) for at, _, handler, target, rec in sim._heap if handler is Simulation._deliver]


def test_unit_latency_delivers_next_tick():
    scenario = Scenario(seed=1, peers=[PeerConfig(name="a"), PeerConfig(name="b")], latency=(1, 1))
    sim = Simulation(scenario)
    sim.send(sim.peers["a"], "b", BlockRequest(0))
    deliveries = heap_deliveries(sim)
    assert len(deliveries) == 1
    assert deliveries[0][0] == 1


def test_partitioned_pair_drops_and_logs():
    scenario = Scenario(
        seed=2,
        peers=[PeerConfig(name="a"), PeerConfig(name="b")],
        script=[ScriptAction(0, "partition", "", {"groups": [["a"], ["b"]]})],
    )
    sim = Simulation(scenario)
    sim.run(until=0)  # applies the partition
    sim.send(sim.peers["a"], "b", BlockRequest(0))
    assert heap_deliveries(sim) == []
    assert any("partitioned" in line for line in sim.trace.lines)


def test_offline_recipient_drops_no_replay():
    scenario = Scenario(
        seed=3,
        peers=[PeerConfig(name="a"), PeerConfig(name="b")],
        script=[ScriptAction(0, "offline", "b", {})],
    )
    sim = Simulation(scenario)
    sim.run(until=0)
    sim.send(sim.peers["a"], "b", BlockRequest(0))
    assert heap_deliveries(sim) == []
    assert any("offline" in line and "drop" in line for line in sim.trace.lines)


@pytest.mark.parametrize(
    "offline, names, encodes",
    [
        ((), None, 1),
        (("p1",), None, 1),
        (("p1", "p2"), None, 1),
        (("p1", "p2", "p3"), None, 0),
        (("p2",), ("p2", "p3"), 1),
        (("p3",), ("p3",), 0),
        ((), ("p0", "p1"), 1),
    ],
    # the cases without ``names`` keep the ids they had before it was added
    ids=["offline0-1", "offline1-1", "offline2-1", "offline3-0", "names-one-offline", "names-all-offline", "names-with-sender"],
)
def test_broadcast_encodes_once_for_all_reachable_recipients(monkeypatch, offline, names, encodes):
    import ethercouch.simnet as simnet

    calls = []

    def counting_encode(msg):
        calls.append(msg)
        return encode_message(msg)

    monkeypatch.setattr(simnet, "encode_message", counting_encode)
    sim = Simulation(Scenario(seed=4, peers=[PeerConfig(name=f"p{i}") for i in range(4)]))
    for name in offline:
        sim.peers[name].online = False
    msg = BlockRequest(3)
    sim.broadcast(sim.peers["p0"], msg, names)
    deliveries = heap_deliveries(sim)
    named = [f"p{i}" for i in range(1, 4)] if names is None else names
    assert len(calls) == encodes
    assert sorted(target for _, target, _ in deliveries) == [name for name in named if name not in offline and name != "p0"]
    assert all(rec is deliveries[0][2] for _, _, rec in deliveries)
    assert all(rec["raw"] == encode_message(msg) for _, _, rec in deliveries)
    assert sum(" drop " in line for line in sim.trace.lines) == len(offline)


def test_broadcast_describes_once_for_all_dropped_and_delivered_copies(monkeypatch):
    import ethercouch.simnet as simnet

    described = []
    monkeypatch.setattr(simnet, "describe", lambda msg: described.append(msg) or describe(msg))
    sim = Simulation(Scenario(seed=4, peers=[PeerConfig(name=f"p{i}") for i in range(5)], latency=(1, 1)))
    sim.peers["p1"].online = sim.peers["p3"].online = False
    sim.broadcast(sim.peers["p0"], BlockRequest(3))
    sim.run(until=1)  # the two arrivals, not their answers
    drops = [line for line in sim.trace.lines if " drop " in line]
    recvs = [line for line in sim.trace.lines if " recv " in line]
    assert len(drops) == len(recvs) == 2 and len(described) == 1
    assert all(line.endswith(" offline blockreq from=3") for line in drops)
    assert all(line.endswith(": blockreq from=3") for line in recvs)


def count_codec_calls(monkeypatch):
    """Count the simulator's encodes and decodes; returns the two lists."""
    import ethercouch.simnet as simnet

    encoded, decoded = [], []

    def counting_encode(msg):
        encoded.append(msg)
        return encode_message(msg)

    def counting_decode(raw, *blocks):
        decoded.append(raw)
        return decode_message(raw, *blocks)

    monkeypatch.setattr(simnet, "encode_message", counting_encode)
    monkeypatch.setattr(simnet, "decode_message", counting_decode)
    return encoded, decoded


def record_deliveries(monkeypatch, sim):
    """Replace every peer's message handler; returns the (peer, msg) list."""
    got = []
    for name, peer in sim.peers.items():
        monkeypatch.setattr(peer, "handle_message", lambda msg, sender, name=name: got.append((name, msg)))
    return got


@pytest.mark.parametrize("offline_at_arrival", [(), ("p3",)])
def test_broadcast_is_parsed_once_for_all_recipients(monkeypatch, offline_at_arrival):
    encoded, decoded = count_codec_calls(monkeypatch)
    sim = Simulation(Scenario(seed=4, peers=[PeerConfig(name=f"p{i}") for i in range(4)]))
    got = record_deliveries(monkeypatch, sim)
    msg = Refusal(hash_bytes(b"lin"), 2, "not-held")
    sim.broadcast(sim.peers["p0"], msg)
    for name in offline_at_arrival:
        sim.peers[name].online = False
    sim.run()
    recv = [line.split(": ", 1)[1] for line in sim.trace.lines if " recv " in line]
    dropped = [line.split("offline-at-arrival ", 1)[1] for line in sim.trace.lines if "offline-at-arrival" in line]
    assert len(encoded) == 1 and len(decoded) == 1
    assert recv == [describe(msg)] * (3 - len(offline_at_arrival))
    assert dropped == [describe(msg)] * len(offline_at_arrival)
    assert sorted(name for name, _ in got) == [f"p{i}" for i in range(1, 4) if f"p{i}" not in offline_at_arrival]
    # recipients share one message parsed from the wire bytes, never the sender's object
    fresh = decode_message(decoded[0])
    assert all(m is got[0][1] and m is not msg and m == fresh == msg for _, m in got)


def test_push_payload_is_encoded_and_parsed_once_for_all_up_to_date_peers(monkeypatch):
    sim = Simulation(Scenario(seed=4, peers=[PeerConfig(name=f"p{i}") for i in range(4)], chunk_size=1024))
    alice = sim.peers["p0"]
    payload = deterministic_bytes("push", 5000)
    tx = DbFunction(Task.ADD, payload_root(payload, 1024), alice.editor_hash, topic_hash("news"), 1)
    alice.store.stage(tx.data_hash, payload, tx.doc_id)
    for name in ("p1", "p2"):
        sim.location.mark_up_to_date(sim.peers[name].editor_hash, alice.chain.tip)
    encoded, decoded = count_codec_calls(monkeypatch)
    got = record_deliveries(monkeypatch, sim)
    alice._push_payload(tx, alice._push_recipients())
    deliveries = heap_deliveries(sim)
    assert sorted(target for _, target, _ in deliveries) == ["p1", "p2"]
    assert deliveries[0][2] is deliveries[1][2]
    sim.run()
    assert len(encoded) == 1 and len(decoded) == 1
    assert sorted(name for name, _ in got) == ["p1", "p2"]
    fresh = decode_message(decoded[0])
    assert isinstance(fresh, Response) and len(fresh.chunks) == 5
    assert all(m is got[0][1] and m == fresh for _, m in got)


def test_a_block_delivered_twice_is_parsed_once(monkeypatch):
    import ethercouch.wire as wire

    parsed = []
    real_parse = wire.parse_block
    monkeypatch.setattr(wire, "parse_block", lambda *a: parsed.append(a[0]) or real_parse(*a))
    sim = Simulation(Scenario(seed=4, peers=[PeerConfig(name=f"p{i}") for i in range(3)]))
    alice = sim.peers["p0"]
    alice.publish(Task.ADD, topic_hash("news"), b"one block, two deliveries")
    block = alice.chain.mine_block(alice.editor_hash)
    sim._heap.clear()
    got = record_deliveries(monkeypatch, sim)
    # two separate encodings of the same block, as two catch-up batches send it
    sim.send(alice, "p1", BlockAnnounce(block))
    sim.send(alice, "p2", BlockAnnounce(block))
    sim.run()
    assert len(parsed) == 1 and len(got) == 2
    assert got[0][1] is not got[1][1] and got[0][1].block is got[1][1].block
    assert got[0][1].block == block and got[0][1].block.block_hash == block.block_hash
    # one changed byte (the nonce's last) is another block, parsed on its own
    raw = bytearray(encode_message(BlockAnnounce(block)))
    raw[5 + 4 + 32 + 4 + 8 + 4 + 7] ^= 1
    other = decode_message(bytes(raw), sim._blocks).block
    assert len(parsed) == 2 and other.nonce == block.nonce ^ 1 and other.block_hash != block.block_hash
    assert decode_message(bytes(raw), sim._blocks).block is other and len(parsed) == 2
    # a malformed body (a 33-byte parent width) still raises, and is never kept
    bad = bytearray(encode_message(BlockAnnounce(block)))
    bad[5 + 3] ^= 1
    known = dict(sim._blocks)
    for _ in range(2):
        with pytest.raises(ValueError):
            decode_message(bytes(bad), sim._blocks)
    assert sim._blocks == known and len(parsed) == 4


def test_trace_times_non_decreasing():
    result = run_scenario(three_peer_scenario(seed=7), until=20000)
    times = []
    for line in result.trace.lines:
        head = line.split()[0]
        if head.isdigit():
            times.append(int(head))
    assert times == sorted(times)


def test_a_script_entry_runs_before_every_event_of_its_tick():
    # a harmless entry (one group holding every peer) put at a delivery's
    # tick and at a mining completion's tick must come first at that tick,
    # and leave every other line as it was; payloads are given as data, so
    # they do not depend on the entries' indices
    def scenario(marks=()):
        sc = three_peer_scenario(seed=7)
        for act in sc.script:
            act.args["data"] = f"{act.action} {act.args['doc']}"
        sc.script = sorted(sc.script + list(marks), key=lambda a: a.at)
        return sc

    base = run_scenario(scenario())
    recv_tick = next(line[:7] for line in base.trace.lines if line[8:12] == "recv")
    mine_tick = next(line[:7] for line in base.trace.lines if " mined h=" in line)
    assert recv_tick != mine_tick
    marks = [ScriptAction(int(t), "partition", "", {"groups": [["p0", "p1", "p2"]]}) for t in (recv_tick, mine_tick)]
    lines = run_scenario(scenario(marks)).trace.lines
    for tick in (recv_tick, mine_tick):
        at_tick = [line for line in lines if line[:7] == tick]
        assert at_tick[0].endswith("event partition [['p0', 'p1', 'p2']]") and len(at_tick) > 1
    assert [line for line in lines if " event partition " not in line] == base.trace.lines


def test_stepping_one_tick_at_a_time_matches_one_run():
    # late entries come after the network has gone quiet, so stepping also
    # runs script entries while the heap is empty
    def scenario():
        sc = three_peer_scenario(seed=3)
        sc.script += [
            ScriptAction(3000, "edit", "p0", {"doc": "b", "size": 90}),
            ScriptAction(3000, "publish", "p1", {"doc": "c", "topic": "news", "size": 60}),
            ScriptAction(6000, "delete", "p2", {"doc": "a"}),
        ]
        return sc

    whole = run_scenario(scenario())
    sim = Simulation(scenario())
    quiet_before_entry = 0
    for t in range(whole.clock + 1):
        if t in (3000, 6000):
            # no delivery, mining completion or poll is scheduled
            quiet_before_entry += not sim._heap
        stepped = sim.run(until=t)
    assert quiet_before_entry == 2
    stepped_clock = stepped.clock  # read before the run below moves it
    assert sim.run().clock == stepped_clock == whole.clock
    assert stepped.trace.digest() == whole.trace.digest()
    assert sum(" user " in line for line in whole.trace.lines) == 6
    for name, peer in whole.peers.items():
        assert stepped.peer(name).chain.dump_text() == peer.chain.dump_text()
        assert stepped.peer(name).store.snapshot_bytes() == peer.store.snapshot_bytes()


def test_every_trace_line_is_stamped_with_the_clock_and_a_padded_name():
    # a name longer than the 8-column field, ticks past the 7-column one and
    # a run resumed several times: no corpus case reaches any of these
    names = ["ab", "alexandria", "p2"]

    def scenario():
        return Scenario(
            seed=12,
            peers=[PeerConfig(name=n) for n in names],
            script=[
                ScriptAction(5, "publish", "ab", {"doc": "a", "topic": "news", "size": 90}),
                ScriptAction(9_999_990, "publish", "alexandria", {"doc": "b", "topic": "news", "size": 70}),
                ScriptAction(10_000_000, "offline", "p2"),
                ScriptAction(10_000_000, "edit", "ab", {"doc": "a", "size": 60}),
                ScriptAction(10_000_003, "partition", "", {"groups": [["ab"], ["alexandria"]]}),
                ScriptAction(10_000_400, "heal"),
                ScriptAction(10_000_900, "online", "p2"),
                ScriptAction(12_345_678, "delete", "alexandria", {"doc": "b"}),
            ],
            latency=(1, 5),
            mean_block_interval=30,
        )

    whole = run_scenario(scenario())
    sim = Simulation(scenario())
    stamped = []  # (clock, line) of every trace line, as it is written
    sim.trace.add = lambda line: stamped.append((sim.clock, line)) or sim.trace.lines.append(line)
    for until in (0, 5, 9_999_999, 10_000_000, 10_000_401, 11_000_000, None):
        sim.run(until)
    assert sim.trace.digest() == whole.trace.digest()
    assert [line for _, line in stamped] == sim.trace.lines
    kinds = set()
    for tick, line in stamped:
        kind, name = line.split()[1:3]
        kinds.add(kind)
        if kind == "drop":
            assert line.startswith(f"{tick:>7} drop  "), line
        elif name not in ("partition", "heal"):
            assert name in names and line.startswith(f"{tick:>7} {kind:<5} {name:<8} "), line
    assert kinds == {"recv", "note", "drop", "user", "event", "skip"}
    assert any(line.startswith("12345678 ") for _, line in stamped)
    assert any(line.startswith("      5 ") for _, line in stamped)
    assert any(" alexandria " in line for _, line in stamped)


def test_a_quiet_network_mines_until_its_last_blocks_are_confirmed_at_depth_two():
    # a lone peer with nothing queued still mines while a mutation awaits
    # depth 2, and stops once none does
    scenario = Scenario(
        seed=8,
        peers=[PeerConfig(name="node0", confirmation_depth=2)],
        script=[
            ScriptAction(0, "publish", "node0", {"doc": "a", "topic": "t"}),
            ScriptAction(2000, "publish", "node0", {"doc": "b", "topic": "t"}),
        ],
        mean_block_interval=50,
    )
    sim = Simulation(scenario)
    result = sim.run(until=1_000_000)
    node = result.peer("node0")
    assert not sim._heap and result.clock < 1_000_000
    a, b = sim.doc_lineages["a"], sim.doc_lineages["b"]
    assert set(node.store.docs) == {a, b}
    assert not node.pending and not node.chain.mempool
    # each add's block and one empty block on top of it
    assert node.chain.height == 4
    assert [len(blk.txs) for blk in node.chain.canonical_blocks()[1:]] == [1, 0, 1, 0]


def test_mining_shares_follow_weights():
    # two miners at 3:1 bury one publish 420 deep: canonical share within 5 points
    scenario = Scenario(
        seed=11,
        peers=[PeerConfig(name="heavy", confirmation_depth=420), PeerConfig(name="light", confirmation_depth=420)],
        mining_power={"heavy": 3.0, "light": 1.0},
        script=[ScriptAction(5, "publish", "heavy", {"doc": "d", "topic": "t"})],
        latency=(1, 3),
        mean_block_interval=100,
    )
    result = run_scenario(scenario, until=42_000)
    chain = result.peer("heavy").chain
    miners = [b.miner for b in chain.canonical_blocks()[1:]]
    assert len(miners) >= 400
    heavy = result.peer("heavy").editor_hash
    share = sum(1 for m in miners if m == heavy) / len(miners)
    assert abs(share - 0.75) <= 0.05


@pytest.mark.parametrize("seed", range(5))
def test_a_quiet_network_at_depth_three_applies_every_mutation_and_stops(seed):
    # two adds, an edit and a delete, then nothing: the peers mine empty
    # blocks until the last mutation is 3 deep. The horizon only guards
    # the test; the run ends long before it, with an empty heap.
    horizon = 100_000
    scenario = Scenario(
        seed=seed,
        peers=[PeerConfig(name=f"p{i}", confirmation_depth=3) for i in range(3)],
        script=[
            ScriptAction(5, "publish", "p0", {"doc": "a", "topic": "t"}),
            ScriptAction(10, "publish", "p1", {"doc": "b", "topic": "t"}),
            ScriptAction(400, "edit", "p2", {"doc": "a"}),
            ScriptAction(900, "delete", "p1", {"doc": "b"}),
        ],
        latency=(1, 5),
        mean_block_interval=50,
    )
    sim = Simulation(scenario)
    result = sim.run(until=horizon)
    assert not sim._heap and result.clock < horizon // 10
    a, b = sim.doc_lineages["a"], sim.doc_lineages["b"]
    assert len({p.chain.tip for p in result.peers.values()}) == 1
    assert len({p.store.dump_text() for p in result.peers.values()}) == 1
    for peer in result.peers.values():
        assert not peer.pending and not peer.chain.mempool and not peer.wants_mining()
        assert verify_pair(peer.chain, peer.store) == []
        assert [r.seq for r in peer.store.history(a)] == [1, 2]
        assert peer.store.get_active(a) is not None
        assert [r.seq for r in peer.store.history(b)] == [1, 2] and peer.store.get_active(b) is None


def test_a_script_notes_what_it_cannot_run():
    # the same bytes, topic and peer make the same add, which the ledger
    # refuses once mined; an edit or delete of a document no script entry
    # published is skipped
    scenario = Scenario(
        seed=3,
        peers=[PeerConfig(name="p0"), PeerConfig(name="p1")],
        script=[
            ScriptAction(5, "publish", "p0", {"doc": "a", "topic": "t", "data": "same bytes"}),
            ScriptAction(500, "publish", "p0", {"doc": "a2", "topic": "t", "data": "same bytes"}),
            ScriptAction(510, "edit", "p1", {"doc": "ghost", "data": "x"}),
            ScriptAction(520, "delete", "p1", {"doc": "ghost"}),
        ],
        latency=(1, 3),
        mean_block_interval=20,
    )
    sim = Simulation(scenario)
    result = sim.run(until=100_000)
    assert not sim._heap
    assert result.peer("p0").chain.height >= 1
    notes = [line.split(None, 3)[3] for line in result.trace.lines if " note " in line]
    assert "publish a2 rejected: duplicate-add" in notes
    assert "edit ghost: unknown document, skipped" in notes
    assert "delete ghost: unknown document, skipped" in notes
    assert set(sim.doc_lineages) == {"a"}
    for peer in result.peers.values():
        assert len(peer.store.docs) == 1 and not peer.chain.mempool


def test_zero_weight_miner_never_mines():
    scenario = Scenario(
        seed=12,
        peers=[PeerConfig(name="worker"), PeerConfig(name="idle")],
        mining_power={"worker": 1.0, "idle": 0.0},
        script=[ScriptAction(5, "publish", "idle", {"doc": "d", "topic": "news", "size": 64})],
        latency=(1, 3),
        mean_block_interval=20,
    )
    result = run_scenario(scenario, until=20000)
    idle_editor = result.peer("idle").editor_hash
    for peer in result.peers.values():
        assert all(b.miner != idle_editor for b in peer.chain.canonical_blocks())
    # the publish still landed, mined by the worker
    assert result.peer("idle").store.payload_bytes() == 64


def test_scenario_validation_rejects_malformed():
    with pytest.raises(ValueError):
        Scenario(seed=1, peers=[]).validate()
    with pytest.raises(ValueError):
        Scenario(seed=1, peers=[PeerConfig(name="a"), PeerConfig(name="a")]).validate()
    with pytest.raises(ValueError):
        Scenario(seed=1, peers=[PeerConfig(name="a")], latency=(5, 2)).validate()
    with pytest.raises(ValueError):
        Scenario(seed=1, peers=[PeerConfig(name="a")], mining_power={"a": 0.0}).validate()
    with pytest.raises(ValueError):
        Scenario(
            seed=1,
            peers=[PeerConfig(name="a")],
            script=[ScriptAction(10, "publish", "a", {"doc": "d", "topic": "t"}), ScriptAction(5, "heal")],
        ).validate()
    with pytest.raises(ValueError):
        Scenario(
            seed=1,
            peers=[PeerConfig(name="a")],
            script=[ScriptAction(1, "publish", "ghost", {"doc": "d", "topic": "t"})],
        ).validate()
    two = [PeerConfig(name="a"), PeerConfig(name="b")]
    for bad, reason in [
        ({"mining_power": {"a": 1.0, "b": -1.0}}, "non-negative"),
        ({"mean_block_interval": 0}, "mean_block_interval"),
        ({"poll_interval": 0}, "poll_interval"),
        ({"script": [ScriptAction(1, "explode", "a")]}, "unknown action"),
    ]:
        with pytest.raises(ValueError, match=reason):
            Scenario(seed=1, peers=two, **bad).validate()
    base = json.loads(THREE_PEER_JSON)
    for key, value, reason in [
        ("mode", "plain", "'mode' must be one of"),
        ("latency", [1], r"'latency' must be \[min, max\]"),
        ("latency", [1, 2, 3], r"'latency' must be \[min, max\]"),
        ("latency", "1-5", "scenario 'latency' must be a list"),
        ("latency", [1, "5"], "scenario 'latency' bound must be an integer"),
        ("mean_block_interval", "30", "scenario 'mean_block_interval' must be an integer"),
    ]:
        doc = json.loads(THREE_PEER_JSON)
        if key == "mode":
            doc["peers"][0]["mode"] = value
        else:
            doc[key] = value
        with pytest.raises(ValueError, match=reason):
            scenario_from_json(json.dumps(doc))
    assert scenario_from_json(json.dumps(base)) == three_peer_scenario(seed=44)


def test_malformed_scenario_fails_before_any_event():
    scenario = Scenario(seed=1, peers=[])
    with pytest.raises(ValueError):
        Simulation(scenario)


@pytest.mark.parametrize("field", ["chunk_size", "max_txs_per_block"])
def test_scenario_refuses_a_zero_size(field):
    # a zero block capacity would mine empty blocks forever
    scenario = Scenario(seed=1, peers=[PeerConfig(name="p0")], **{field: 0})
    with pytest.raises(ValueError, match=field):
        Simulation(scenario)


THREE_PEER_JSON = """{
  "seed": 44,
  "peers": [
    {"name": "p0", "mode": "ethercouch", "topics": [], "confirmation_depth": 1},
    {"name": "p1", "mode": "ethercouch", "topics": [], "confirmation_depth": 1},
    {"name": "p2", "mode": "ethercouch", "topics": [], "confirmation_depth": 1}
  ],
  "mining_power": {},
  "latency": [1, 5],
  "mean_block_interval": 30,
  "poll_interval": 25,
  "difficulty_bits": 0,
  "chunk_size": 4096,
  "allow_empty_blocks": false,
  "max_txs_per_block": 100,
  "script": [
    {"at": 5, "action": "publish", "peer": "p0", "doc": "a", "topic": "news", "size": 200},
    {"at": 40, "action": "edit", "peer": "p1", "doc": "a", "size": 180},
    {"at": 90, "action": "publish", "peer": "p2", "doc": "b", "topic": "ops", "size": 150}
  ]
}"""


def test_scenario_file_reads_as_the_built_scenario():
    scenario = three_peer_scenario(seed=44)
    read = scenario_from_json(THREE_PEER_JSON)
    assert read == scenario
    # behaviourally identical: same trace digest
    r1 = run_scenario(scenario, until=20000)
    r2 = run_scenario(read, until=20000)
    assert r1.trace.digest() == r2.trace.digest()


def test_a_scenario_file_leaves_every_absent_setting_to_the_dataclass_default():
    read = scenario_from_json(json.dumps({"seed": 3, "peers": [{"name": "p0"}, {"name": "p1", "confirmation_depth": 2}]}))
    assert read == Scenario(seed=3, peers=[PeerConfig(name="p0"), PeerConfig(name="p1", confirmation_depth=2)])


def test_a_64_character_topic_is_a_digest_only_when_it_is_hex():
    digest = hash_bytes(b"some topic")
    name = "z" * 64  # 64 characters, but not hex: a topic name
    read = scenario_from_json(
        json.dumps({"seed": 1, "peers": [{"name": "p0", "topics": [digest.hex(), name, "news"]}]})
    )
    assert read.peers[0].topics == {digest, topic_hash(name), topic_hash("news")}


def test_deterministic_bytes_properties():
    a = deterministic_bytes("tag", 100)
    assert deterministic_bytes("tag", 100) == a
    assert deterministic_bytes("tag2", 100) != a
    assert len(deterministic_bytes("x", 7)) == 7


def test_chainonly_peers_converge_via_inline_payloads():
    scenario = Scenario(
        seed=51,
        peers=[PeerConfig(name=f"p{i}", mode=Mode.CHAIN_ONLY) for i in range(3)],
        script=[
            ScriptAction(5, "publish", "p0", {"doc": "a", "topic": "news", "size": 500}),
            ScriptAction(40, "edit", "p1", {"doc": "a", "size": 300}),
            ScriptAction(80, "delete", "p0", {"doc": "a"}),
            ScriptAction(90, "publish", "p2", {"doc": "b", "topic": "ops", "size": 200}),
        ],
        latency=(1, 4),
        mean_block_interval=30,
    )
    result = run_scenario(scenario, until=20000)
    dumps = {p.store.dump_text() for p in result.peers.values()}
    assert len(dumps) == 1
    # no off-chain payload requests were ever needed
    assert not any("request" in line for line in result.trace.lines)
    doc_b = result.peer("p0").store
    assert doc_b.payload_bytes() == 200  # doc a deleted, doc b live


@pytest.mark.parametrize("seed", [2, 50, 59, 87])
def test_a_chain_only_network_fetches_nothing(seed):
    # reorgs in these seeds revive deleted documents; a chain-only peer
    # refills their bytes from the chain's inline copies, never by a Request
    scenario = build_convergence_scenario(seed)
    scenario.peers = [dataclasses.replace(p, mode=Mode.CHAIN_ONLY) for p in scenario.peers]
    sim = Simulation(scenario).run()
    lines = sim.trace.lines
    assert not [line for line in lines if line[8:12] == "recv" and ": request " in line]
    assert any("refilled" in line for line in lines)
    assert sim._heap == []
    unfiltered = sim.unfiltered_peers()
    assert len({p.chain.tip for p in unfiltered}) == 1
    assert len({p.store.dump_text() for p in unfiltered}) == 1
    assert [v for p in sim.peers.values() for v in verify_pair(p.chain, p.store)] == []


def test_a_chain_only_receiver_holds_each_inline_payload_once():
    # the receiver's store keeps the very payload object its parsed tx
    # carries, and no block keeps the bytes it arrived in beside it
    scenario = Scenario(
        seed=7,
        peers=[PeerConfig(name=f"p{i}", mode=Mode.CHAIN_ONLY) for i in range(2)],
        mining_power={"p0": 1.0},
        script=[ScriptAction(5 + 10 * i, "publish", "p0", {"doc": f"d{i}", "topic": "news", "size": 4096}) for i in range(20)],
        latency=(1, 4),
        mean_block_interval=30,
    )
    sim = Simulation(scenario).run()
    receiver = sim.peer("p1")
    txs = {(tx.doc_id, tx.sequence_id): tx for tx, _, _ in receiver.chain.canonical_txs()}
    revisions = [(lineage, rev) for lineage, doc in receiver.store.docs.items() for rev in doc.revisions]
    assert len(revisions) == len(txs) == 20
    for lineage, rev in revisions:
        assert len(rev.payload) == 4096
        assert rev.payload is txs[(lineage, rev.seq)].inline_payload
    fields = {"parent", "height", "nonce", "miner", "txs", "block_hash"}
    assert all(set(vars(block)) == fields for block in receiver.chain.blocks.values())


def test_every_block_off_the_wire_is_filed_under_its_own_hash():
    sim = Simulation(build_convergence_scenario(0)).run(200_000)
    assert len(sim._blocks) > 10
    assert all(block.block_hash == h for h, block in sim._blocks.items())


def test_confirmation_depth_two_scenario_converges():
    scenario = Scenario(
        seed=52,
        peers=[PeerConfig(name=f"p{i}", confirmation_depth=2) for i in range(3)],
        script=[
            ScriptAction(5, "publish", "p0", {"doc": "a", "topic": "news", "size": 400}),
            ScriptAction(60, "edit", "p1", {"doc": "a", "size": 250}),
            ScriptAction(160, "publish", "p2", {"doc": "b", "topic": "news", "size": 150}),
            # trailing mutations keep blocks coming so depth 2 is reachable
            ScriptAction(260, "publish", "p0", {"doc": "c", "topic": "news", "size": 100}),
            ScriptAction(360, "publish", "p1", {"doc": "d", "topic": "news", "size": 100}),
        ],
        latency=(1, 4),
        mean_block_interval=30,
    )
    result = run_scenario(scenario, until=30000)
    stores = {p.store.dump_text() for p in result.peers.values()}
    assert len(stores) == 1
    sample = result.peer("p2").store
    # everything except possibly the newest block's txs reached the stores
    assert len(sample.docs) >= 3


def test_cross_process_determinism(tmp_path):
    import os
    import re
    import subprocess
    import sys as _sys
    import textwrap
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    build = textwrap.dedent(
        """
        from ethercouch.peer import PeerConfig
        from ethercouch.simnet import Scenario, ScriptAction, run_scenario
        s = Scenario(
            seed=99,
            peers=[PeerConfig(name=f"p{i}") for i in range(3)],
            script=[
                ScriptAction(5, "publish", "p0", {"doc": "a", "topic": "news", "size": 300}),
                ScriptAction(50, "edit", "p1", {"doc": "a", "size": 200}),
            ],
            latency=(1, 5),
            mean_block_interval=25,
        )
        """
    )
    prog = build + "print(run_scenario(s, until=20000).trace.digest())\n"
    digests = set()
    for hashseed in ("0", "31337"):
        proc = subprocess.run(
            [_sys.executable, "-c", prog],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": hashseed,
                "PATH": os.environ.get("PATH", os.defpath),
                "PYTHONPATH": str(root / "src"),
            },
            cwd=str(root),
        )
        assert proc.returncode == 0, proc.stderr
        digest = proc.stdout.strip()
        assert re.fullmatch(r"[0-9a-f]{64}", digest), proc.stdout
        digests.add(digest)
    assert len(digests) == 1
    # the test process has its own hash seed, random unless PYTHONHASHSEED is set
    ns = {}
    exec(build, ns)
    assert digests == {run_scenario(ns["s"], until=20000).trace.digest()}


def test_converged_stores_after_partition_fork():
    # both sides mine during the split; the longer branch wins after heal
    scenario = Scenario(
        seed=31,
        peers=[PeerConfig(name=f"p{i}") for i in range(4)],
        script=[
            ScriptAction(5, "publish", "p0", {"doc": "pre", "topic": "news", "size": 120}),
            ScriptAction(60, "partition", "", {"groups": [["p0", "p1"], ["p2", "p3"]]}),
            ScriptAction(70, "publish", "p0", {"doc": "left", "topic": "news", "size": 100}),
            ScriptAction(75, "publish", "p2", {"doc": "right", "topic": "news", "size": 100}),
            ScriptAction(400, "heal", "", {}),
        ],
        latency=(1, 4),
        mean_block_interval=40,
    )
    result = run_scenario(scenario, until=50000)
    tips = {p.chain.tip for p in result.peers.values()}
    assert len(tips) == 1
    dumps = {p.store.dump_text() for p in result.peers.values()}
    assert len(dumps) == 1
    # all three documents survived the merge
    assert len(result.peer("p0").store.docs) == 3


def one_node_inserts(n: int) -> Simulation:
    """One node publishes ``n`` unique 4 KiB documents at tick 0 and mines
    them itself."""
    scenario = Scenario(
        seed=0,
        peers=[PeerConfig(name="node0")],
        mining_power={"node0": 1.0},
        script=[ScriptAction(0, "publish", "node0", {"doc": f"d{i}", "topic": "t"}) for i in range(n)],
        latency=(1, 1),
        mean_block_interval=50,
        poll_interval=25,
    )
    sim = Simulation(scenario)
    sim.payload_overrides = {i: i.to_bytes(8, "big") * 512 for i in range(n)}
    return sim


def profiled_calls(run) -> tuple[int, object]:
    """Python-level calls ``run()`` makes (sys.setprofile "call" events), and
    what it returned."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return calls, out


# Python-level calls per insert in this scenario, counted under Python
# 3.11.7: 102.7 while the insert path re-derived each tx's bytes, digest and
# document id, 50.6 once a tx carries them, 47.6 once a one-chunk payload's
# root is its single hash (5 fewer) and registry views read through
# ``latest`` (2 more), 45.6 once a trace line is appended without a Python
# frame (2 lines per insert), 43.6 once a peer forgets an applied mutation
# instead of tracking its state, 42.6 once a script entry runs from the
# simulator's cursor instead of being pushed onto its heap and popped off it
# (42.633), 42.623 once a chain event's ``tip_changed`` is a field, not a
# property (one call fewer per block), still 42.623 once a heap event
# carries its handler instead of a kind, 41.62 once a confirmed
# mutation's held bytes are read inline by its one dispatch, 41.60 once a
# heap entry is a plain tuple pushed without a helper call (41.6025), and
# 40.59 once a peer's notes print a digest's first 6 bytes in hex without
# the ``digest_hex`` call (40.5925), still 40.59 (40.593) once a peer
# with an empty queue looks for a mutation awaiting depth k before it mines,
# and 40.57 (40.573) once a block computes its hash from its fields when it
# is built, keeps no bytes, and is not hashed again when it is validated.
# The count depends on the code alone, not on the machine; Python 3.12's
# inlined comprehensions can only lower it.
CALLS_PER_INSERT = 43


def test_an_insert_costs_a_bounded_number_of_python_calls():
    n = 2000
    calls, result = profiled_calls(one_node_inserts(n).run)
    assert len(result.peer("node0").store.docs) == n
    assert calls / n <= CALLS_PER_INSERT, calls / n


def test_pending_holds_no_applied_mutation():
    # an entry leaves pending once its revision lands, so a node that has
    # applied everything it published holds none
    node = one_node_inserts(2000).run().peer("node0")
    assert len(node.store.docs) == 2000
    assert node.pending == {}


def test_the_speculative_view_is_empty_once_the_mempool_is():
    # a node that only extends its own tip keeps its view across blocks; once
    # the last queued tx is mined the view must not keep an override per
    # lineage it ever queued
    result = one_node_inserts(2000).run()
    chain = result.peer("node0").chain
    registry = chain.registry
    assert not chain.mempool and len(registry.lineages()) == 2000
    assert chain._spec._diff == {}
    assert all(chain.speculative_latest(lin) == registry.latest(lin) for lin in registry.lineages())


def enum_member_reads(module) -> list[str]:
    """``file:line`` of every read of a ``Task``, ``FetchState`` or ``Mode``
    member through its class inside a function body of ``module``. Such a read is no Python call, so the call counts above do
    not see it, but it costs several times a module global's read."""
    members = {cls.__name__: set(cls.__members__) for cls in (Task, FetchState, Mode)}
    path = Path(module.__file__)
    sites = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in fn.body:
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.attr in members.get(node.value.id, ())
                    ):
                        sites.add((node.lineno, node.col_offset))
    return [f"{path.name}:{line}" for line, _ in sorted(sites)]


def test_no_function_reads_an_enum_member_through_its_class():
    from ethercouch import docstore, ledger, peer, registry, simnet

    sites = [site for module in (docstore, ledger, peer, registry, simnet) for site in enum_member_reads(module)]
    assert sites == []


# Python-level calls per delivered message (one "recv" trace line) over the
# convergence scenarios of seeds 0-4, counted under Python 3.11.7: 43.9 while
# messages were frozen dataclasses, decoders read each head through a helper
# call and latency came from ``randint``; 36.4 with named-tuple messages,
# flat decoders, the direct latency draw and frame-free trace appends; 35.75
# once fetch states change without a tracking call; 34.51 once a fetch's
# source order is one list built without a generator; 34.45 once script
# entries no longer pass through the heap; 33.91 once ``tip_changed`` is a
# field, a fetch reads its editor's location from the directory's dict, and
# a block is encoded without the ``serialize_block`` forwarder; 33.94 once a
# push goes through the simulator's ``broadcast`` (one more call per push);
# 33.70 once held bytes are one table that only the store releases; 33.38
# once a fetched payload's one check is the store's root check on apply;
# 32.99 once every confirmed mutation starts toward the store from one
# dispatch that tries the bytes at hand inline; 30.63 once a heap entry is a
# plain tuple pushed without a helper call or a named tuple's constructor
# frame; 30.33 once a peer's notes print a digest without ``digest_hex``;
# 30.23 once the copies of a broadcast share one trace text, not one per drop;
# 30.10 once a decoded proof is built without the named tuple's constructor
# frame and a kept proof set is encoded once; 30.23 once a peer with an
# empty queue looks for a mutation awaiting depth k before it mines (one
# list comprehension; a generator cost one call per pending entry, 30.42);
# 29.14 once a one-chunk payload is served with the constant one-leaf set
# and its section is read by its bytes; 29.17 (29.168) once a block computes
# its hash from its fields (a parse builds and hashes one block beside the
# table's lookup hash, and validating it hashes nothing).
CALLS_PER_DELIVERY = 35


def test_a_delivery_costs_a_bounded_number_of_python_calls():
    calls = recvs = 0
    for seed in range(5):
        sim = Simulation(build_convergence_scenario(seed))
        n, result = profiled_calls(lambda: sim.run(200_000))
        calls += n
        recvs += sum(line[8:12] == "recv" for line in result.trace.lines)
    assert recvs > 3000
    assert calls / recvs <= CALLS_PER_DELIVERY, calls / recvs


def hashing_census(monkeypatch, size: int, cs: int = 64):
    """Run four peers that publish three documents of ``size`` bytes and
    edit one at another peer; return who published each revision, the
    revisions applied at peers other than their publisher, the serves by
    such peers, the leaf count of every merkle tree built and the sizes of
    the payloads ``payload_root`` hashed."""
    import ethercouch.crypto as crypto
    from ethercouch import docstore, ledger, peer as peer_module
    from ethercouch.peer import Peer

    leaves, real_tree = [], crypto._tree
    monkeypatch.setattr(crypto, "_tree", lambda chunks: leaves.append(len(chunks)) or real_tree(chunks))
    roots, real_root = [], crypto.payload_root
    for module in (docstore, ledger, peer_module):
        monkeypatch.setattr(module, "payload_root", lambda p, chunk_size: roots.append(len(p)) or real_root(p, chunk_size))
    publisher, served = {}, set()
    real_publish, real_serve = Peer.publish, Peer.serve_request

    def publish(peer, *args):
        tx = real_publish(peer, *args)
        publisher[tx.doc_id, tx.sequence_id] = peer.name
        return tx

    def serve(peer, req, requester):
        reply = real_serve(peer, req, requester)
        if isinstance(reply, Response) and publisher[req.lineage, req.seq] != peer.name:
            served.add((peer.name, req.lineage, req.seq))
        return reply

    monkeypatch.setattr(Peer, "publish", publish)
    monkeypatch.setattr(Peer, "serve_request", serve)
    script = [ScriptAction(5 + 20 * i, "publish", f"p{i}", {"doc": f"d{i}", "topic": "news", "size": size}) for i in range(3)]
    script.append(ScriptAction(200, "edit", "p3", {"doc": "d0", "size": size}))
    peers = [PeerConfig(name=f"p{i}") for i in range(4)]
    sim = Simulation(Scenario(seed=0, peers=peers, script=script, latency=(1, 5), mean_block_interval=30, chunk_size=cs)).run()
    assert sim._heap == []
    applied = [
        (name, doc.lineage, rev.seq)
        for name, peer in sim.peers.items()
        for doc in peer.store.docs.values()
        for rev in doc.revisions
        if rev.payload is not None and publisher[doc.lineage, rev.seq] != name
    ]
    return publisher, applied, served, leaves, roots


# Leaves hashed into merkle trees in the scenario of ``hashing_census`` (4
# publishes of 16 chunks, 12 applies at peers other than the publisher):
# 336 while a publisher hashed its payload at publish and again at its
# first push or serve, 272 once the tree that gives a publisher its root
# also gives it the proofs for every push and serve (4 publishes, 12
# applies, 1 first serve by a peer that did not publish the root).
def test_each_payload_is_hashed_once_per_peer_that_takes_it_in(monkeypatch):
    publisher, applied, served, leaves, _ = hashing_census(monkeypatch, 16 * 64)
    assert (len(publisher), len(applied), len(served)) == (4, 12, 1)
    assert set(leaves) == {16}
    assert sum(leaves) == 16 * (len(publisher) + len(applied) + len(served)) == 272


# The same scenario with payloads of one chunk: each is hashed once, by
# ``payload_root``, at its publish and at each apply at another peer, and
# every push and serve proves it with the one-leaf set, so no tree is built
# (a holder built a one-leaf tree at its first push or serve of a root
# before the set was a constant).
def test_a_one_chunk_payload_is_hashed_once_per_peer_and_never_into_a_tree(monkeypatch):
    publisher, applied, served, leaves, roots = hashing_census(monkeypatch, 64)
    assert (len(publisher), len(applied), len(served)) == (4, 12, 1)
    assert leaves == []
    assert roots == [64] * (len(publisher) + len(applied)) == [64] * 16


@pytest.mark.parametrize("lo, hi", [(0, 0), (1, 1), (1, 8), (1, 10), (3, 2**20)])
def test_latency_draws_are_randint_draws(lo, hi):
    # the simulator's draw must consume the generator exactly as randint
    # does, or every trace digest shifts; expovariate calls in between
    # check that the generator is left in the same state after each draw
    sim = Simulation(Scenario(seed=11, peers=[PeerConfig(name="p0")], latency=(lo, hi)))
    ref = random.Random(11)
    for i in range(3000):
        assert sim._latency() == ref.randint(lo, hi), i
        if i % 3 == 0:
            assert sim.rng.expovariate(0.25) == ref.expovariate(0.25), i
