"""Seeded workload generators for the replication benchmark.

Each workload is a script in simulated time built from ``workloads.json``
and a seed. User actions fire at their scripted ticks whatever the
system's state (an open loop in simulated time); the simulator runs the
whole script as one batch on the wall clock. Payloads are generated here,
up front, and handed to the simulator through ``payload_overrides`` so
that making bytes counts as set-up, not as replication work.

Runs stop at a fixed horizon (script end plus a settle window), never at
"event heap empty": a topic-filtered peer asked to edit a document outside
its filter defers that intent forever and keeps polling, so a replicate
run would otherwise never end.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from ethercouch.peer import PeerConfig, topic_hash
from ethercouch.simnet import Scenario, ScriptAction

SPECS: dict[str, dict] = json.loads(Path(__file__).with_name("workloads.json").read_text())

# separate streams, so payload sizes cannot shift the script and vice versa
_SCRIPT_STREAM = 1
_PAYLOAD_STREAM = 2


@dataclass
class Workload:
    name: str
    seed: int
    scenario: Scenario
    payloads: dict[int, bytes]  # script index -> payload
    horizon: int


def _rng(name: str, seed: int, stream: int) -> random.Random:
    # str seeds go through sha512, so the stream does not depend on PYTHONHASHSEED
    return random.Random(f"{name}:{seed}:{stream}")


def _scenario(spec: dict, seed: int, peers: list[PeerConfig], script: list[ScriptAction]) -> Scenario:
    return Scenario(
        seed=seed,
        peers=peers,
        mining_power={p.name: 1.0 for p in peers},
        script=script,
        latency=tuple(spec["latency_ticks"]),
        mean_block_interval=spec["mean_block_interval"],
        poll_interval=spec["poll_interval"],
        chunk_size=spec["chunk_size"],
        max_txs_per_block=spec["max_txs_per_block"],
    )


def _ordered(events: list[tuple]) -> list[ScriptAction]:
    """Script entries in time order; ties keep generation order."""
    events.sort(key=lambda e: e[0])
    return [ScriptAction(at, action, peer, args) for at, action, peer, args in events]


def _payloads(script: list[ScriptAction], rng: random.Random) -> dict[int, bytes]:
    out = {}
    for idx, act in enumerate(script):
        if act.action in ("publish", "edit"):
            header = f"{act.action}|{act.args['doc']}|{idx}|".encode()
            out[idx] = header + rng.randbytes(act.args["size"] - len(header))
    return out


def _insert(spec: dict, seed: int) -> Workload:
    script = [
        ScriptAction(0, "publish", "node0", {"doc": f"ticket-{i:08d}", "topic": "maintenance-tickets", "size": spec["doc_size"]})
        for i in range(spec["docs"])
    ]
    scenario = _scenario(spec, seed, [PeerConfig(name="node0")], script)
    return Workload("insert", seed, scenario, _payloads(script, _rng("insert", seed, _PAYLOAD_STREAM)), spec["settle_ticks"])


def _window(script_end: int, shares: list[float]) -> tuple[int, int]:
    """A fault window at fixed shares of the script, so that the seed moves
    who is hit but not when: fork depth, and with it the cost of fork-parent
    validation, would otherwise swing with the seed."""
    return int(script_end * shares[0]), int(script_end * shares[1])


def _replicate(spec: dict, seed: int) -> Workload:
    rng = _rng("replicate", seed, _SCRIPT_STREAM)
    topics = [f"topic-{i}" for i in range(spec["topics"])]
    names = [f"p{i}" for i in range(spec["peers"])]
    filtered_topic = rng.choice(topics)
    peers = [PeerConfig(name=n) for n in names[:-1]]
    peers.append(PeerConfig(name=names[-1], topics=frozenset({topic_hash(filtered_topic)})))

    events: list[tuple] = []
    t = 0
    lo, hi = spec["doc_size"]
    for i in range(spec["docs"]):
        doc = f"d{i:05d}"
        topic = rng.choice(topics)
        covering = names if topic == filtered_topic else names[:-1]
        events.append((t, "publish", rng.choice(covering), {"doc": doc, "topic": topic, "size": rng.randint(lo, hi)}))
        at = t
        for _ in range(spec["edits_per_doc"]):
            # editors come from all peers, the filtered one included
            at += rng.randint(*spec["edit_delay_ticks"])
            events.append((at, "edit", rng.choice(names), {"doc": doc, "size": rng.randint(lo, hi)}))
        if rng.random() < spec["delete_share"]:
            at += rng.randint(*spec["edit_delay_ticks"])
            events.append((at, "delete", rng.choice(names), {"doc": doc}))
        t += rng.randint(*spec["publish_gap_ticks"])
    script_end = max(e[0] for e in events) + 1

    off_start, off_end = _window(script_end, spec["offline_window"])
    victim = rng.choice(names[:-1])
    events.append((off_start, "offline", victim, {}))
    events.append((off_end, "online", victim, {}))
    cut_start, cut_end = _window(script_end, spec["partition_window"])
    shuffled = list(names)
    rng.shuffle(shuffled)
    events.append((cut_start, "partition", "", {"groups": [shuffled[:2], shuffled[2:]]}))
    events.append((cut_end, "heal", "", {}))

    script = _ordered(events)
    scenario = _scenario(spec, seed, peers, script)
    payloads = _payloads(script, _rng("replicate", seed, _PAYLOAD_STREAM))
    return Workload("replicate", seed, scenario, payloads, script_end + spec["settle_ticks"])


def _large_docs(spec: dict, seed: int) -> Workload:
    rng = _rng("large-docs", seed, _SCRIPT_STREAM)
    names = [f"q{i}" for i in range(spec["peers"])]
    events: list[tuple] = []
    t = 0
    for i in range(spec["docs"]):
        doc = f"big{i:03d}"
        events.append((t, "publish", rng.choice(names), {"doc": doc, "topic": "archive", "size": spec["doc_size"]}))
        if i % spec["edit_every"] == 0:
            at = t + rng.randint(*spec["edit_delay_ticks"])
            events.append((at, "edit", rng.choice(names), {"doc": doc, "size": spec["doc_size"]}))
        t += rng.randint(*spec["publish_gap_ticks"])
    script_end = max(e[0] for e in events) + 1
    off_start, off_end = _window(script_end, spec["offline_window"])
    victim = rng.choice(names)
    events.append((off_start, "offline", victim, {}))
    events.append((off_end, "online", victim, {}))

    script = _ordered(events)
    scenario = _scenario(spec, seed, [PeerConfig(name=n) for n in names], script)
    payloads = _payloads(script, _rng("large-docs", seed, _PAYLOAD_STREAM))
    return Workload("large-docs", seed, scenario, payloads, script_end + spec["settle_ticks"])


GENERATORS = {"insert": _insert, "replicate": _replicate, "large-docs": _large_docs}


def build(name: str, seed: int) -> Workload:
    return GENERATORS[name](SPECS[name], seed)


def digest(w: Workload) -> str:
    """SHA-256 over the generated script and payloads, for determinism checks."""
    h = hashlib.sha256()
    s = w.scenario
    h.update(repr((s.seed, [(p.name, sorted(p.topics)) for p in s.peers], s.latency, w.horizon)).encode())
    for idx, act in enumerate(s.script):
        h.update(repr((act.at, act.action, act.peer, sorted(act.args.items()))).encode())
        payload = w.payloads.get(idx)
        if payload is not None:
            h.update(hashlib.sha256(payload).digest())
    return h.hexdigest()
