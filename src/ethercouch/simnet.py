"""Deterministic discrete-event network simulator.

Time is integer ticks. Scheduled events (deliveries, mining completions,
poll ticks) are processed in order of time, then of insertion, from a heap.
Each heap entry is a plain ``(at, order, handler, target, payload)`` tuple,
compared in C; ``order`` is unique, so the fields after it are never
compared, and the run loop calls ``handler(sim, target, payload)``.
The scenario's script is already in time order, so it is read from a cursor
and merged with the heap: an entry runs before every heap event of its tick,
as if it had been scheduled before them. All randomness (latency draws,
mining intervals) comes from one seeded generator consumed in processing
order, and peers are advanced strictly one event at a time, so a (scenario,
horizon) pair always produces a bit-identical trace and final state. A
latency draw consumes the generator exactly as ``randint`` does, without
its call overhead.

Every trace line starts with the tick, right-aligned in 7 columns. The run
loop is the only code that moves the clock, and it formats that stamp once
per move; each peer's name, padded to 8 columns, is formatted once when the
simulation is built. So writing a trace line runs no format spec.

Every message crosses the network as its canonical bytes, encoded once per
distinct message and parsed once at the first copy to arrive; each
recipient of the same bytes gets the same immutable parsed message.

Mining inside a scenario is simulated: each weighted miner's next block
completion is sampled from an exponential distribution whose rate is
proportional to its weight, and the ledger runs at difficulty zero because
the sampled delay stands in for the work. Real nonce search is exercised by
the ledger's own tests.

Messages between partitioned or offline peers are dropped and logged,
never retransmitted by the network; recovery belongs to the peer protocol.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .ledger import Block, Task, TxRejected
from .peer import Mode, Peer, PeerConfig, topic_hash
from .registry import LocationRegistry
from .wire import decode_message, describe, encode_message

# function bodies read these names, not Task's members: an enum member read is slow
_ADD, _EDIT, _DELETE = Task.ADD, Task.EDIT, Task.DELETE


@dataclass
class ScriptAction:
    at: int
    action: str  # publish | edit | delete | offline | online | partition | heal
    peer: str = ""
    args: dict = field(default_factory=dict)


@dataclass
class Scenario:
    seed: int
    peers: list[PeerConfig]
    mining_power: dict[str, float] = field(default_factory=dict)
    script: list[ScriptAction] = field(default_factory=list)
    latency: tuple[int, int] = (1, 10)
    mean_block_interval: int = 100
    poll_interval: int = 25
    chunk_size: int = 4096
    max_txs_per_block: int = 100

    def weights(self) -> dict[str, float]:
        if self.mining_power:
            return {p.name: self.mining_power.get(p.name, 0.0) for p in self.peers}
        return {p.name: 1.0 for p in self.peers}

    def validate(self) -> None:
        if not self.peers:
            raise ValueError("scenario needs at least one peer")
        names = [p.name for p in self.peers]
        if len(set(names)) != len(names):
            raise ValueError("peer names must be unique")
        lo, hi = self.latency
        if lo < 0 or hi < lo:
            raise ValueError("latency bounds must satisfy 0 <= min <= max")
        weights = self.weights()
        if any(w < 0 for w in weights.values()):
            raise ValueError("mining weights must be non-negative")
        if not any(w > 0 for w in weights.values()):
            raise ValueError("at least one mining weight must be positive")
        if self.mean_block_interval < 1:
            raise ValueError("mean_block_interval must be >= 1")
        if self.poll_interval < 1:
            raise ValueError("poll_interval must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.max_txs_per_block < 1:
            raise ValueError("max_txs_per_block must be >= 1")
        last = 0
        known = set(names)
        for i, act in enumerate(self.script):
            if act.at < last:
                raise ValueError(f"script times must be non-decreasing (entry {i})")
            last = act.at
            if act.action in ("publish", "edit", "delete", "offline", "online") and act.peer not in known:
                raise ValueError(f"script entry {i} targets unknown peer {act.peer!r}")
            if act.action == "publish" and ("doc" not in act.args or "topic" not in act.args):
                raise ValueError(f"publish entry {i} needs doc and topic")
            if act.action in ("edit", "delete") and "doc" not in act.args:
                raise ValueError(f"{act.action} entry {i} needs doc")
            if act.action == "partition" and not act.args.get("groups"):
                raise ValueError(f"partition entry {i} needs groups")
            if act.action not in ("publish", "edit", "delete", "offline", "online", "partition", "heal"):
                raise ValueError(f"unknown action {act.action!r}")


def deterministic_bytes(tag: str, size: int) -> bytes:
    """Seeded payload generator: a sha256 stream over the tag."""
    out = bytearray()
    counter = 0
    seed = tag.encode()
    while len(out) < size:
        out.extend(hashlib.sha256(seed + counter.to_bytes(8, "big")).digest())
        counter += 1
    return bytes(out[:size])


class Trace:
    """Append-only event log with a digest over its full text."""

    def __init__(self):
        self.lines: list[str] = []
        # the list's own append, so a trace line costs no Python frame
        self.add = self.lines.append

    def digest(self) -> str:
        h = hashlib.sha256()
        for line in self.lines:
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()

    def text(self) -> str:
        return "\n".join(self.lines + [f"digest {self.digest()}"]) + "\n"


class Simulation:
    """Owns the clock, the event heap, the peers and the shared directory.
    A peer's miner is armed only while ``Peer.wants_mining()``."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.clock = 0
        self._stamp = f"{0:>7}"  # the trace's tick column; run() moves it with the clock
        self._order = itertools.count()
        # handler is _deliver, _mine or _poll; payload a delivery's record, else None
        self._heap: list[tuple] = []
        self.trace = Trace()
        self.location = LocationRegistry()
        self.poll_interval = scenario.poll_interval
        self.fetch_timeout = max(2 * scenario.latency[1] + 2, scenario.poll_interval)
        self._weights = scenario.weights()
        self._total_weight = sum(self._weights.values())
        self.partition: dict[str, int] | None = None
        self._mine_armed: dict[str, bool] = {}
        self._poll_armed: dict[str, bool] = {}
        self.peers: dict[str, Peer] = {}
        self._label: dict[str, str] = {}  # peer name -> its trace column, padded to 8
        # every block parsed off the wire in this run, by hash: a block sent
        # again (catch-up batches mostly re-send held ones) is parsed once
        self._blocks: dict[bytes, Block] = {}
        for cfg in scenario.peers:
            peer = Peer(
                cfg,
                env=self,
                location=self.location,
                chunk_size=scenario.chunk_size,
                max_txs_per_block=scenario.max_txs_per_block,
            )
            self.peers[cfg.name] = peer
            self._label[cfg.name] = f"{cfg.name:<8}"
            self._mine_armed[cfg.name] = False
            self._poll_armed[cfg.name] = False
        self.doc_lineages: dict[str, bytes] = {}
        self.doc_topics: dict[str, bytes] = {}
        self._topic_ids: dict[str, bytes] = {}  # topic name -> topic_hash, one hash per name
        # script-index -> payload, for callers that pre-build payloads
        # (the benchmark keeps data generation out of the timed region)
        self.payload_overrides: dict[int, bytes] = {}
        self._next_script = 0  # index of the first script entry not yet run

    # -- event plumbing ---------------------------------------------------

    def now(self) -> int:
        return self.clock

    def note(self, src: Peer, text: str) -> None:
        self.trace.add(f"{self._stamp} note  {self._label[src.name]} {text}")

    def peer(self, name: str) -> Peer:
        return self.peers[name]

    def unfiltered_peers(self) -> list[Peer]:
        return [p for p in self.peers.values() if not p.config.topics]

    # -- network ------------------------------------------------------------

    def _allowed(self, a: str, b: str) -> bool:
        if self.partition is None:
            return True
        return self.partition.get(a) == self.partition.get(b)

    def send(self, src: Peer, dst: str, msg, rec: dict | None = None) -> dict | None:
        """Queue ``msg`` for ``dst`` unless the network drops it.

        ``rec`` is ``broadcast``'s record of the earlier copies of the same
        message: the sender's name, the encoded bytes once a copy was
        queued, the trace text once a copy was dropped or arrived, and the
        parsed message once a copy arrived. Returns ``rec``, or the record
        made here if there was none."""
        if dst not in self.peers:
            self.note(src, f"send to unknown peer {dst}")
            return rec
        if not src.online:
            return rec
        if self.partition is not None and not self._allowed(src.name, dst):
            return self._drop(src, dst, msg, rec, "partitioned")
        if not self.peers[dst].online:
            return self._drop(src, dst, msg, rec, "offline")
        at = self.clock + self._latency()
        # messages cross the simulated wire in canonical serialized form
        if rec is None:
            rec = {"from": src.name, "raw": encode_message(msg)}
        elif "raw" not in rec:
            rec["raw"] = encode_message(msg)
        heappush(self._heap, (at, next(self._order), Simulation._deliver, dst, rec))
        return rec

    def _drop(self, src: Peer, dst: str, msg, rec: dict | None, why: str) -> dict:
        """Log a dropped copy of ``msg``, describing it once per record."""
        if rec is None:
            rec = {"from": src.name}
        if "text" not in rec:
            rec["text"] = describe(msg)
        self.trace.add(f"{self._stamp} drop  {src.name}->{dst} {why} {rec['text']}")
        return rec

    def send_batch(self, src: Peer, dst: str, msgs) -> None:
        """One latency draw for a multi-message response, preserving order."""
        if dst not in self.peers or not src.online:
            return
        if not self._allowed(src.name, dst) or not self.peers[dst].online:
            self.trace.add(f"{self._stamp} drop  {src.name}->{dst} batch of {len(msgs)}")
            return
        at = self.clock + self._latency()
        for msg in msgs:
            rec = {"from": src.name, "raw": encode_message(msg)}
            heappush(self._heap, (at, next(self._order), Simulation._deliver, dst, rec))

    def _latency(self) -> int:
        """One delivery delay in ticks: ``rng.randint(lo, hi)``, drawn by the
        rejection sampling randint itself does over ``getrandbits`` (k bits
        for a span of n values, redrawn while r >= n), so it consumes the
        generator identically without randint's three Python frames."""
        lo, hi = self.scenario.latency
        n = hi - lo + 1
        k = n.bit_length()
        r = self.rng.getrandbits(k)
        while r >= n:
            r = self.rng.getrandbits(k)
        return lo + r

    def broadcast(self, src: Peer, msg, names=None) -> None:
        """Send ``msg`` to each peer in ``names`` (default: every peer) but
        ``src``. Every copy shares one record: the message is encoded once,
        at the first copy the network does not drop, and described once,
        at the first copy it drops or that arrives."""
        rec = None
        for name in self.peers if names is None else names:
            if name != src.name:
                rec = self.send(src, name, msg, rec)

    # -- scheduling hooks -----------------------------------------------------

    def arm_mining(self, peer: Peer) -> None:
        w = self._weights.get(peer.name, 0.0)
        if w <= 0 or self._mine_armed[peer.name]:
            return
        if not peer.online or not peer.wants_mining():
            return
        rate = (w / self._total_weight) / self.scenario.mean_block_interval
        interval = max(1, round(self.rng.expovariate(rate)))
        self._mine_armed[peer.name] = True
        heappush(self._heap, (self.clock + interval, next(self._order), Simulation._mine, peer.name, None))

    def request_poll(self, peer: Peer) -> None:
        if self._poll_armed[peer.name] or not peer.online or not peer.wants_poll():
            return
        self._poll_armed[peer.name] = True
        heappush(self._heap, (self.clock + self.poll_interval, next(self._order), Simulation._poll, peer.name, None))

    # -- run loop ----------------------------------------------------------------

    def run(self, until: int | None = None) -> Simulation:
        """Process events up to tick ``until`` (every event, if None): heap
        events in (tick, order) order, merged with the script from its cursor.
        A script entry runs first at a tie, since it was due before anything
        it or the heap could schedule at its tick. Returns this simulation."""
        heap = self._heap
        script = self.scenario.script
        end = len(script)
        stop = math.inf if until is None else until
        i = self._next_script
        nxt = script[i].at if i < end else math.inf
        while True:
            if heap and (at := heap[0][0]) < nxt:
                if at > stop:
                    break
                _, _, handler, target, payload = heappop(heap)
                if at > self.clock:
                    self.clock = at
                    self._stamp = f"{at:>7}"
                handler(self, target, payload)
            else:
                # the heap is empty or starts at or after the next entry
                if i == end or nxt > stop:
                    break
                if nxt > self.clock:
                    self.clock = nxt
                    self._stamp = f"{nxt:>7}"
                self._next_script = i + 1
                self._script(i, self.peers.get(script[i].peer))
                i += 1
                nxt = script[i].at if i < end else math.inf
        return self

    def _deliver(self, target: str, rec: dict) -> None:
        # the first copy to arrive parses the bytes, and describes them
        # unless a dropped copy did; later copies of the same record share
        # the frozen message and its trace text
        peer = self.peers[target]
        msg = rec.get("msg")
        if msg is None:
            msg = rec["msg"] = decode_message(rec["raw"], self._blocks)
            if "text" not in rec:
                rec["text"] = describe(msg)
        if not peer.online:
            self.trace.add(f"{self._stamp} drop  ->{target} offline-at-arrival {rec['text']}")
            return
        self.trace.add(f"{self._stamp} recv  {self._label[target]} from {rec['from']}: {rec['text']}")
        peer.handle_message(msg, rec["from"])

    def _mine(self, target: str, _payload: None) -> None:
        peer = self.peers[target]
        self._mine_armed[target] = False
        if not peer.online:
            self.trace.add(f"{self._stamp} skip  {self._label[target]} mine while offline")
            return
        peer.on_mine_complete()
        self.arm_mining(peer)

    def _poll(self, target: str, _payload: None) -> None:
        self._poll_armed[target] = False
        peer = self.peers[target]
        if peer.online:
            peer.on_poll()

    # -- script actions --------------------------------------------------------

    def _payload_for(self, idx: int, args: dict) -> bytes:
        override = self.payload_overrides.get(idx)
        if override is not None:
            return override
        if "data" in args:
            return args["data"].encode()
        size = int(args.get("size", 128))
        return deterministic_bytes(f"{self.scenario.seed}:{idx}:{args.get('doc', '')}", size)

    def _script(self, idx: int, peer: Peer | None) -> None:
        """Run script entry ``idx``; ``peer`` is its target, if it names one.
        ``Scenario.validate`` has refused unknown actions already."""
        act = self.scenario.script[idx]
        action, args = act.action, act.args
        if action == "offline":
            self.trace.add(f"{self._stamp} event {self._label[peer.name]} goes offline")
            peer.go_offline()
        elif action == "online":
            self.trace.add(f"{self._stamp} event {self._label[peer.name]} comes online")
            peer.go_online()
        elif action == "partition":
            groups = args["groups"]
            mapping = {name: gid for gid, members in enumerate(groups) for name in members}
            for name in self.peers:
                mapping.setdefault(name, len(groups))
            self.partition = mapping
            self.trace.add(f"{self._stamp} event partition {groups}")
        elif action == "heal":
            self.partition = None
            self.trace.add(f"{self._stamp} event heal")
            for p in self.peers.values():
                if p.online:
                    p.announce_tip()
                    self.request_poll(p)
        elif action == "publish":
            doc = args["doc"]
            payload = self._payload_for(idx, args)
            topic = self._topic_ids.get(args["topic"])
            if topic is None:
                topic = self._topic_ids[args["topic"]] = topic_hash(args["topic"])
            self.trace.add(f"{self._stamp} user  {self._label[peer.name]} publish {doc} ({len(payload)}B)")
            try:
                tx = peer.user_action(_ADD, topic, payload, None)
            except TxRejected as e:
                self.note(peer, f"publish {doc} rejected: {e.reason}")
                return
            self.doc_lineages[doc] = tx.doc_id
            self.doc_topics[doc] = topic
        else:
            doc = args["doc"]
            lineage = self.doc_lineages.get(doc)
            if lineage is None:
                self.note(peer, f"{action} {doc}: unknown document, skipped")
                return
            topic = self.doc_topics[doc]
            payload = self._payload_for(idx, args) if action == "edit" else None
            task = _EDIT if action == "edit" else _DELETE
            self.trace.add(f"{self._stamp} user  {self._label[peer.name]} {action} {doc}")
            peer.user_action(task, topic, payload, lineage)


# -- scenario files -------------------------------------------------------------


_REQUIRED = object()
_JSON_KIND = {int: "an integer", float: "a number", str: "a string", bool: "true or false", list: "a list", dict: "an object"}
# script-entry arguments the simulator reads, and their JSON kinds
_SCRIPT_ARGS = {"doc": str, "topic": str, "data": str, "size": int, "groups": list}


def _typed(value, kind: type, what: str):
    """``value`` if it has JSON kind ``kind``, else ValueError naming
    ``what``. An integer passes as a number; only booleans pass as bool."""
    if kind is bool:
        ok = isinstance(value, bool)
    else:
        ok = not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)
    if not ok:
        raise ValueError(f"{what} must be {_JSON_KIND[kind]}")
    return value


def _field(obj: dict, key: str, kind: type, where: str, default=_REQUIRED):
    if key not in obj:
        if default is _REQUIRED:
            raise ValueError(f"{where} needs {key!r}")
        return default
    return _typed(obj[key], kind, f"{where} {key!r}")


def _present(obj: dict, where: str, **kinds: type) -> dict:
    # the keys of obj named in kinds, checked; an absent one takes the dataclass default
    return {key: _typed(obj[key], kind, f"{where} {key!r}") for key, kind in kinds.items() if key in obj}


def scenario_from_json(text: str) -> Scenario:
    """Parse a scenario file. A malformed one (bad JSON, a missing field, a
    field of the wrong kind) raises ValueError naming the field. A setting
    the file leaves out takes the default ``Scenario`` or ``PeerConfig``
    declares."""
    doc = _typed(json.loads(text), dict, "scenario")
    peers = []
    for i, p in enumerate(_field(doc, "peers", list, "scenario")):
        where = f"peer {i}"
        p = _typed(p, dict, where)
        topics = [_typed(t, str, f"{where} topic") for t in _field(p, "topics", list, where, [])]
        config = _present(p, where, mode=str, confirmation_depth=int)
        if "mode" in config:
            if config["mode"] not in {m.value for m in Mode}:
                raise ValueError(f"{where} 'mode' must be one of {', '.join(m.value for m in Mode)}")
            config["mode"] = Mode(config["mode"])
        peers.append(
            PeerConfig(
                name=_field(p, "name", str, where),
                topics=frozenset(bytes.fromhex(t) if len(t) == 64 and _is_hex(t) else topic_hash(t) for t in topics),
                **config,
            )
        )
    script = []
    for i, entry in enumerate(_field(doc, "script", list, "scenario", [])):
        where = f"script entry {i}"
        args = dict(_typed(entry, dict, where))
        at = _field(args, "at", int, where)
        action = _field(args, "action", str, where)
        peer = _field(args, "peer", str, where, "")
        for key in ("at", "action", "peer"):
            args.pop(key, None)
        for key, kind in _SCRIPT_ARGS.items():
            if key in args:
                _typed(args[key], kind, f"{where} {key!r}")
        for group in args.get("groups", ()):
            for name in _typed(group, list, f"{where} group"):
                _typed(name, str, f"{where} group member")
        script.append(ScriptAction(at=at, action=action, peer=peer, args=args))
    settings = _present(doc, "scenario", latency=list)
    if "latency" in settings:
        if len(settings["latency"]) != 2:
            raise ValueError("scenario 'latency' must be [min, max]")
        settings["latency"] = tuple(_typed(v, int, "scenario 'latency' bound") for v in settings["latency"])
    mining_power = _field(doc, "mining_power", dict, "scenario", {})
    return Scenario(
        seed=_field(doc, "seed", int, "scenario"),
        peers=peers,
        mining_power={k: float(_typed(v, float, f"scenario mining power of {k!r}")) for k, v in mining_power.items()},
        script=script,
        **settings,
        **_present(doc, "scenario", mean_block_interval=int, poll_interval=int, chunk_size=int, max_txs_per_block=int),
    )


def _is_hex(s: str) -> bool:
    try:
        bytes.fromhex(s)
        return True
    except ValueError:
        return False


def run_scenario(scenario: Scenario, until: int | None = None) -> Simulation:
    return Simulation(scenario).run(until)
