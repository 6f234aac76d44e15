"""Per-layer probes for one traced run.

The layers are the library modules crypto, ledger, registry, docstore,
peer, wire and simnet; bench and cli are front ends and are not traced.
Every span sits on a public function or method of a layer. Counts are
taken at the same boundaries, from the call's arguments and result, so
ratios are measured where the work happens.

Besides the per-layer numbers, the probe records the simulated ticks at
which each transaction was published, first included in a block and
applied at each peer. Those ticks do not depend on wall time, and the
traced run is checked to behave exactly like the untraced ones, so the
replication-latency metrics are taken from it.
"""

from __future__ import annotations

import math
from collections import Counter

from ethercouch import crypto, wire
from ethercouch.docstore import StoreState
from ethercouch.ledger import ChainState, tx_digest
from ethercouch.peer import Peer
from ethercouch.registry import DataRegistry
from ethercouch.simnet import Simulation
from ethercouch.wire import Refusal, Request

from tracer import Tracer

WIRE_KINDS = {
    wire.Request: "request",
    wire.Response: "response",
    wire.Refusal: "refusal",
    wire.BlockAnnounce: "block_announce",
    wire.BlockRequest: "block_request",
    wire.TxAnnounce: "tx_announce",
}

# entry points through which the simulator hands an event to a peer
PEER_ENTRY_POINTS = ("handle_message", "on_mine_complete", "on_poll", "user_action", "go_offline", "go_online")


def _revision_count(store: StoreState) -> int:
    return sum(len(doc.revisions) for doc in store.docs.values())


class LayerProbe:
    """Installs the layer spans around one Simulation's run."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.tracer = Tracer()
        self._store_owner = {id(p.store): name for name, p in sim.peers.items()}
        self.publish_tick: dict[bytes, int] = {}  # tx digest -> tick Peer.publish returned it
        self.included_tick: dict[bytes, int] = {}  # tx digest -> first tick it became canonical anywhere
        self.applied_tick: dict[tuple, int] = {}  # (peer, lineage, seq) -> last tick it landed in a store
        self.requested_tick: dict[tuple, int] = {}  # (peer, lineage, seq) -> first Request sent for it
        self.counts: Counter = Counter()
        self.wire_bytes: Counter = Counter()
        self._last_encoded = None

    # -- hooks -----------------------------------------------------------

    def _on_publish(self, args, tx, _pre) -> None:
        if tx is not None:
            self.publish_tick.setdefault(tx_digest(tx), self.sim.clock)

    def _on_adopt(self, args, report, _pre) -> None:
        for tx, _h, _i in report.applied:
            self.included_tick.setdefault(tx_digest(tx), self.sim.clock)

    def _on_apply(self, args, result, _pre) -> None:
        owner = self._store_owner[id(args[0])]
        for lineage, seq in result.applied:
            self.applied_tick[(owner, lineage, seq)] = self.sim.clock
        self.counts["docstore.apply.buffered"] += result.buffered

    def _on_rollback(self, args, _touched, before) -> None:
        self.counts["docstore.rollback_to.revisions_removed"] += before - _revision_count(args[0])

    def _on_query(self, args, _entries, _pre) -> None:
        self.counts["registry.query_by_lineage.entries_scanned"] += len(args[0].entries)

    def _on_prove(self, args, _proof, _pre) -> None:
        self.counts["crypto.merkle_prove.leaf_hashes"] += len(args[0])

    def _on_encode(self, args, raw, _pre) -> None:
        msg = args[0]
        self.wire_bytes[WIRE_KINDS[type(msg)]] += len(raw)
        # a broadcast or push encodes one message object once per recipient, back to back
        if msg is not self._last_encoded:
            self.counts["wire.distinct_messages"] += 1
            self._last_encoded = msg

    def _on_send(self, args, _none, _pre) -> None:
        src, msg = args[1], args[3]
        if isinstance(msg, Request):
            self.counts["peer.fetch.requests"] += 1
            self.requested_tick.setdefault((src.name, msg.lineage, msg.seq), self.sim.clock)

    def _on_serve(self, args, reply, _pre) -> None:
        self.counts["peer.serve_request.refusals"] += isinstance(reply, Refusal)

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "LayerProbe":
        t = self.tracer
        t.wrap_function(crypto.payload_root, "crypto.payload_root")
        t.wrap_function(crypto.merkle_prove, "crypto.merkle_prove", after=self._on_prove)
        t.wrap_function(crypto.verify_chunk, "crypto.verify_chunk")
        t.wrap_function(wire.encode_message, "wire.encode_message", after=self._on_encode)
        t.wrap_function(wire.decode_message, "wire.decode_message")

        t.wrap_method(ChainState, "submit_tx", "ledger.submit_tx")
        t.wrap_method(ChainState, "mine_block", "ledger.mine_block")
        t.wrap_method(ChainState, "adopt_block", "ledger.adopt_block", after=self._on_adopt)
        t.wrap_method(
            ChainState,
            "validate_block",
            "ledger.validate_block",
            name_of=lambda a: "ledger.validate_block.tip" if a[1].parent == a[0].tip else "ledger.validate_block.fork",
        )

        t.wrap_method(DataRegistry, "query_by_lineage", "registry.query_by_lineage", after=self._on_query)
        t.wrap_method(DataRegistry, "fork_view", "registry.fork_view")
        t.wrap_method(DataRegistry, "rollback_to_height", "registry.rollback_to_height")

        for attr in ("apply_add", "apply_edit", "apply_delete", "apply_erased"):
            t.wrap_method(StoreState, attr, "docstore.apply", after=self._on_apply)
        t.wrap_method(
            StoreState,
            "rollback_to",
            "docstore.rollback_to",
            before=lambda a: _revision_count(a[0]),
            after=self._on_rollback,
        )

        for attr in PEER_ENTRY_POINTS:
            t.wrap_method(Peer, attr, f"peer.{attr}")
        t.wrap_method(Peer, "announce_tip", "peer.announce_tip")
        t.wrap_method(Peer, "serve_request", "peer.serve_request", after=self._on_serve)
        t.wrap_method(Peer, "publish", "peer.publish", after=self._on_publish)

        t.wrap_method(Simulation, "run", "simnet.run")
        t.wrap_method(Simulation, "send", "simnet.send", after=self._on_send)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.restore()

    # -- results -------------------------------------------------------------

    def totals(self, result) -> Counter:
        """This run's additive per-layer numbers, to be summed over runs."""
        out = Counter(self.counts)
        for name, (calls, self_ns) in self.tracer.summary().items():
            out[f"{name}.calls"] += calls
            out[f"{name}.self_ns"] += self_ns
        for kind, size in self.wire_bytes.items():
            out[f"wire.bytes.{kind}"] += size
        out["peer.deferred_stuck"] += sum(len(p.deferred) for p in result.peers.values())
        out["simnet.lifecycle_events"] += sum(1 for a in result.scenario.script if a.action in ("partition", "heal"))
        for line in result.trace.lines:
            fields = line.split(None, 4)
            if fields[1] == "drop":
                reason = "offline" if fields[3].startswith("offline") else fields[3]
                out[f"simnet.drops.{reason}"] += 1
        out["tracing.spans"] += len(self.tracer.span_start)
        return out

    def fetch_waits(self) -> list[int]:
        """Ticks from a peer's first Request for a revision to its landing there."""
        return [
            self.applied_tick[key] - sent for key, sent in self.requested_tick.items() if key in self.applied_tick
        ]


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(ordered: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list; 0 when it is empty."""
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)] if ordered else 0


def _p50(values: list[int]) -> int:
    return percentile(sorted(values), 50)


SPANS = (
    "crypto.payload_root",
    "crypto.merkle_prove",
    "crypto.verify_chunk",
    "ledger.submit_tx",
    "ledger.mine_block",
    "ledger.adopt_block",
    "ledger.validate_block.tip",
    "ledger.validate_block.fork",
    "registry.query_by_lineage",
    "registry.fork_view",
    "docstore.apply",
    "docstore.rollback_to",
    "wire.encode_message",
    "wire.decode_message",
    "peer.handle_message",
    "peer.serve_request",
    "peer.on_poll",
)


def layer_metrics(tot: Counter, fetch_waits, inclusion_waits, revisions, untraced_s, traced_s) -> dict:
    """Per-layer metrics from totals summed over the traced runs."""
    m = {}
    for span in SPANS:
        m[f"{span}.calls"] = tot[f"{span}.calls"]
        m[f"{span}.self_s"] = tot[f"{span}.self_ns"] / 1e9
    m["crypto.merkle_prove.leaf_hashes"] = tot["crypto.merkle_prove.leaf_hashes"]
    fork, tip = m["ledger.validate_block.fork.calls"], m["ledger.validate_block.tip.calls"]
    m["ledger.validate_block.fork_share"] = _share(fork, fork + tip)
    m["ledger.inclusion_wait_ticks.p50"] = _p50(inclusion_waits)
    m["ledger.chain_bytes_per_mutation"] = _share(tot["ledger.canonical_tx_bytes"], tot["ledger.canonical_txs"])
    m["registry.query_by_lineage.entries_scanned_per_call"] = _share(
        tot["registry.query_by_lineage.entries_scanned"], m["registry.query_by_lineage.calls"]
    )
    m["registry.rollback_to_height.calls"] = tot["registry.rollback_to_height.calls"]
    m["docstore.apply.buffered_share"] = _share(tot["docstore.apply.buffered"], m["docstore.apply.calls"])
    m["docstore.rollback_to.revisions_removed"] = tot["docstore.rollback_to.revisions_removed"]
    m["wire.encode_message.bytes"] = sum(tot[f"wire.bytes.{kind}"] for kind in WIRE_KINDS.values())
    m["wire.encodes_per_distinct_message"] = _share(m["wire.encode_message.calls"], tot["wire.distinct_messages"])
    for kind in WIRE_KINDS.values():
        m[f"wire.bytes.{kind}"] = tot[f"wire.bytes.{kind}"]
    m["wire.bytes_per_revision"] = _share(m["wire.encode_message.bytes"], revisions)
    m["peer.serve_request.refusal_share"] = _share(tot["peer.serve_request.refusals"], m["peer.serve_request.calls"])
    m["peer.fetch.requests_per_fetched"] = _share(tot["peer.fetch.requests"], len(fetch_waits))
    m["peer.fetch_wait_ticks.p50"] = _p50(fetch_waits)
    m["peer.deferred_stuck"] = tot["peer.deferred_stuck"]
    # every event the simulator hands to a peer or decodes, plus partition/heal
    events = tot["wire.decode_message.calls"] + tot["simnet.lifecycle_events"]
    events += sum(tot[f"peer.{attr}.calls"] for attr in PEER_ENTRY_POINTS if attr != "handle_message")
    m["simnet.events"] = events
    m["simnet.events_per_s"] = events / untraced_s
    # run time outside peer entry points and decode_message
    m["simnet.dispatch.self_s"] = tot["simnet.run.self_ns"] / 1e9
    for reason in ("partitioned", "offline", "batch"):
        m[f"simnet.drops.{reason}"] = tot[f"simnet.drops.{reason}"]
    m["tracing.spans"] = tot["tracing.spans"]
    m["tracing.overhead_s"] = traced_s - untraced_s
    return m
