"""Insert-scaling benchmark across the three storage modes, plus the
store/mapping verifier used by the CLI.

Per (mode, count) cell, the ethercouch and chainonly modes drive a
single-node scenario: publish ``count`` synthetic maintenance tickets,
mine them, apply them, and time the whole pipeline wall-clock. The plain
mode is the conventional-database baseline: ``count`` direct in-memory
writes into a fresh document store, with no peer and no chain.
``run_matrix`` runs every cell, one mode or several: each count's tickets
are built once, then each cell runs several times, interleaved across
the modes, and reports the mean. Simulated tick counts and byte counters
are functions of the seed alone, so they are identical across
repetitions; only wall time varies.

Byte accounting: ``chain_bytes`` is the total serialized size of the
transactions on the canonical chain. In hash-anchored mode every record
is the same size no matter how big the document is, so chain bytes depend
only on the count; in chain-only mode they grow with the payloads.
``store_bytes`` is the payload volume retained in the document store.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from .crypto import ZERO_DIGEST, digest_hex, hash_bytes, payload_root
from .docstore import Document, Revision, StoreState
from .ledger import ChainState, serialize_tx
from .peer import Mode, PeerConfig, topic_hash
from .simnet import Scenario, ScriptAction, Simulation, deterministic_bytes

TICKET_TOPIC = "maintenance-tickets"
MODES = ("ethercouch", "chainonly", "plain")


@dataclass
class BenchResult:
    mode: str
    count: int
    doc_size: int
    wall_seconds: list[float]
    ticks: list[int]
    chain_bytes: int
    store_bytes: int

    @property
    def mean_wall(self) -> float:
        return statistics.fmean(self.wall_seconds)


def make_ticket(seed: int, index: int, size: int) -> bytes:
    """One synthetic maintenance ticket: a small structured header padded
    with seeded pseudo-random bytes to the requested size."""
    header = f"ticket-{index:08d}|seed={seed}|".encode()
    if len(header) >= size:
        return header[:size]
    return header + deterministic_bytes(f"ticket:{seed}:{index}", size - len(header))


def _tickets(seed: int, size: int, count: int) -> dict[int, bytes]:
    return {i: make_ticket(seed, i, size) for i in range(count)}


def _bench_scenario(mode: str, seed: int, count: int) -> Scenario:
    """One node publishing ``count`` tickets at tick 0; the payloads come
    from the simulation's ``payload_overrides``."""
    script = [ScriptAction(0, "publish", "node0", {"doc": f"ticket-{i}", "topic": TICKET_TOPIC}) for i in range(count)]
    return Scenario(
        seed=seed,
        peers=[PeerConfig(name="node0", mode=Mode(mode))],
        mining_power={"node0": 1.0},
        script=script,
        latency=(1, 1),
        mean_block_interval=50,
        poll_interval=25,
    )


def plain_store(payloads: dict[int, bytes]) -> StoreState:
    """The plain baseline: one direct write per ticket into a fresh store.

    Ticket i becomes revision 1 of lineage ``hash_bytes(b"plain-doc:" +
    b"ticket-<i>")``, held under the zero digest at origin (0, 0). Nothing
    is hashed, chained or replicated, and no peer ever serves this store.
    """
    store = StoreState()
    topic = topic_hash(TICKET_TOPIC)
    for i, payload in payloads.items():
        lineage = hash_bytes(b"plain-doc:" + f"ticket-{i}".encode())
        store.docs[lineage] = Document(lineage, topic, [Revision(1, ZERO_DIGEST, payload, (0, 0))])
    return store


def chain_tx_bytes(chain: ChainState) -> int:
    """Serialized transaction volume on the canonical chain."""
    return sum(len(serialize_tx(tx)) for tx, _, _ in chain.canonical_txs())


def _timed(run):
    """(wall seconds, result) of one call of ``run``."""
    # same discipline as timeit: collect first, then keep the collector
    # out of the timed region so its pauses cannot land on one mode
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = run()
        return time.perf_counter() - t0, result
    finally:
        if was_enabled:
            gc.enable()


def run_once(mode: str, seed: int, payloads: dict[int, bytes]) -> tuple[float, int, int, int]:
    """One timed pipeline run over the tickets ``payloads`` (index ->
    bytes): (wall seconds, ticks, chain bytes, store bytes).

    The timed region is the pipeline itself (publish, mine, apply; for
    plain, the direct writes); payload generation and simulator setup sit
    outside it, and a garbage collection runs first so earlier cells cannot
    pause this one.
    """
    if mode == "plain":
        wall, store = _timed(lambda: plain_store(payloads))
        return wall, 0, 0, store.payload_bytes()
    sim = Simulation(_bench_scenario(mode, seed, len(payloads)))
    sim.payload_overrides = payloads
    wall, _ = _timed(sim.run)
    node = sim.peer("node0")
    if node.chain.mempool or node.pending or node.deferred:
        raise RuntimeError(f"benchmark cell did not quiesce: {mode} count={len(payloads)}")
    return wall, sim.clock, chain_tx_bytes(node.chain), node.store.payload_bytes()


def run_matrix(
    modes: list[str],
    counts: list[int],
    doc_size: int = 4096,
    repetitions: int = 5,
    seed: int = 0,
) -> list[BenchResult]:
    """Run one or more modes over the same counts with repetitions
    interleaved round-robin across the modes.

    Comparing modes by their means calls for a blocked design: machine load
    drifts on the scale of seconds, so running each mode's repetitions as
    one contiguous block lets a slow phase land entirely on one mode. With
    interleaving every repetition index samples all modes back to back.
    Each count's tickets are built once, outside the timed regions, for
    every mode and repetition. Each mode first runs once, untimed, on at
    most 10 tickets, so import and allocator effects do not land on the
    first cell. Results come back in (mode, count) order, one per cell.
    """
    if any(m not in MODES for m in modes):
        raise ValueError(f"mode must be one of {', '.join(MODES)}")
    if not counts:
        raise ValueError("counts must be non-empty")
    if any(c < 1 for c in counts):
        raise ValueError("counts must be positive")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if doc_size < 1:
        raise ValueError("doc_size must be positive")
    payloads = _tickets(seed, doc_size, min(min(counts), 10))
    for mode in modes:
        run_once(mode, seed, payloads)
    cells: dict[tuple[str, int], BenchResult] = {
        (m, c): BenchResult(m, c, doc_size, [], [], 0, 0) for m in modes for c in counts
    }
    for count in counts:
        payloads = _tickets(seed, doc_size, count)
        for _rep in range(repetitions):
            for mode in modes:
                wall, tick, chain_b, store_b = run_once(mode, seed, payloads)
                cell = cells[(mode, count)]
                cell.wall_seconds.append(wall)
                cell.ticks.append(tick)
                cell.chain_bytes = chain_b
                cell.store_bytes = store_b
    return [cells[(m, c)] for m in modes for c in counts]


CSV_HEADER = "mode,count,doc_size,rep,wall_ms,ticks,chain_bytes,store_bytes"


def results_to_csv(results: list[BenchResult]) -> str:
    """Stable row order: per-repetition rows then one mean row per cell."""
    lines = [CSV_HEADER]
    for r in results:
        for rep, (wall, tick) in enumerate(zip(r.wall_seconds, r.ticks)):
            lines.append(
                f"{r.mode},{r.count},{r.doc_size},{rep},{wall * 1000:.3f},{tick},{r.chain_bytes},{r.store_bytes}"
            )
        lines.append(
            f"{r.mode},{r.count},{r.doc_size},mean,{r.mean_wall * 1000:.3f},{r.ticks[0]},{r.chain_bytes},{r.store_bytes}"
        )
    return "\n".join(lines) + "\n"


# -- verification -----------------------------------------------------------


def verify_pair(chain: ChainState, store: StoreState) -> list[str]:
    """Store payload hashes plus the one-to-one mapping between store
    revisions and the chain's registry entries (scoped to the store's topic
    filter and applied-upto mark). The chain itself is not re-checked: a
    ``ChainState`` holds only blocks that ``validate_block`` accepted, which
    ``load`` enforces for a chain file."""
    violations: list[str] = []
    for doc in store.docs.values():
        for rev in doc.revisions:
            if rev.payload is not None and payload_root(rev.payload, store.chunk_size) != rev.data_hash:
                violations.append(
                    f"store lineage={digest_hex(doc.lineage)} seq={rev.seq}: payload does not match hash"
                )
    expected = set()
    if store.applied_upto is not None:
        for e in chain.registry.entries:
            if (e.height, e.index) > store.applied_upto:
                continue
            if store.topics and e.tx.topic_id not in store.topics:
                continue
            expected.add((e.tx.doc_id, e.tx.sequence_id, e.tx.data_hash))
    stored = store.revision_triples()
    for lineage, seq, _ in sorted(expected - stored):
        violations.append(f"missing revision lineage={digest_hex(lineage)} seq={seq}")
    for lineage, seq, _ in sorted(stored - expected):
        violations.append(f"unexpected revision lineage={digest_hex(lineage)} seq={seq}")
    return violations


def verify_dir(path) -> tuple[list[str], int]:
    """Verify every <name>.chain / <name>.store pair under a directory.
    Returns (violations, number of chains checked). A chain with no store
    is checked by loading it. A chain that fails to load, a directory with
    no chain, or a store with no chain beside it raises ``ValueError``."""
    root = Path(path)
    chains = sorted(root.glob("*.chain"))
    if not chains:
        raise ValueError(f"no .chain file in {root}")
    for store_file in sorted(root.glob("*.store")):
        if not store_file.with_suffix(".chain").exists():
            raise ValueError(f"{store_file.name} has no .chain file beside it")
    violations: list[str] = []
    for chain_file in chains:
        chain = ChainState.load(chain_file)
        store_file = chain_file.with_suffix(".store")
        if store_file.exists():
            violations.extend(f"{chain_file.stem}: {v}" for v in verify_pair(chain, StoreState.load(store_file)))
    return violations, len(chains)
