"""Record the golden corpus that tests/test_golden_corpus.py checks.

    PYTHONPATH=src python3 tests/record_golden_corpus.py

Every simulated case below is run once to completion; its trace digest and
the SHA-256 of every peer's saved .chain and .store bytes go to
tests/golden_corpus.json. The corpus pins behaviour in absolute terms, so a
change that alters replication the same way in every run still shows.
Rerun only when a change is meant to alter behaviour.

The cases are:
- ``convergence:<seed>``: the seeded multi-peer scenarios of the acceptance
  suite (offline windows, a partition, a filtered peer), with their
  single-chunk payloads;
- ``chunked:<seed>``: the same scenarios cut into 64-byte chunks, so most
  payloads span 1-11 chunks and every Response carries real proofs,
  including trees with odd levels;
- ``large:<n>``: four peers trading 20-70 KiB documents in 4 KiB chunks,
  with an offline peer that catches up by pulling;
- ``bench:<mode>``: one single-node insert cell of ``ethercouch bench``
  (seed 7, 60 tickets of 4,096 bytes).
  The plain cell runs no simulation and keeps no chain: its entry is the
  SHA-256 of the store that the bench's direct writes build.

One more entry, ``convergence-suite``, is a single SHA-256 over all 200
seeded scenarios of the acceptance suite: each one's trace digest, and
every peer's chain tip and store snapshot at the end
(``conftest.convergence_pin``). The acceptance suite runs those scenarios
anyway, so checking it adds no simulation time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from functools import partial
from pathlib import Path

from conftest import CONVERGENCE_SEEDS, build_convergence_scenario, convergence_pin, run_convergence_scenario
from ethercouch.bench import _bench_scenario, _tickets, plain_store
from ethercouch.peer import PeerConfig
from ethercouch.simnet import Scenario, ScriptAction, Simulation

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "golden_corpus.json"
SEEDS = range(10)
HORIZON = 200_000
SUITE_PIN = "convergence-suite"


def _large_scenario(n: int):
    script = [ScriptAction(40, "offline", "p3"), ScriptAction(400, "online", "p3")]
    for i in range(6):
        size = 20_000 + 9_000 * ((i * 7 + n) % 6)
        script.append(ScriptAction(10 + 30 * i, "publish", f"p{i % 3}", {"doc": f"d{i}", "topic": "t", "size": size}))
        if i % 2:
            script.append(ScriptAction(25 + 30 * i, "edit", f"p{(i + 1) % 3}", {"doc": f"d{i - 1}", "size": size // 2}))
    script.sort(key=lambda a: a.at)
    return Scenario(
        seed=n,
        peers=[PeerConfig(name=f"p{i}") for i in range(4)],
        script=script,
        latency=(1, 5),
        mean_block_interval=30,
    )


def cases():
    """(name, fingerprint of the case as a call) for every corpus entry."""
    for seed in SEEDS:
        yield f"convergence:{seed}", partial(fingerprint, build_convergence_scenario(seed), {})
    for seed in SEEDS:
        yield f"chunked:{seed}", partial(fingerprint, dataclasses.replace(build_convergence_scenario(seed), chunk_size=64), {})
    for n in range(2):
        yield f"large:{n}", partial(fingerprint, _large_scenario(n), {})
    for mode in ("ethercouch", "chainonly"):
        yield f"bench:{mode}", partial(fingerprint, _bench_scenario(mode, 7, 60), _tickets(7, 4096, 60))
    yield "bench:plain", plain_fingerprint


def plain_fingerprint() -> dict:
    """SHA-256 of the store the bench's plain cell writes (no chain, no trace)."""
    store = plain_store(_tickets(7, 4096, 60))
    return {"peers": {"node0": {"store": hashlib.sha256(store.snapshot_bytes()).hexdigest()}}}


def fingerprint(scenario, overrides) -> dict:
    """Trace digest plus SHA-256 of every peer's saved .chain/.store bytes."""
    sim = Simulation(scenario)
    sim.payload_overrides = overrides
    result = sim.run(until=HORIZON)
    peers = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, peer in sorted(result.peers.items()):
            chain = Path(tmp) / f"{name}.chain"
            peer.chain.save(chain)
            peers[name] = {
                "chain": hashlib.sha256(chain.read_bytes()).hexdigest(),
                "store": hashlib.sha256(peer.store.snapshot_bytes()).hexdigest(),
            }
    return {"trace": result.trace.digest(), "peers": peers}


def main() -> None:
    corpus = {}
    for name, record in cases():
        corpus[name] = record()
        print(f"{name} {corpus[name].get('trace', '-')}", flush=True)
    corpus[SUITE_PIN] = convergence_pin(run_convergence_scenario(seed) for seed in CONVERGENCE_SEEDS)
    print(f"{SUITE_PIN} {corpus[SUITE_PIN]}", flush=True)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
