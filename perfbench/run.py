"""Replication benchmark for ethercouch.

    python3 perfbench/run.py [--workload insert|replicate|large-docs|all]
                             [--seed N] [--seconds S] [--trace 0|1]

One run of one workload happens in one single-threaded process. It
covers the workload's ``parts`` (workloads.json): the workload generated
from sub-seeds seed*parts .. seed*parts+parts-1, so that one run averages
over several draws of the simulated network instead of resting on one.
It has three steps:

1. an untimed warm-up (a quarter of one run), then rounds of untraced
   runs, each part once per round, for about ``--seconds`` and at least
   one round: a timed set-up (script, payloads, Simulation), then a
   ``Simulation.run`` to the workload's horizon, timed in SLICES steps of
   simulated time. The collector runs before each
   timed region and is off inside it, as in ``ethercouch bench``. A part's
   runs share their inputs, so their trace and state digests must match.
   Set-up and step times are in reference seconds: wall seconds scaled
   by the host's speed, read just after each of them (refclock.py). The
   run time of a part is the sum over its steps of each step's fastest
   time over the rounds.
2. peak RSS is read here, before any checking code runs.
3. one traced run per part (see layers.py). Its trace and state digests
   must equal the untraced ones, and no wrapper may stay bound after it.
   The correctness gate and the behaviour fingerprint run on its final
   state, and the simulated-time metrics come from it.

End-to-end metrics are printed in both modes; ``--trace 1`` adds the
per-layer metrics and the tracing overhead and writes the spans to
``perfbench/out/<workload>.spans.tsv``. The last line of output is one
JSON object: ``correct``, ``attempted``, ``failed`` and the metrics of the
mode. ``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from refclock import host_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RECORD_BYTES = 166  # every hash-anchored mutation record, whatever the payload
# A timed run is cut into SLICES equal steps of simulated time, each timed
# in reference seconds (refclock.py). A step repeats the same work in every
# round, so its fastest time is a steady estimate of its cost: a step slowed
# by a burst of other load on the host is outrun by one that was not.
SLICES = 200

# workload names and (metric, unit) lists are the ones BENCHMARK.json declares;
# end_to_end is the JSON of --trace 0, per_layer the JSON of --trace 1
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
# also end to end, but 0 or constant on some workload, so printed only and
# carried per layer (wire, ledger) or as attempted/failed in the JSON
REPORTED_ONLY = [
    ("wire_bytes_per_revision", "B"),
    ("chain_bytes_per_mutation", "B"),
    ("failed_share", "1"),
]


def _use_checkout_sources() -> None:
    """Benchmark the library of this checkout, never an installed copy."""
    if not (ROOT / "src" / "ethercouch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ethercouch sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


# -- one run of one part --------------------------------------------------------


def sub_seeds(name: str, seed: int) -> list[int]:
    from workloads import SPECS

    parts = SPECS[name]["parts"]
    return list(range(seed * parts, (seed + 1) * parts))


def _collected(fn, *args):
    """``fn(*args)`` and its wall seconds, with the collector run before and
    off inside, as in ``ethercouch bench``."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
    finally:
        gc.enable()
    return out, wall


def _build(name: str, part: int):
    from ethercouch.simnet import Simulation
    from workloads import build

    w = build(name, part)
    sim = Simulation(w.scenario)
    sim.payload_overrides = w.payloads
    return w, sim


def set_up(name: str, part: int):
    """The workload's script and payloads and its Simulation, and the
    reference seconds (refclock.py) that took."""
    (w, sim), wall = _collected(_build, name, part)
    return w, sim, wall * host_factor()


def _sliced_run(sim, horizon: int, slices: int):
    """``sim.run`` to ``horizon`` in ``slices`` equal steps of simulated time:
    the result and each step's reference seconds. Stepping processes the
    same events in the same order as one call does."""
    costs = []
    for k in range(1, slices + 1):
        t0 = time.perf_counter()
        result = sim.run(horizon * k // slices)
        wall = time.perf_counter() - t0
        costs.append(wall * host_factor())
    return result, costs


def timed_run(sim, horizon: int, slices: int = 1):
    """One run to ``horizon`` with the collector run before and off inside:
    the result and the reference seconds of each of its ``slices`` steps."""
    (result, costs), _ = _collected(_sliced_run, sim, horizon, slices)
    return result, costs


def state_digest(result) -> str:
    """SHA-256 over every peer's tip and held revisions, fed a few bytes at a
    time so that it adds nothing to the run's peak memory."""
    h = hashlib.sha256()
    for name, peer in sorted(result.peers.items()):
        h.update(name.encode())
        h.update(peer.chain.tip)
        for doc in peer.store.docs.values():
            h.update(doc.lineage + bytes([doc.deleted]))
            for rev in doc.revisions:
                h.update(rev.seq.to_bytes(8, "big") + rev.data_hash + bytes([rev.payload is None]))
    return h.hexdigest()


def fingerprint(result) -> dict:
    """Trace digest plus SHA-256 of every peer's saved .chain and .store bytes."""
    scratch = OUT / "fingerprint"
    scratch.mkdir(parents=True, exist_ok=True)
    peers = {}
    for name, peer in sorted(result.peers.items()):
        hashes = {}
        for ext, state in (("chain", peer.chain), ("store", peer.store)):
            path = scratch / f"{name}.{ext}"
            state.save(path)
            hashes[ext] = hashlib.sha256(path.read_bytes()).hexdigest()
            path.unlink()
        peers[name] = hashes
    return {"trace": result.trace.digest(), "peers": peers}


def revisions_held(result) -> int:
    return sum(len(doc.revisions) for p in result.peers.values() for doc in p.store.docs.values())


def gate(result, prints: dict) -> tuple[list[str], int]:
    """Correctness checks on a final state: (failures, verify violations)."""
    from ethercouch.bench import verify_pair
    from ethercouch.ledger import serialize_tx

    failures = []
    violations = 0
    unfiltered = result.unfiltered_peers()
    if len({p.chain.tip for p in unfiltered}) != 1:
        failures.append("unfiltered peers end on different tips")
    if len({p.chain.registry.dump_text() for p in unfiltered}) != 1:
        failures.append("unfiltered peers hold different registries")
    if len({prints["peers"][p.name]["store"] for p in unfiltered}) != 1:
        failures.append("unfiltered peers hold different stores")
    for peer in result.peers.values():
        topics = peer.config.topics
        if topics and any(doc.topic_id not in topics for doc in peer.store.docs.values()):
            failures.append(f"{peer.name} holds documents outside its topic filter")
        found = verify_pair(peer.chain, peer.store)
        violations += len(found)
        if found:
            failures.append(f"{peer.name}: {len(found)} verify violations, first: {found[0]}")
    sizes = {len(serialize_tx(tx)) for tx, _, _ in unfiltered[0].chain.canonical_txs()}
    if sizes != {RECORD_BYTES}:
        failures.append(f"mutation records are not all {RECORD_BYTES} B: sizes {sorted(sizes)}")
    return failures, violations


def replication(w, result, probe) -> tuple[Counter, list[int], list[int]]:
    """The run's attempted/failed counts, the publish-to-applied ticks of every
    (canonical mutation, covering peer) pair and the publish-to-inclusion
    ticks of every canonical mutation."""
    from ethercouch.ledger import lineage_of, serialize_tx, tx_digest

    canonical = [tx for tx, _, _ in result.unfiltered_peers()[0].chain.canonical_txs()]
    held = {name: p.store.revision_triples() for name, p in result.peers.items()}
    out = Counter()
    latencies, inclusion = [], []
    out["intents"] = sum(1 for a in w.scenario.script if a.action in ("publish", "edit", "delete"))
    out["failed_intents"] = out["intents"] - sum(1 for tx in canonical if tx_digest(tx) in probe.publish_tick)
    out["ledger.canonical_txs"] = len(canonical)
    out["ledger.canonical_tx_bytes"] = sum(len(serialize_tx(tx)) for tx in canonical)
    for tx in canonical:
        d, lineage = tx_digest(tx), lineage_of(tx)
        published = probe.publish_tick[d]
        inclusion.append(probe.included_tick[d] - published)
        for name, peer in result.peers.items():
            if peer.config.topics and tx.topic_id not in peer.config.topics:
                continue
            out["pairs"] += 1
            if (lineage, tx.sequence_id, tx.data_hash) in held[name]:
                latencies.append(probe.applied_tick[(name, lineage, tx.sequence_id)] - published)
            else:
                out["unapplied"] += 1
    return out, latencies, inclusion


def isolation(expect: dict[str, str], layers: dict) -> list[str]:
    """The workload's claims about which layers it does or does not use:
    metric -> "zero" or "positive", checked on the traced runs."""
    failures = []
    for metric, want in expect.items():
        value = layers[metric]
        if (value == 0) != (want == "zero"):
            failures.append(f"{metric} is {value:g}, expected {want}")
    return failures


# -- one workload -------------------------------------------------------------------


def tail(ordered: list[int]) -> tuple[int, str, int]:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it:
    (value, percentile, samples beyond)."""
    from layers import percentile

    for q, label in ((99.9, "p99.9"), (99, "p99"), (90, "p90")):
        value = percentile(ordered, q)
        beyond = len(ordered) - bisect.bisect_right(ordered, value)
        if beyond >= 10:
            break
    return value, label, beyond


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from layers import LayerProbe, layer_metrics, percentile
    from tracer import leftover_wrappers
    from workloads import SPECS

    parts = sub_seeds(name, seed)
    setups: list[float] = []
    # part -> the fastest reference seconds seen so far for each slice of its run
    fastest: dict[int, list[float]] = {part: [math.inf] * SLICES for part in parts}
    rounds = 0
    states: dict[int, set[tuple[str, str]]] = {part: set() for part in parts}
    failures: list[str] = []
    # an untimed quarter of a run, so that no timed run pays for a cold process
    w, sim, _ = set_up(name, parts[0])
    timed_run(sim, w.horizon // 4)
    del w, sim
    started = round_started = time.perf_counter()
    # after the first, a round starts only if one as long as the last ends
    # within --seconds
    while rounds == 0 or 2 * time.perf_counter() - round_started - started <= seconds:
        round_started = time.perf_counter()
        for part in parts:  # one round runs every part once
            w, sim, setup_s = set_up(name, part)
            result, costs = timed_run(sim, w.horizon, SLICES)
            setups.append(setup_s)
            fastest[part] = [min(pair) for pair in zip(fastest[part], costs)]
            states[part].add((result.trace.digest(), state_digest(result)))
            del w, sim, result
        rounds += 1
    # read before any check, fingerprint or tracing: it covers set-up, run and
    # the two digests above
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for part, seen in states.items():
        if len(seen) != 1:
            failures.append(f"part {part}: untraced runs disagree, {len(seen)} distinct trace/state digests")
    untraced_s = sum(sum(v) for v in fastest.values())

    prints: dict[int, dict] = {}
    violations = 0
    revisions = 0
    totals = Counter()
    latencies, inclusion, fetch_waits = [], [], []
    traced_s = 0.0
    spans = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = open(OUT / f"{name}.spans.tsv", "w")
        spans.write("part\tindex\tname\tstart_ns\tend_ns\tparent\n")
    try:
        for part in parts:
            w, sim, setup_s = set_up(name, part)
            setups.append(setup_s)
            with LayerProbe(sim) as probe:
                result, costs = timed_run(sim, w.horizon, SLICES)
            traced_s += sum(costs)
            leftover = leftover_wrappers()
            if leftover:
                failures.append(f"part {part}: wrappers still bound after the traced run: {leftover}")
            if (result.trace.digest(), state_digest(result)) not in states[part]:
                failures.append(f"part {part}: tracing changed behaviour, the trace or state digests differ")
            # the gate and fingerprint run on the traced final state, which
            # the check above shows to equal the untraced one
            prints[part] = fingerprint(result)
            found, n = gate(result, prints[part])
            failures += [f"part {part}: {f}" for f in found]
            violations += n
            revisions += revisions_held(result)
            counts, lat, inc = replication(w, result, probe)
            totals.update(counts)
            totals.update(probe.totals(result))
            latencies += lat
            inclusion += inc
            fetch_waits += probe.fetch_waits()
            if spans:
                probe.tracer.write_spans(spans, str(part))
            del w, sim, result, probe
    finally:
        if spans:
            spans.close()

    latencies.sort()
    tail_value, tail_label, beyond = tail(latencies)
    layers = layer_metrics(totals, fetch_waits, inclusion, revisions, untraced_s, traced_s)
    failures += isolation(SPECS[name]["expect"], layers)
    attempted = totals["intents"] + totals["pairs"]
    failed = totals["failed_intents"] + totals["unapplied"] + violations
    e2e = {
        "setup_s": statistics.median(setups),
        "revisions_per_s": revisions / untraced_s,
        "replication_p50_ticks": percentile(latencies, 50),
        "replication_tail_ticks": tail_value,
        "peak_rss_mib": peak_rss_mib,
        "wire_bytes_per_revision": layers["wire.bytes_per_revision"],
        "chain_bytes_per_mutation": layers["ledger.chain_bytes_per_mutation"],
        "failed_share": failed / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, untraced and traced, in reference s",
        "revisions_per_s": (
            f"{revisions} revisions / {untraced_s:.3f} reference s, the sum over parts and {SLICES} "
            f"slices of each slice's fastest of {rounds} runs"
        ),
        "replication_p50_ticks": f"n={len(latencies)}",
        "replication_tail_ticks": f"{tail_label}, {beyond} samples beyond, n={len(latencies)}",
        "peak_rss_mib": "warm-up, set-ups and untraced runs; read before any check or tracing",
        "failed_share": (
            f"{failed} of {attempted}: {totals['failed_intents']} of {totals['intents']} intents never on chain, "
            f"{totals['unapplied']} of {totals['pairs']} covering pairs unapplied, {violations} verify violations"
        ),
        "tracing.overhead_s": (
            f"traced {traced_s:.3f} - untraced {untraced_s:.3f}, in reference s; span self times are wall s"
        ),
    }
    return {
        "workload": name,
        "seed": seed,
        "fingerprints": prints,
        "failures": failures,
        "e2e": e2e,
        "layers": layers,
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
    }


def behaviour(name: str, prints: dict[int, dict]) -> str:
    """Compare with the recorded fingerprints: a behaviour change, not a slowdown."""
    recorded = json.loads((HERE / "fingerprints.json").read_text())
    missing = [part for part in prints if f"{name}:{part}" not in recorded]
    if missing:
        return f"not recorded for parts {missing}"
    changed = []
    for part, got in prints.items():
        want = recorded[f"{name}:{part}"]
        if want["trace"] != got["trace"]:
            changed.append(f"{part}:trace")
        for peer, hashes in want["peers"].items():
            changed += [f"{part}:{peer}.{ext}" for ext in hashes if got["peers"].get(peer, {}).get(ext) != hashes[ext]]
    if changed:
        return f"CHANGED, not a slowdown: {', '.join(changed)} differ from the recorded fingerprints"
    return "unchanged: trace digests and every peer's chain/store bytes match the recorded fingerprints"


def report(out: dict, trace: bool) -> dict:
    print(f"workload {out['workload']} seed {out['seed']} (parts {sorted(out['fingerprints'])})")
    rows = END_TO_END + REPORTED_ONLY + (PER_LAYER if trace else [])
    for metric, unit in rows:
        value = out["e2e"].get(metric, out["layers"].get(metric))
        note = out["notes"].get(metric, "")
        print(f"  {metric:<52} {value:>14.6g} {unit:<6} {note}".rstrip())
    correct = not out["failures"]
    print(f"  correct: {'yes' if correct else 'NO'}")
    for failure in out["failures"]:
        print(f"    - {failure}")
    print(f"  behaviour: {behaviour(out['workload'], out['fingerprints'])}")
    names, source = (PER_LAYER, out["layers"]) if trace else (END_TO_END, out["e2e"])
    return {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {metric: {"value": source[metric], "unit": unit} for metric, unit in names},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Replication benchmark for ethercouch.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's default_seed")
    parser.add_argument(
        "--seconds",
        type=float,
        default=20.0,
        help="time untraced rounds for about this long: at least one, and another only if it should end in time",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _use_checkout_sources()
    if args.workload == "all":
        final = run_all(args)
    else:
        from workloads import SPECS

        seed = SPECS[args.workload]["default_seed"] if args.seed is None else args.seed
        final = report(run_workload(args.workload, seed, args.seconds, bool(args.trace)), bool(args.trace))
    print(json.dumps(final), flush=True)


if __name__ == "__main__":
    main()
