"""Tests of the benchmark itself: deterministic generators, tracing and
sliced timing that leave behaviour and bindings as they found them, and
the metrics that BENCHMARK.json declares."""

import os
import re
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
DIGESTS = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "print(' '.join(workloads.digest(workloads.build(n, 0)) for n in sys.argv[3:]))"
)


def _generator_digests(hash_seed: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, "-c", DIGESTS, str(ROOT / "src"), str(HERE), *run.WORKLOADS]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True, timeout=300)
    return proc.stdout.split()


def test_generators_match_across_processes_and_hash_seeds():
    first = _generator_digests("0")
    assert len(first) == len(run.WORKLOADS)
    assert _generator_digests("4242") == first


def test_tracing_keeps_behaviour_and_unbinds_every_wrapper():
    from ethercouch import peer, simnet
    from ethercouch.peer import Peer, PeerConfig, topic_hash
    from ethercouch.simnet import Scenario, ScriptAction, Simulation
    from layers import LayerProbe, layer_metrics
    from tracer import leftover_wrappers

    def scenario():
        return Scenario(
            seed=3,
            peers=[PeerConfig(name="a"), PeerConfig(name="b"), PeerConfig(name="c", topics=frozenset({topic_hash("x")}))],
            script=[
                ScriptAction(0, "publish", "a", {"doc": "d", "topic": "x", "size": 9000}),
                ScriptAction(200, "edit", "c", {"doc": "d", "size": 9000}),
            ],
            latency=(1, 4),
            mean_block_interval=20,
        )

    plain = Simulation(scenario()).run(until=2000)
    handle, prove, encode = Peer.handle_message, peer.merkle_prove, simnet.encode_message
    sim = Simulation(scenario())
    with LayerProbe(sim) as probe:
        traced = sim.run(until=2000)
    assert traced.trace.digest() == plain.trace.digest()
    assert run.state_digest(traced) == run.state_digest(plain)
    assert leftover_wrappers() == []
    assert (Peer.handle_message, peer.merkle_prove, simnet.encode_message) == (handle, prove, encode)
    totals = probe.totals(traced)
    assert totals["crypto.merkle_prove.leaf_hashes"] == 3 * totals["crypto.merkle_prove.calls"]
    assert totals["peer.handle_message.calls"] > 0
    metrics = layer_metrics(totals, probe.fetch_waits(), [], 1, 1.0, 1.0)
    assert set(metrics) == {name for name, _ in run.PER_LAYER}


def test_sliced_run_matches_one_call():
    def final(slices):
        _, sim, setup_s = run.set_up("replicate", 0)
        result, costs = run.timed_run(sim, 1500, slices)  # the first quarter of the run
        assert setup_s > 0 and len(costs) == slices and all(c > 0 for c in costs)
        return result.trace.digest(), run.state_digest(result)

    assert final(37) == final(1)


def test_metric_names_counts_and_bounds():
    names = [name for name, _ in run.END_TO_END + run.REPORTED_ONLY + run.PER_LAYER]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 1 <= len(run.END_TO_END) <= 16
    assert 1 <= len(run.PER_LAYER) <= 128
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_isolation_flags_a_layer_that_should_be_idle():
    expect = {"wire.encode_message.calls": "zero", "ledger.validate_block.fork.calls": "positive"}
    assert run.isolation(expect, {"wire.encode_message.calls": 0, "ledger.validate_block.fork.calls": 4}) == []
    found = run.isolation(expect, {"wire.encode_message.calls": 2, "ledger.validate_block.fork.calls": 0})
    assert len(found) == 2
