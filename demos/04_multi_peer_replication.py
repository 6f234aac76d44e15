"""Multi-peer replication under downtime and a network partition.

Five peers publish, edit and delete documents while one of them sleeps
through half the action and a partition splits the network into two
islands that each keep mining. After the heal, the longer branch wins,
rolled-back mutations are re-mined, payloads are re-fetched and verified,
and every peer ends byte-identical.

Usage:
    python demos/04_multi_peer_replication.py
"""

from ethercouch.crypto import digest_hex
from ethercouch.peer import PeerConfig
from ethercouch.simnet import Scenario, ScriptAction, run_scenario


def main():
    print("=" * 64)
    print("Five peers, one nap, one partition, full convergence")
    print("=" * 64)

    scenario = Scenario(
        seed=2718,
        peers=[PeerConfig(name=f"p{i}") for i in range(5)],
        script=[
            ScriptAction(5, "publish", "p0", {"doc": "manual", "topic": "docs", "size": 900}),
            ScriptAction(30, "edit", "p1", {"doc": "manual", "size": 700}),
            ScriptAction(50, "offline", "p4", {}),
            ScriptAction(70, "publish", "p2", {"doc": "roster", "topic": "ops", "size": 400}),
            ScriptAction(120, "partition", "", {"groups": [["p0", "p1"], ["p2", "p3", "p4"]]}),
            ScriptAction(140, "publish", "p0", {"doc": "west-note", "topic": "docs", "size": 300}),
            ScriptAction(150, "publish", "p2", {"doc": "east-note", "topic": "ops", "size": 300}),
            ScriptAction(400, "heal", "", {}),
            ScriptAction(430, "online", "p4", {}),
            ScriptAction(460, "delete", "p1", {"doc": "manual"}),
        ],
        latency=(1, 6),
        mean_block_interval=40,
    )

    result = run_scenario(scenario, until=60_000)
    print(f"\nsimulation quiesced at tick {result.clock}")
    print(f"trace digest: {result.trace.digest()}")

    print("\nper-peer final state:")
    for name, peer in result.peers.items():
        print(
            f"  {name}: tip={digest_hex(peer.chain.tip)[:12]} h={peer.chain.height} "
            f"docs={len(peer.store.docs)} pending={len(peer.pending)}"
        )

    tips = {p.chain.tip for p in result.peers.values()}
    stores = {p.store.dump_text() for p in result.peers.values()}
    registries = {p.chain.registry.dump_text() for p in result.peers.values()}
    print(f"\ndistinct chain tips:      {len(tips)}  ({digest_hex(next(iter(tips)))[:20]}...)")
    print(f"distinct registry dumps:  {len(registries)}")
    print(f"distinct store dumps:     {len(stores)}")

    interesting = [l for l in result.trace.lines if "rolled back" in l or "unavailable" in l]
    if interesting:
        print("\nrepair activity along the way:")
        for line in interesting[:8]:
            print("   " + line.strip())

    sample = result.peer("p4").store
    print(f"\np4 (the peer that slept) holds {len(sample.docs)} documents,")
    print(f"{sample.payload_bytes()} payload bytes, all fetched and verified after waking up.")


if __name__ == "__main__":
    main()
