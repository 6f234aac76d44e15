"""Command-line front end.

Subcommands:
  bench          run the insert-scaling benchmark, write CSV
  run            execute a scenario file, write trace and node state dumps
  dump-chain     render a saved chain file as text, one block per line
  dump-registry  render the data registry that loading a chain file
                 builds, block by block, as it checks each block
  dump-store     render a store snapshot as text
  verify         load every chain (which checks each block) and recompute
                 store payload roots and the one-to-one mapping over a
                 run's output directory; nonzero exit on violations
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import MODES, results_to_csv, run_matrix, verify_dir
from .docstore import StoreState
from .ledger import ChainState
from .simnet import run_scenario, scenario_from_json


def _cmd_bench(args) -> int:
    counts = [int(c) for c in args.counts.split(",") if c]
    # with "all", repetitions interleave across modes so load drift hits them equally
    modes = list(MODES) if args.mode == "all" else [args.mode]
    all_results = run_matrix(modes, counts, args.doc_size, args.reps, args.seed)
    for r in all_results:
        print(
            f"{r.mode:>10} count={r.count:>7} mean={r.mean_wall * 1000:9.2f} ms "
            f"ticks={r.ticks[0]} chain_bytes={r.chain_bytes} store_bytes={r.store_bytes}"
        )
    if args.out:
        Path(args.out).write_text(results_to_csv(all_results))
        print(f"wrote {args.out}")
    return 0


def _cmd_run(args) -> int:
    result = run_scenario(scenario_from_json(Path(args.scenario).read_text()), args.until)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.log").write_text(result.trace.text())
    for name, peer in result.peers.items():
        peer.chain.save(out / f"{name}.chain")
        peer.store.save(out / f"{name}.store")
    print(f"clock {result.clock}")
    print(f"digest {result.trace.digest()}")
    print(f"wrote {out}/trace.log and {2 * len(result.peers)} state files")
    return 0


def _cmd_dump_chain(args) -> int:
    chain = ChainState.load(args.file)
    sys.stdout.write(chain.dump_text())
    return 0


def _cmd_dump_registry(args) -> int:
    chain = ChainState.load(args.file)
    sys.stdout.write(chain.registry.dump_text())
    return 0


def _cmd_dump_store(args) -> int:
    store = StoreState.load(args.file)
    sys.stdout.write(store.dump_text())
    return 0


def _cmd_verify(args) -> int:
    violations, checked = verify_dir(args.dir)
    for v in violations:
        print(v)
    print(f"{len(violations)} violations across {checked} node states")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ethercouch",
        description="Hash-anchored peer-to-peer document replication: simulator and benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="run the insert-scaling benchmark")
    p.add_argument("--mode", choices=MODES + ("all",), default="all")
    p.add_argument("--counts", default="10,100,1000", help="comma-separated dataset counts")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--doc-size", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="", help="CSV output path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--until", type=int, default=None, help="stop after this tick")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("dump-chain", help="render a chain file as text")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dump_chain)

    p = sub.add_parser("dump-registry", help="render the data registry derived from a chain file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dump_registry)

    p = sub.add_parser("dump-store", help="render a store snapshot as text")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dump_store)

    p = sub.add_parser("verify", help="check chains, store roots and the mapping over a run directory")
    p.add_argument("dir")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
