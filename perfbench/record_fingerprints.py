"""Record the behaviour fingerprints that run.py compares against.

    python3 perfbench/record_fingerprints.py [SEED ...]

For every workload and every part of the given seeds (default 0..9), one
untraced run to the horizon; its trace digest and the SHA-256 of every
peer's saved .chain/.store bytes go to perfbench/fingerprints.json. Rerun
only when a change is meant to alter behaviour.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv: list[str]) -> None:
    run._use_checkout_sources()
    seeds = [int(s) for s in argv] or list(range(10))
    path = run.HERE / "fingerprints.json"
    recorded = json.loads(path.read_text())
    for name in run.WORKLOADS:
        for seed in seeds:
            for part in run.sub_seeds(name, seed):
                w, sim, _ = run.set_up(name, part)
                result, _ = run.timed_run(sim, w.horizon)
                recorded[f"{name}:{part}"] = run.fingerprint(result)
                print(f"{name}:{part} {recorded[f'{name}:{part}']['trace']}", flush=True)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
