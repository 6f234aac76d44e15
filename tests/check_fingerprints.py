"""Check the benchmark's recorded behaviour fingerprints against this checkout.

    python3 tests/check_fingerprints.py [SEED ...]

For every workload of ``perfbench/run.py`` and every part of the given
seeds (default 0..9: all 120 parts ``perfbench/fingerprints.json`` holds),
one untraced run to the workload's horizon. Its trace digest and the
SHA-256 of every peer's saved ``.chain`` and ``.store`` bytes must equal
the recorded fingerprint. Prints one line per part and exits 1 on any
difference, 0 when every part matches.

``perfbench/run.py`` is imported, not changed, and nothing is written
under ``perfbench/``: the saved files go to a temporary directory. The
runs take a few minutes, so this is a script, not a pytest module, and
tier-1 does not collect it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (perfbench/run.py)


def main(argv: list[str]) -> int:
    run._use_checkout_sources()
    seeds = [int(s) for s in argv] or list(range(10))
    recorded = json.loads((run.HERE / "fingerprints.json").read_text())
    checked, changed = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        run.OUT = Path(tmp)  # run.fingerprint saves each peer's files under OUT
        for name in run.WORKLOADS:
            for seed in seeds:
                for part in run.sub_seeds(name, seed):
                    key = f"{name}:{part}"
                    w, sim = run._build(name, part)
                    now = run.fingerprint(sim.run(w.horizon))
                    same = recorded.get(key) == now
                    checked += 1
                    if not same:
                        changed.append(key)
                    print(f"{key} {'ok' if same else 'CHANGED'} {now['trace']}", flush=True)
    if changed:
        print(f"{len(changed)} of {checked} parts CHANGED: {', '.join(changed)}")
        return 1
    print(f"all {checked} parts match the recorded fingerprints")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
