"""Choose the scenario pool and record the outputs ``run.py`` checks.

    python3 perfbench/calibrate.py

The number of valid WPNs a scenario yields varies by about +-8% with its
seed, and the mine's cost grows faster than linearly in it, so runs over
arbitrary scenarios would differ by more than the benchmark's bounds for
reasons unrelated to the code.  This script mines scenarios ``0 ..
CANDIDATES-1`` densely, keeps the ``POOL`` whose base corpus size is
closest to the median, mines those again with the blocked path, and
writes ``perfbench/references.json``: the pool plus, per pooled scenario
and storage mode, the base summary and snapshot hash and the final
summary and snapshot hash after the held-out batches are absorbed.

It refuses to write when a pooled scenario's dense and blocked summaries
differ: that breaks the blocked path's exactness contract and must not
become a reference.  Re-run it whenever ``workloads.py`` changes.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Any, Dict

from run import HERE, RunError, run_child
from workloads import CALIBRATED_FOR, CANDIDATES, POOL


def mine(mode: str, seed: int) -> Dict[str, Any]:
    return run_child(["--calibrate", mode, "--seed", str(seed)], time.monotonic() + 600)


def main() -> int:
    try:
        dense = {seed: mine("dense", seed) for seed in range(CANDIDATES)}
        sizes = {s: out["base_summary"]["wpns_clustered"] for s, out in dense.items()}
        median = statistics.median(sizes.values())
        pool = sorted(sizes, key=lambda s: (abs(sizes[s] - median), s))[:POOL]
        seeds = {}
        for seed in sorted(pool):
            blocked = mine("blocked", seed)
            for key in ("base_summary", "final_summary"):
                if dense[seed][key] != blocked[key]:
                    print(f"scenario {seed}: dense and blocked {key} differ",
                          file=sys.stderr)
                    return 1
            seeds[str(seed)] = {"dense": dense[seed], "blocked": blocked}
    except RunError as exc:
        print(f"calibrate: {exc}", file=sys.stderr)
        return 1
    print(f"median base corpus {median}; pool sizes "
          f"{sorted(sizes[s] for s in pool)}")
    refs = {
        "params": CALIBRATED_FOR,
        "pool": sorted(pool),
        "seeds": seeds,
    }
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
