#!/usr/bin/env python3
"""Record reference.json: the decision digest of every run directory of each
sweep workload at the reference seed, from a run long enough to cover more
rounds than a benchmark run makes. Run it from the repository root only at
a commit whose decisions are known good:
    python3 perfbench/record_reference.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 0
SECONDS = 120


def main() -> int:
    digests = {}
    for workload in ("cw-sweep", "fgsm-sweep"):
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(SEED), "--seconds", str(SECONDS)], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        result = os.path.join(ROOT, ".bench_out", f"{workload}-s{SEED}-t0", "result.json")
        with open(result, encoding="utf-8") as handle:
            digests[workload] = json.load(handle)["digests"]
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump({"seed": SEED, "digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
