#!/usr/bin/env python3
"""Regenerate the benchmark's stored agents through `tradefool train`.

Synthesizes both markets, trains the acceptance-scale agents with the
acceptance-suite settings, and copies each checkpoint to perfbench/agents/.
Takes about a minute. Afterwards update AGENT_SHA256 in inputs.py with the
digests this script prints.

Usage, from the repository root:
    python3 perfbench/make_agents.py [--work DIR]
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
from tradefool.cli import main as cli_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work", default=".bench_out/agents",
                        help="work directory for bars and training output")
    args = parser.parse_args()
    os.makedirs(inputs.AGENT_DIR, exist_ok=True)
    for name, spec in inputs.AGENT_TRAINING.items():
        work = os.path.join(args.work, name)
        os.makedirs(work, exist_ok=True)
        data = os.path.join(work, "bars.csv")
        inputs.write_market(name, data)
        config = os.path.join(work, "train.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump({"trainer": spec["trainer"]}, handle)
        code = cli_main(["--config", config, "--seed", str(spec["seed"]), "--out", work,
                         "train", "--preset", spec["preset"], "--data", data])
        if code != 0:
            return code
        shutil.copyfile(os.path.join(work, "checkpoint.json"), inputs.agent_path(name))
        print(f"{name}: {inputs.sha256_file(inputs.agent_path(name))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
