"""Record the simulator workloads' output digests into ``digests.json``.

    python3 perfbench/record_digests.py            # seeds 0-15
    python3 perfbench/record_digests.py --seeds 0 1

Run it only when a change is meant to alter the simulated trajectory;
a pure performance change must reproduce the recorded digests. Seed 0
is the default seed; seed 1 is held out from tuning.
"""

from __future__ import annotations

import argparse
import json
import sys

from rep import WORKLOADS
from run import DIGESTS, run_rep, scratch_env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(16)))
    args = parser.parse_args(argv)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with scratch_env("record") as env:
        for name, workload in WORKLOADS.items():
            if workload.kind != "sim":
                continue
            for seed in args.seeds:
                out, error = run_rep(name, seed, False, env, timeout=600.0)
                if out is None or out["failure"]:
                    print(f"{name} seed {seed}: {error or out['failure']}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = out["digest"]
                print(f"{name} seed {seed}: {out['digest']}")
    ordered = {k: dict(sorted(v.items(), key=lambda kv: int(kv[0]))) for k, v in sorted(table.items())}
    DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
