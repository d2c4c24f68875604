"""Record the exact answer for every pool entry into reference.json.

    python3 perfbench/record.py [--workload NAME ...]

Run it only on the commit the references should come from: the benchmark
checks every later version against these answers, and stratifies its
request pick by the recorded request times (`cost_s`: the median of
REPEATS runs, adjusted to reference host speed).  Each entry is solved in a
fresh worker, exactly as a benchmark request.  A request that fails, or
whose witness does not replay, is reported here and still recorded, so the
benchmark counts it as failed instead of the entry being dropped.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from run import HERE, SRC, request_s, run_worker
from workloads import WORKLOADS, fingerprint, request_input

PATH = os.path.join(HERE, "reference.json")
REPEATS = 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    references = {}
    if os.path.exists(PATH):
        with open(PATH, encoding="utf-8") as fh:
            references = json.load(fh)
    references = {k: v for k, v in references.items() if k in WORKLOADS}
    failed = 0
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        entries = {}
        for index in range(workload.pool):
            request = request_input(workload, index)
            outs = [
                run_worker({"kind": workload.kind, "src": SRC, "request_id": index,
                            "trace": False, **request}, timeout=600)
                for _ in range(REPEATS)
            ]
            out = next((o for o in outs if "error" in o), outs[0])
            cost_s = statistics.median(request_s(o) for o in outs) if "error" not in out else 0
            entry = {"input": fingerprint(request), "cost_s": round(cost_s, 4)}
            if "error" in out:
                failed += 1
                entry["error"] = out["error"]
            else:
                entry.update({k: v for k, v in out["result"].items() if k != "replay_ok"})
                if out["result"].get("replay_ok") is False:
                    failed += 1
                    entry["replay_ok"] = False
            entries[str(index)] = entry
            print(name, index, json.dumps(entry), flush=True)
        references[name] = entries
        with open(PATH, "w", encoding="utf-8") as fh:
            json.dump(references, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"{failed} failed entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
