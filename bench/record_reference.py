"""Write bench/reference.json from the current checkout's CLI output.

Usage: ``python3 bench/record_reference.py``

The committed reference was recorded from the seed commit and cross-checked
against independent oracles by ``bench/tests``.  Re-recording it from a
later commit would let that commit's answers pass the gate unchecked.
"""

import json
import sys
import tempfile
from pathlib import Path

import gate
import run
from jobs import WORKLOADS, argv


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as tmp:
        for jobs in WORKLOADS.values():
            for job in jobs:
                result = run.run_job(job, Path(tmp), len(reference), False, 600.0, {})
                if result.failure != "no reference for this job":
                    print(f"{job}: {result.failure}", file=sys.stderr)
                    return 1
                reference[job] = gate.content(job, json.loads(result.stdout))
                print(f"{result.wall_s:7.2f} s  {job}  ({' '.join(argv(job))})")
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
