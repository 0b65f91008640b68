"""Record the reference output digests that seed-0 runs are checked against.

    python3 perfbench/record_references.py

Runs every input of every workload's pool at seed 0 and writes one digest
per input to perfbench/references.json.  Re-record only when an output is
meant to change, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import REFERENCE_FILE, WORKLOADS

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    digests = {}
    for name, cls in WORKLOADS.items():
        w = cls(SEED, out_dir)
        try:
            rows = []
            for idx, inp in enumerate(w.inputs()):
                out = w.run(inp)
                problems = w.invariants(inp, out)
                if problems:
                    print(f"{name} item {idx}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                rows.append(w.digest(inp, out))
        finally:
            w.close()
        digests[name] = rows
        print(f"{name}: {len(rows)} digests")
    REFERENCE_FILE.write_text(json.dumps({"seed": SEED, "digests": digests}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
