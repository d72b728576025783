"""Writes cstbench/expected/ from the current sources at the default seed.

    python3 cstbench/record_expected.py

Run from the repository root, only when the benchmark's inputs change on
purpose: the committed files are what every run at the default seed is
checked against, so re-recording them after a program change would hide
the change instead of checking it.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ["CSTLAB_PURE"] = "1"

import workloads  # noqa: E402
from spans import NULL  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    rc, out, err = workloads.call_cli(["verify-paper", "--section", "all", "--seed", str(seed)])
    if rc != 0:
        sys.stderr.write(out + err)
        return 1
    (workloads.EXPECTED_DIR / "paper.txt").write_text(out, encoding="utf-8")
    for name, passes in (("fuzz", workloads.Fuzz.max_passes), ("solve", 1), ("render", 1)):
        with tempfile.TemporaryDirectory() as tmp:
            workload = workloads.WORKLOADS[name](seed, Path(tmp))
            workload.expected = None  # record, do not compare
            recorded = []
            for p in range(passes):
                result = workload.run_pass(p, NULL)
                if result.tally.failed:
                    print(f"{name} pass {p}: {result.tally.notes}", file=sys.stderr)
                    return 1
                recorded.append(result.fingerprints)
        path = workloads.EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps({"seed": seed, "passes": recorded}, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
