"""Regenerate ``expected.json``: the pinned outputs of the shipped seeds.

    python3 perfbench/record_expected.py

Run it only when a change is meant to alter the program's outputs
(a model change moves the stdout digests and the engine counters), and
commit the new file with that change.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import counters  # noqa: E402
import sandbox  # noqa: E402

SHIPPED_SEEDS = 3


def main() -> int:
    expected = {"registry": {}}
    sb = sandbox.Sandbox()
    try:
        for k in range(SHIPPED_SEEDS):
            env = sb.env(sb.fresh_dir("cache"), sb.fresh_dir("runs"))
            res = sb.run({"mode": "cli", "argv": ["all", "-j", "1"],
                          "seed_offset": k, "run_id": "expected"},
                         env, sb.path("registry.out"))
            text = res["stdout"].decode("utf-8")
            if res["status"] != 0 or "[FAIL]" in text:
                print(f"registry seed {k}: checks fail", file=sys.stderr)
                return 1
            rec = res["records"]
            expected["registry"][str(k)] = {
                "checks": text.count("[PASS]"),
                "stdout_sha256": counters.sha256(res["stdout"]),
                "des": dict(rec["des"],
                            computed_cells=rec["computed_cells"]),
            }
            print(f"seed {k}: recorded", file=sys.stderr)
    finally:
        sb.close()
    path = os.path.join(sandbox.HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
