"""Record `oracle.json`: exit code and output digest of every operation.

Usage: python3 bench/record_oracle.py

Runs each operation any seed can generate once, untraced, and writes the
digests that `run.py` checks every output against.  The recorded file is the
definition of "same behaviour" for later changes: re-record it only in a
change that means to alter an output, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import ops
import run


def main() -> int:
    oracle = {}
    for op in ops.every_op():
        rec = run.run_op(op, 0, False, None, timeout=run.OP_TIMEOUT_S)
        if "digest" not in rec:
            print(f"{ops.key(op)}: {rec.get('failure')}", file=sys.stderr)
            return 1
        oracle[ops.key(op)] = {"exit": rec["exit"], "digest": rec["digest"]}
        print(f"{rec['exit']}  {rec['digest'][:16]}  {ops.key(op)}")
    run.ORACLE.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
