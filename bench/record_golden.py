"""Record golden.json: every workload command's compared JSON output.

    python3 bench/record_golden.py

Runs each distinct command once through the CLI of ``src/`` and stores
its exit code and the compared keys of its output.  The file in the
repository was recorded at the commit that introduced the benchmark;
re-record it only when a change of output is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import workloads
from run import SRC, TMP


def main() -> int:
    sys.path.insert(0, str(SRC))
    from steinberg_distinction import cli

    cache_dir = TMP / "record_golden"
    golden = {}
    try:
        for name in workloads.WORKLOADS:
            for unit in workloads.units(name):
                for argv in unit:
                    key = workloads.key(argv)
                    if key in golden:
                        continue
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        rc = cli.main(workloads.full_argv(argv, str(cache_dir)))
                    payload = json.loads(out.getvalue())
                    golden[key] = {"rc": rc, "out": workloads.project(argv, payload)}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()
    lines = [
        f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'), sort_keys=True)}"
        for k, v in golden.items()
    ]
    with open(workloads.GOLDEN_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(golden)} commands to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
