"""Smoke test of the benchmark itself, on a tiny grid of cheap commands.

    python3 bench/smoke.py

Checks that an untraced run emits exactly the end-to-end metrics of
BENCHMARK.json and a traced run exactly its per-layer metrics, each with
its unit; that a deliberately corrupted golden entry and a pass killed
by its time cap both raise failed_frac; and that the benchmark refuses
to run without the package source.  Exits non-zero on the first failed
check.
"""

from __future__ import annotations

import contextlib
import copy
import json
import shutil
import subprocess
import sys

import workloads
from run import HERE, ROOT, TMP, run_benchmark

TINY = [
    [["steinberg", "--case", "odd", "--m", "2", "--d", "1", "--chi", "eta"]],
    [["enumerate", "--case", "even", "--partition", "2,2"]],
    [["lfactor", "--kind", "tate", "--char", "triv", "--ram", "unramified",
      "--eval-q", "2", "3", "4", "9"]],
    [["oracle-flags", "--n", "2", "--q", "3", "--partition", "1,1"]] * 2,
]


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"smoke: FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"smoke: ok: {message}")


def tiny_run(golden: dict, trace: bool, **kwargs) -> dict:
    tmp = TMP / "smoke"
    try:
        result, _ = run_benchmark(TINY, golden, 1, 0, trace, tmp, min_samples=1, **kwargs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = workloads.load_golden()

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = tiny_run(golden, trace)
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        metrics = result["metrics"]
        expect(set(metrics) == set(wanted), f"trace={int(trace)} emits exactly the {section} metrics")
        expect(
            all(metrics[n]["unit"] == u and isinstance(metrics[n]["value"], (int, float))
                for n, u in wanted.items()),
            f"trace={int(trace)} gives every metric a number and its unit",
        )
        expect(result["correct"] and result["failed"] == 0, f"trace={int(trace)} tiny grid is correct")

    corrupted = copy.deepcopy(golden)
    corrupted[workloads.key(TINY[1][0])]["out"]["matrices"][0]["open"] ^= True
    result = tiny_run(corrupted, False)
    expect(result["metrics"]["ok_frac"]["value"] < 1 and not result["correct"],
           "a corrupted golden entry raises failed_frac")

    result = tiny_run(golden, False, pass_timeout=0.01)
    expect(result["failed"] == result["attempted"] > 0,
           "commands a killed pass did not finish count as failed")

    bare = TMP / "bare"
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "decide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the package source the run fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
