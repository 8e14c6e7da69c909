"""Command lists of the benchmark workloads and the golden-output check.

A workload is a list of units; a unit is one or more CLI argv lists that
must run back to back in the given order (the flag oracle's cache miss
followed by its cache hit).  A pass shuffles the units, never the
commands inside a unit.  Argv lists here omit ``--format json`` and the
flag cache directory, which the runner appends; the joined base argv is
the command's key in the golden file.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Top-level keys of each subcommand's JSON output that the golden check
# compares.  Keys a later version adds (for example a "stats" block) are
# ignored, at every nesting level.
COMPARED_KEYS = {
    "steinberg": ("status", "multiplicity", "trace"),
    "sweep": ("rows", "all_agree"),
    "enumerate": ("matrices",),
    "lfactor": ("factor", "rendered", "nonvanishing"),
    "oracle-flags": ("flag_count", "orbit_sizes", "ok"),
}

# Rows of the single-run baseline table in ROADMAP open item 1 that the
# workloads cover; each is reported as the sum of its commands' median
# latencies.
NAMED_COMMANDS = {
    "steinberg_even_m4_both_chi": [
        f"steinberg --case even --m 4 --d 2 --chi {chi}" for chi in ("triv", "eta")
    ],
    "steinberg_even_m5_both_chi": [
        f"steinberg --case even --m 5 --d 2 --chi {chi}" for chi in ("triv", "eta")
    ],
    "steinberg_odd_m8_both_chi": [
        f"steinberg --case odd --m 8 --d 1 --chi {chi}" for chi in ("triv", "eta")
    ],
    "steinberg_odd_m9_both_chi": [
        f"steinberg --case odd --m 9 --d 1 --chi {chi}" for chi in ("triv", "eta")
    ],
    "enumerate_odd_1^7": ["enumerate --case odd --partition 1,1,1,1,1,1,1"],
    "lfactor_gj_k8_d1": ["lfactor --kind gj --k 8 --d 1 --shift=-1/2"],
}


def compositions(n: int) -> list[tuple[int, ...]]:
    """All ordered partitions of n, in a fixed order."""
    out = []
    for cuts in itertools.product([0, 1], repeat=n - 1):
        parts, cur = [], 1
        for c in cuts:
            if c:
                parts.append(cur)
                cur = 1
            else:
                cur += 1
        parts.append(cur)
        out.append(tuple(parts))
    return out


def _decide() -> list[list[list[str]]]:
    units = []
    for case, d, top in (("even", 2, 5), ("odd", 1, 9)):
        for m in range(1, top + 1):
            for chi in ("triv", "eta"):
                units.append(
                    [["steinberg", "--case", case, "--m", str(m), "--d", str(d), "--chi", chi]]
                )
    units.append([["sweep", "--max-m", "4", "--max-d", "4"]])
    return units


def _enumerate() -> list[list[list[str]]]:
    units = []
    for n in (4, 5, 6):
        cases = ("odd", "even") if n % 2 == 0 else ("odd",)
        for parts in compositions(n):
            text = ",".join(map(str, parts))
            for case in cases:
                units.append([["enumerate", "--case", case, "--partition", text]])
    units.append([["enumerate", "--case", "odd", "--partition", "1,1,1,1,1,1,1"]])
    return units


def _lfactor() -> list[list[list[str]]]:
    units = []
    for k in range(1, 9):
        for d in (1, 2):
            units.append([["lfactor", "--kind", "gj", "--k", str(k), "--d", str(d), "--shift=-1/2"]])
    for d in range(1, 7):
        for ram in ("unramified", "ramified"):
            units.append(
                [["lfactor", "--kind", "i2", "--d", str(d), "--ram", ram,
                  "--eval-q", "2", "3", "4", "5", "9"]]
            )
    for char in ("triv", "eta"):
        for ram in ("unramified", "ramified"):
            units.append(
                [["lfactor", "--kind", "tate", "--char", char, "--ram", ram,
                  "--eval-q", "2", "3", "4", "9"]]
            )
    return units


FLAG_POINTS = (
    [(2, q, "1,1") for q in (3, 5, 7)]
    + [(3, 3, p) for p in ("1,1,1", "2,1", "1,2", "3")]
    + [(3, 5, "2,1"), (3, 5, "1,2"), (3, 7, "2,1")]
)


def _flags() -> list[list[list[str]]]:
    units = []
    for n, q, parts in FLAG_POINTS:
        argv = ["oracle-flags", "--n", str(n), "--q", str(q), "--partition", parts]
        # First run misses the pass's fresh cache and writes it; the
        # second reads it back.
        units.append([argv, list(argv)])
    return units


WORKLOADS = {
    "decide": _decide,
    "enumerate": _enumerate,
    "lfactor": _lfactor,
    "flags": _flags,
}


def units(workload: str) -> list[list[list[str]]]:
    return WORKLOADS[workload]()


def key(argv: list[str]) -> str:
    return " ".join(argv)


def shuffled(workload_units: list[list[list[str]]], rng: random.Random) -> list[list[str]]:
    """One pass's command order: units shuffled, each unit kept intact."""
    order = list(workload_units)
    rng.shuffle(order)
    return [argv for unit in order for argv in unit]


def full_argv(argv: list[str], cache_dir: str) -> list[str]:
    extra = ["--cache-dir", cache_dir] if argv[0] == "oracle-flags" else []
    return argv + ["--format", "json"] + extra


def project(argv: list[str], payload: dict) -> dict:
    """The compared part of a command's JSON output."""
    return {k: payload[k] for k in COMPARED_KEYS[argv[0]]}


def _matches(expected, actual) -> bool:
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and _matches(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(_matches(e, a) for e, a in zip(expected, actual))
        )
    return type(expected) is type(actual) and expected == actual


def check(golden: dict, argv: list[str], rc: int, out: str) -> str | None:
    """None when the command's exit code and output match the golden
    record, otherwise the reason it does not."""
    record = golden.get(key(argv))
    if record is None:
        return "no golden record"
    if rc != record["rc"]:
        return f"exit code {rc}, expected {record['rc']}"
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return "output is not JSON"
    if not isinstance(payload, dict) or not _matches(record["out"], payload):
        return "output differs from the golden record"
    return None


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)
