"""Benchmark of the steinberg-distinction command line.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of the checkout this file sits in, never from an installed
copy.  Each pass is a fresh interpreter (``passrunner.py``) that runs
the workload's commands, shuffled by the seed, in process through
``steinberg_distinction.cli.main`` with ``--format json``, and streams
back every command's exit code, latency and output.  Every output is
checked against ``golden.json``.

Every time is normalised to a reference machine speed.  On a shared
machine the speed of one core drifts by up to a factor of two over
minutes, as other tenants come and go, and no statistic taken within a
run removes that.  Each fresh interpreter therefore also times a fixed
calibration kernel (``passrunner.calibrate``) after its set-up and
just before each command.  A command's latency is multiplied by
``REF_CALIBRATION_S`` over the median of the five kernel timings nearest
to it in time (those taken just before it, before the two commands
preceding it and before the two following it), and set-up time by the
same over the median of the kernel timings after it.  A reported second
is thus a second on a machine where the kernel takes 3 ms; the raw
kernel median is printed with the report.

With ``--trace 0`` the run measures set-up time, then runs passes until
``--seconds`` have passed and at least 100 command latencies are pooled
(so that ten lie beyond the 90th percentile), and reports the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and
traced passes (at least two traced) and reports per-layer calls, work
counts and self time from the traced ones, whether those counts repeat
exactly, and the tracing overhead.

The last line of stdout is the result object; the lines before it print
the run's context, every metric with its unit and sample count,
failed_frac, the single-run baseline rows of ROADMAP open item 1 and
any failed command.  Each pass has a wall-clock cap: commands a killed
pass did not finish count as failed, so a run always ends in bounded
time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

SETUP_SAMPLES = 3
# Calibration kernel time at which reported times equal measured ones;
# about its time on an idle 2-core Xeon VM under Python 3.11.
REF_CALIBRATION_S = 0.003
MIN_LATENCY_SAMPLES = 100
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 60.0
# Whole-run limit, so that a run always ends within three minutes.
RUN_DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

COUNTED = {
    "cli.main": ("self_s",),
    "engine.steinberg_decision": ("calls", "self_s"),
    "engine.cross_check": ("calls",),
    "characters.orbit_supports": ("calls", "feasible", "self_s"),
    "cosets.enumerate_coset_matrices": ("calls", "matrices", "self_s"),
    "cosets.is_open": ("calls", "self_s"),
    "cosets.closure_compare": ("calls", "self_s"),
    "cosets.fine_layout": ("calls", "self_s"),
    "cosets.block_involution": ("calls", "self_s"),
    "cosets.coarsen": ("calls",),
    "cosets.build_us_odd": ("calls", "self_s"),
    "lfactor.RationalFunc.from_expr": ("calls", "self_s"),
    "lfactor.RationalFunc.arith": ("calls", "self_s"),
    "lfactor.RationalFunc.eval_exact": ("calls", "self_s"),
    "lfactor.eval_nonvanishing_at_s0": ("self_s",),
    "lfactor.gj_L_trivial": ("self_s",),
    "lfactor.i2_ratio": ("self_s",),
    "flags.enumerate_flags": ("calls", "flags", "self_s"),
    "flags.flag_profile": ("calls", "self_s"),
    "flags.representative_flag": ("calls", "self_s"),
    "flags.reduce_to_representative": ("calls", "self_s"),
    "flags.cache.load": ("calls", "hits", "misses", "self_s"),
    "flags.cache.store": ("calls", "self_s"),
    "finite_field.rref": ("calls", "self_s"),
    "finite_field.intersect": ("calls", "self_s"),
    "finite_field.matrix_inv": ("calls",),
}

PER_LAYER = {
    f"{span}.{field}": ("s" if field == "self_s" else "count")
    for span, fields in COUNTED.items()
    for field in fields
}
PER_LAYER["characters.orbit_supports.feasible_ratio"] = "ratio"
PER_LAYER["trace.overhead_s"] = "s"
PER_LAYER["trace.count_mismatches"] = "count"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (for example, no source tree)."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DISTINCTION_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argvs: list[list[str]], trace: bool, timeout: float) -> dict:
    """Run one pass in a fresh interpreter; a pass that overruns
    ``timeout`` is killed and keeps the commands it finished."""
    spec = json.dumps({"argvs": argvs, "trace": trace, "src": str(SRC)})
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passrunner.py")],
            input=spec.encode(),
            capture_output=True,
            env=_child_env(),
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        stdout, killed = exc.stdout or b"", True
    else:
        if proc.returncode != 0:
            raise BenchmarkError(
                f"pass process exited with {proc.returncode}: {proc.stderr.decode()[-2000:]}"
            )
        stdout, killed = proc.stdout, False
    elapsed = time.perf_counter() - start
    text = stdout.decode()
    complete = text[: text.rfind("\n") + 1]
    events = [json.loads(line) for line in complete.splitlines()]
    result = {"killed": killed, "elapsed_s": elapsed, "commands": {}, "cal_s": []}
    for event in events:
        if "i" in event:
            result["commands"][event["i"]] = event
        else:
            result.update(event)
    return result


def speed(cal_s: list[float]) -> float:
    """Multiplier taking times measured next to these kernel timings to
    reference speed."""
    return REF_CALIBRATION_S / statistics.median(cal_s) if cal_s else 1.0


class Run:
    """Passes of one workload and everything measured on them."""

    def __init__(self, units, golden, seed, tmp: Path, deadline: float, pass_timeout: float):
        self.units = units
        self.golden = golden
        self.rng = random.Random(seed)
        self.tmp = tmp
        self.deadline = deadline
        self.pass_timeout = pass_timeout
        self.setup_s: list[float] = []
        self.cal_s: list[float] = []
        self.walls = {False: [], True: []}
        self.rss_mb: list[float] = []
        self.latency_ms: dict[str, list[float]] = {}
        self.tables: list[dict] = []
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.stopped = False

    def _remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def setup_only(self) -> None:
        result = run_child([], False, self._remaining())
        if "setup_s" not in result:
            raise BenchmarkError("set-up did not finish within the time cap")
        self.setup_s.append(result["setup_s"] * speed(result["cal_s"]))
        self.cal_s += result["cal_s"]

    def one_pass(self, traced: bool) -> None:
        remaining = self._remaining()
        if remaining < 1.0:
            self.stopped = True
            return
        argvs = workloads.shuffled(self.units, self.rng)
        cache_dir = self.tmp / f"pass{len(self.walls[False]) + len(self.walls[True])}"
        try:
            result = run_child(
                [workloads.full_argv(a, str(cache_dir)) for a in argvs],
                traced,
                min(self.pass_timeout, remaining),
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        # kernel timing i was taken just before command i
        cal_s = [result["commands"][i]["cal_s"] for i in sorted(result["commands"])]
        self.cal_s += result["cal_s"] + cal_s
        wall = 0.0
        self.attempted += len(argvs)
        for i, argv in enumerate(argvs):
            key = workloads.key(argv)
            event = result["commands"].get(i)
            if event is None:
                self.failures.append((key, "not finished within the pass's time cap"))
                continue
            reason = workloads.check(self.golden, argv, event["rc"], event["out"])
            if reason:
                self.failures.append((key, reason))
            latency = event["s"] * speed(cal_s[max(0, i - 2): i + 3])
            wall += latency
            if not traced:
                self.latency_ms.setdefault(key, []).append(latency * 1000)
        factor = speed(result["cal_s"] + cal_s)
        if "setup_s" in result and not traced:
            self.setup_s.append(result["setup_s"] * speed(result["cal_s"]))
        # a pass's wall time is its commands' time, without the kernel runs
        self.walls[traced].append(result["elapsed_s"] * factor if result["killed"] else wall)
        if "rss_kb" in result and not traced:
            self.rss_mb.append(result["rss_kb"] / 1024)
        if traced and result.get("trace") is not None:
            for stat in result["trace"].values():
                stat["self_s"] *= factor
            self.tables.append(result["trace"])
        if result["killed"]:
            self.stopped = True

    def pooled(self) -> list[float]:
        return [v for values in self.latency_ms.values() for v in values]

    def end_to_end(self) -> tuple[dict, list[str]]:
        pooled = self.pooled()
        # a pass killed before its first command leaves only its wall time
        samples = pooled or [self.walls[False][0] * 1000]
        q = statistics.quantiles(samples, n=10) if len(samples) > 1 else samples * 9
        beyond = sum(v > q[8] for v in pooled)
        passes = len(self.walls[False])
        values = {
            "setup_s": statistics.median(self.setup_s),
            "wall_s": statistics.median(self.walls[False]),
            "cmd_p50_ms": q[4],
            "cmd_p90_ms": q[8],
            "peak_rss_mb": statistics.median(self.rss_mb) if self.rss_mb else 0.0,
            "ok_frac": 1 - len(self.failures) / self.attempted,
        }
        samples = {
            "setup_s": f"n={len(self.setup_s)} fresh interpreters",
            "wall_s": f"n={passes} passes",
            "cmd_p50_ms": f"n={len(pooled)} commands over {passes} passes",
            "cmd_p90_ms": f"n={len(pooled)}, {beyond} beyond p90",
            "peak_rss_mb": f"n={len(self.rss_mb)} passes",
            "ok_frac": f"n={self.attempted} commands",
        }
        lines = [f"{name} = {values[name]:.6g} {unit} ({samples[name]})" for name, unit in END_TO_END.items()]
        lines.append(
            f"failed_frac = {len(self.failures) / self.attempted:.6g} frac "
            f"({len(self.failures)}/{self.attempted} commands)"
        )
        return values, lines

    def per_layer(self) -> tuple[dict, list[str]]:
        tables = self.tables or [{}]
        # every counter of every traced span, reported or not, must repeat
        mismatches = sum(
            len({repr(t.get(span, {}).get(field)) for t in tables}) > 1
            for span in set().union(*tables)
            for field in set().union(*(t.get(span, {}) for t in tables)) - {"self_s"}
        )
        values = {}
        for span, fields in COUNTED.items():
            for field in fields:
                seen = [t.get(span, {}).get(field, 0) for t in tables]
                values[f"{span}.{field}"] = statistics.median(seen) if field == "self_s" else seen[0]
        calls = values["characters.orbit_supports.calls"]
        feasible = values["characters.orbit_supports.feasible"]
        values["characters.orbit_supports.feasible_ratio"] = feasible / calls if calls else 0.0
        traced, plain = self.walls[True], self.walls[False]
        values["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain) if traced and plain else 0.0
        )
        values["trace.count_mismatches"] = mismatches
        lines = [f"{name} = {values[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
        lines.append(
            f"traced passes: {len(self.tables)}, untraced passes: {len(plain)}; "
            + ("counts repeat exactly" if not mismatches else
               f"COUNTS DIFFER between traced passes ({mismatches} counters)")
        )
        return values, lines

    def named_commands(self) -> list[str]:
        lines = []
        for name, keys in workloads.NAMED_COMMANDS.items():
            if all(k in self.latency_ms for k in keys):
                total = sum(statistics.median(self.latency_ms[k]) for k in keys)
                n = min(len(self.latency_ms[k]) for k in keys)
                lines.append(f"named {name} = {total:.6g} ms (median per command, n={n})")
        return lines


def run_benchmark(units, golden, seed: int, seconds: float, trace: bool, tmp: Path,
                  min_samples: int = MIN_LATENCY_SAMPLES,
                  pass_timeout: float = PASS_TIMEOUT_S) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and report lines."""
    start = time.perf_counter()
    run = Run(units, golden, seed, tmp, start + RUN_DEADLINE_S, pass_timeout)
    run.setup_only()  # also compiles bytecode, so it is not counted
    run.setup_s.clear()
    if not trace:
        for _ in range(SETUP_SAMPLES):
            run.setup_only()
    measure_start = time.perf_counter()
    while not run.stopped:
        run.one_pass(False)
        if trace and not run.stopped:
            run.one_pass(True)
        elapsed = time.perf_counter() - measure_start
        enough = (
            len(run.tables) >= MIN_TRACED_PASSES if trace
            else len(run.pooled()) >= min_samples
        )
        if elapsed >= seconds and enough:
            break
    if not run.walls[False]:
        raise BenchmarkError("no pass could start before the run's deadline")
    if trace:
        metrics, lines = run.per_layer()
        units_of = PER_LAYER
        correct = not run.failures and metrics["trace.count_mismatches"] == 0
    else:
        metrics, lines = run.end_to_end()
        units_of = END_TO_END
        correct = not run.failures
    lines.append(
        f"calibration kernel: median {statistics.median(run.cal_s) * 1000:.4g} ms over "
        f"{len(run.cal_s)} timings (reference {REF_CALIBRATION_S * 1000:g} ms)"
    )
    lines += run.named_commands()
    lines += [f"FAILED {key}: {reason}" for key, reason in run.failures[:20]]
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }
    return result, lines


def context(args: argparse.Namespace) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "steinberg_distinction" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # lets subprocess.run kill its child
    tmp = TMP / str(os.getpid())
    try:
        result, lines = run_benchmark(
            workloads.units(args.workload), workloads.load_golden(), args.seed,
            args.seconds, bool(args.trace), tmp,
        )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    print("context " + json.dumps(context(args)))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
