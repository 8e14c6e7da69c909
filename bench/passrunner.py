"""One benchmark pass, run in a fresh interpreter.

Reads ``{"argvs": [...], "trace": bool, "src": path}`` as JSON on stdin,
imports the CLI from ``src``, runs each argv through
``steinberg_distinction.cli.main`` in this process with its output
captured, and writes one JSON line per event to stdout as it happens:

- ``{"setup_s": ..., "cal_s": [...]}``: importing the CLI and building its
  parser, then a few timings of the calibration kernel;
- ``{"i": ..., "rc": ..., "s": ..., "out": ..., "cal_s": ...}``: one finished
  command, with the kernel timed just before it;
- ``{"rss_kb": ..., "trace": ...}``: the end of the pass.

Streaming lets the caller count the commands finished before it kills a
pass that overran its time cap.  The kernel timings let the caller
normalise this process's times to a reference machine speed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

SETUP_CALIBRATIONS = 5


def calibrate() -> float:
    """Seconds for a fixed interpreter-bound kernel (an integer loop and
    Fraction arithmetic, the mix of this package) with the garbage
    collector off.  Other tenants of the machine slow it down in step
    with the commands, so the caller divides times by it."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += (i * i) % 7
        frac = Fraction(0)
        for i in range(1, 400):
            frac += Fraction(i % 7 - 3, i)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _emit(stream, event: dict) -> None:
    stream.write(json.dumps(event) + "\n")
    stream.flush()


def main() -> int:
    spec = json.load(sys.stdin)
    stream = sys.stdout
    start = time.perf_counter()
    from steinberg_distinction import cli

    cli.build_parser()
    setup_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"steinberg_distinction was imported from {cli.__file__}, not from {spec['src']}",
              file=sys.stderr)
        return 2
    _emit(stream, {"setup_s": setup_s, "cal_s": [calibrate() for _ in range(SETUP_CALIBRATIONS)]})
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install()
    for i, argv in enumerate(spec["argvs"]):
        cal_s = calibrate()
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing command is a failed command, not a failed pass
            rc = -1
            out.write(f"\n{exc!r}")
        elapsed = time.perf_counter() - t0
        _emit(stream, {"i": i, "rc": rc, "s": elapsed, "out": out.getvalue(), "cal_s": cal_s})
    _emit(
        stream,
        {
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": tracer.table() if tracer else None,
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
