"""Command line front end.

Exit codes: 0 on success, 1 when a verification or decision fails
(inconclusive verdict, oracle mismatch, vanishing value), 2 on invalid
input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .characters import ChiToken, orbit_supports
from .cosets import (
    COUNT_LIMIT,
    CaseTag,
    CosetMatrix,
    InvalidInputError,
    Partition,
    count_coset_matrices,
    enumerate_coset_matrices,
    open_mask,
)
from .engine import (
    VerdictStatus,
    cross_check,
    exponent_parity_formula,
    steinberg_decision,
)
from .lfactor import (
    LFactorError,
    RamificationTag,
    TateChar,
    eval_nonvanishing_at_s0,
    gj_L_trivial,
    i2_ratio,
    tate_L,
)
from .oracles.finite_field import QuadraticExtension, require_small_odd_prime
from .oracles.flags import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FlagCache,
    count_flags,
    flag_profile,
    graded_pieces,
    iter_flags,
    reduce_to_representative,
    representative_flag,
)
from .oracles.quaternion import quaternion_model_check

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(obj, pad: str = "\n") -> str:
    """The text json.dumps writes for obj at an indent of 2, for an
    object nested at the line break and indent ``pad``; a key that is
    not a str raises TypeError.

    With an indent the json module steps through every element in
    Python; here a list of exact ints, such as a matrix row or a
    partition, is one join in C."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return str(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_encode_str(k) + ": " + _dumps(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            items = map(str, obj)
        else:
            items = [_dumps(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    # floats, str and int subclasses; TypeError for what JSON cannot hold
    return json.dumps(obj)


def _emit(payload: dict, lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(_dumps(payload))
    else:
        for line in lines:
            print(line)


def _parse_matrix(text: str) -> list[list[int]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"matrix is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise InvalidInputError("matrix must be a JSON list of lists")
    if not all(type(e) is int for r in data for e in r):
        raise InvalidInputError("matrix entries must be integers")
    return data


def cmd_enumerate(args: argparse.Namespace) -> int:
    partition = Partition.parse(args.partition)
    case = CaseTag(args.case)
    estimate = count_coset_matrices(partition, case)
    if estimate is None:
        raise BudgetExceededError(COUNT_LIMIT, DEFAULT_BUDGET, "coset matrix count over")
    if estimate > DEFAULT_BUDGET:
        raise BudgetExceededError(estimate, DEFAULT_BUDGET, "coset matrix count")
    matrices = enumerate_coset_matrices(partition, case)
    opens = open_mask(matrices)
    payload = {
        "count": len(matrices),
        "matrices": [
            {**s.to_json(), "open": o} for s, o in zip(matrices, opens)
        ],
    }
    lines = [f"{len(matrices)} coset matrices for partition {partition.parts} ({case.value})"]
    for idx, (s, o) in enumerate(zip(matrices, opens)):
        tag = " open" if o else ""
        lines.append(f"  [{idx}] {list(list(r) for r in s.entries)}{tag}")
    _emit(payload, lines, args.format)
    return EXIT_OK


def cmd_support(args: argparse.Namespace) -> int:
    entries = _parse_matrix(args.matrix)
    parts = Partition(tuple(sum(row) for row in entries))
    s = CosetMatrix(CaseTag(args.case), parts, tuple(tuple(r) for r in entries))
    report = orbit_supports(s, ChiToken(args.chi))
    lines = [f"feasible: {report.feasible}"]
    for block, rule in report.violations:
        lines.append(f"  block {block}: {rule.value}")
    _emit(report.to_json(), lines, args.format)
    return EXIT_OK


def cmd_steinberg(args: argparse.Namespace) -> int:
    verdict = steinberg_decision(CaseTag(args.case), args.m, args.d, ChiToken(args.chi))
    lines = [
        f"case={args.case} m={args.m} d={args.d} chi={args.chi}: "
        f"{verdict.status.value} (multiplicity {verdict.multiplicity})"
    ]
    _emit(verdict.to_json(), lines, args.format)
    return EXIT_OK if verdict.status is not VerdictStatus.INCONCLUSIVE else EXIT_FAIL


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = []
    ok = True
    decided: dict = {}
    for m in range(1, args.max_m + 1):
        for d in range(1, args.max_d + 1):
            case = CaseTag.EVEN if d % 2 == 0 else CaseTag.ODD
            agreed = cross_check(case, m, d, decided)
            ok = ok and agreed
            rows.append(
                {
                    "case": case.value,
                    "m": m,
                    "d": d,
                    "expected_chi": exponent_parity_formula(m, d).value,
                    "agrees": agreed,
                }
            )
    lines = ["case  m  d  expected_chi  agrees"]
    for r in rows:
        lines.append(
            f"{r['case']:<5} {r['m']}  {r['d']}  {r['expected_chi']:<12} {r['agrees']}"
        )
    lines.append("all agree" if ok else "DISAGREEMENT FOUND")
    _emit({"rows": rows, "all_agree": ok}, lines, args.format)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_lfactor(args: argparse.Namespace) -> int:
    if args.kind == "tate":
        rf = tate_L(
            TateChar(args.char), RamificationTag(args.ram), args.shift, args.s_coeff
        )
    elif args.kind == "gj":
        rf = gj_L_trivial(args.k, args.d, args.shift, args.s_coeff)
    else:
        rf = i2_ratio(args.d, RamificationTag(args.ram))
    payload: dict = {"factor": rf.to_json(), "rendered": rf.render()}
    lines = [rf.render()]
    code = EXIT_OK
    if args.eval_q:
        report = eval_nonvanishing_at_s0(rf, args.eval_q)
        payload["nonvanishing"] = report.to_json()
        rendered = report.value_at_t1.render() if report.value_at_t1 else "pole"
        lines.append(f"value at t=1: {rendered}")
        for q, status, value in report.samples:
            lines.append(f"  q={q}: {status.value} ({value})")
        lines.append(f"nonvanishing: {report.nonvanishing}")
        if not report.nonvanishing:
            code = EXIT_FAIL
    _emit(payload, lines, args.format)
    return code


def cmd_oracle_flags(args: argparse.Namespace) -> int:
    partition = Partition.parse(args.partition)
    if partition.total != args.n:
        raise InvalidInputError(
            f"partition {args.partition} sums to {partition.total}, not to n = {args.n}"
        )
    require_small_odd_prime(args.q)
    # a cache hit holds this many flags, and the stream is checked
    # against it when it ends
    count = count_flags(partition, args.q * args.q)
    cache_dir = args.cache_dir or os.environ.get("DISTINCTION_CACHE_DIR")
    cache = FlagCache(cache_dir) if cache_dir else None
    flags = cache.load(args.n, args.q, partition) if cache else None
    if flags is None and count > args.budget:
        # refused before the field's tables are built
        raise BudgetExceededError(count, args.budget)
    field = QuadraticExtension(args.q)
    stats = {
        "cache": "off" if cache is None else "hit" if flags is not None else "miss",
        "flags_enumerated": 0,
    }
    if flags is not None:
        stream = ((flag, flag_profile(flag, field)) for flag in flags)
        kept = None
    else:
        stream = iter_flags(field, partition, budget=args.budget)
        stats["flags_enumerated"] = count
        # only a cache miss holds the list, to write it
        kept = [] if cache else None
    stride = max(1, count // args.reduce_samples)
    sizes: dict[CosetMatrix, int] = {}
    sample = []
    for index, (flag, profile) in enumerate(stream):
        sizes[profile] = sizes.get(profile, 0) + 1
        if index % stride == 0:
            sample.append(flag)
        if kept is not None:
            kept.append(flag)
    if kept is not None:
        cache.store(args.n, args.q, partition, kept)
    histogram = {profile.flat(): size for profile, size in sizes.items()}
    expected = enumerate_coset_matrices(partition, CaseTag.ODD)
    seen = set(histogram)
    ok = seen == {s.flat() for s in expected}
    targets = {}
    for s in expected:
        rep = representative_flag(s, field)
        if flag_profile(rep, field) != s:
            ok = False
        targets[s] = graded_pieces(rep, field)
    checked = 0
    for flag in sample:
        h = reduce_to_representative(flag, field, targets)
        if not all(field.in_base(x) for row in h for x in row):
            ok = False
        checked += 1
    rows = sorted(histogram.items())
    # each reduction computes the profile of its flag once more
    stats["profiles_computed"] = count + len(expected) + checked
    stats["reductions_checked"] = checked
    payload = {
        "n": args.n,
        "q": args.q,
        "partition": list(partition.parts),
        "flag_count": count,
        "orbit_sizes": [
            {"profile": list(key), "size": size} for key, size in rows
        ],
        "reductions_checked": checked,
        "ok": ok,
        "stats": stats,
    }
    lines = [f"{count} flags, {len(rows)} orbits"]
    for key, size in rows:
        lines.append(f"  profile {list(key)}: orbit size {size}")
    lines.append(f"reductions checked: {checked}")
    lines.append("oracle agrees" if ok else "ORACLE MISMATCH")
    _emit(payload, lines, args.format)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_oracle_quaternion(args: argparse.Namespace) -> int:
    report = quaternion_model_check(args.alpha, args.beta)
    if report.error:
        raise InvalidInputError(report.error)
    lines = [
        f"alpha={report.alpha} beta={report.beta}",
        f"  homomorphism:       {report.homomorphism}",
        f"  involution:         {report.involution}",
        f"  orders agree:       {report.orders_agree}",
        f"  fixes first factor: {report.fixes_first_factor}",
        f"  semilinear:         {report.semilinear}",
        "model verified" if report.ok else "MODEL CHECK FAILED",
    ]
    _emit(report.to_json(), lines, args.format)
    return EXIT_OK if report.ok else EXIT_FAIL


def _rational(text: str) -> Fraction:
    """argparse type of a rational argument such as -1/2."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational {text!r}") from None


def _positive_int(text: str) -> int:
    """argparse type of a count or bound that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by
    every ``main`` call; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="steinberg-distinction",
        description="Distinction combinatorics for twisted Steinberg representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("enumerate", help="list coset matrices for a partition")
    p.add_argument("--case", choices=["even", "odd"], required=True)
    p.add_argument("--partition", required=True, help="comma-separated parts, e.g. 1,2,1")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("support", help="character support of one orbit")
    p.add_argument("--case", choices=["even", "odd"], required=True)
    p.add_argument("--matrix", required=True, help='JSON entries, e.g. "[[0,2],[2,0]]"')
    p.add_argument("--chi", choices=["triv", "eta"], required=True)
    common(p)
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("steinberg", help="distinction verdict for one (m, d, chi)")
    p.add_argument("--case", choices=["even", "odd"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--chi", choices=["triv", "eta"], required=True)
    common(p)
    p.set_defaults(func=cmd_steinberg)

    p = sub.add_parser("sweep", help="compare engine verdicts with the parity formula")
    p.add_argument("--max-m", type=_positive_int, default=4)
    p.add_argument("--max-d", type=_positive_int, default=4)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lfactor", help="exact local factors and specializations")
    p.add_argument("--kind", choices=["tate", "gj", "i2"], required=True)
    p.add_argument("--char", choices=["triv", "eta"], default="triv")
    p.add_argument("--ram", choices=["unramified", "ramified"], default="unramified")
    p.add_argument("--shift", type=_rational, default="0", help="rational shift, e.g. -1/2")
    p.add_argument("--s-coeff", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--eval-q", type=int, nargs="*", default=[], help="residue sizes to probe at s=0")
    common(p)
    p.set_defaults(func=cmd_lfactor)

    p = sub.add_parser("oracle-flags", help="finite flag enumeration cross-check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--reduce-samples", type=_positive_int, default=10)
    p.add_argument(
        "--cache-dir",
        default=None,
        help="flag cache directory (falls back to DISTINCTION_CACHE_DIR)",
    )
    common(p)
    p.set_defaults(func=cmd_oracle_flags)

    p = sub.add_parser("oracle-quaternion", help="rational quaternion model check")
    p.add_argument("--alpha", type=_rational, required=True, help="rational, not a square, e.g. -1 or 2")
    p.add_argument("--beta", type=_rational, required=True, help="nonzero rational")
    common(p)
    p.set_defaults(func=cmd_oracle_quaternion)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, InvalidInputError, LFactorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout (``| head``): what is still buffered
        # goes to devnull, so the flush at exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
