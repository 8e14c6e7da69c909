"""Command line front end.

Exit codes: 0 on success, 1 when a verification fails (a sweep that
disagrees with the parity formula, an oracle mismatch, a vanishing
value), 2 on invalid input.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .characters import ChiToken, SupportReport, SupportRule, orbit_supports
from .cosets import (
    COUNT_LIMIT,
    CaseTag,
    CosetMatrix,
    InvalidInputError,
    Partition,
    count_coset_matrices,
    enumerate_coset_matrices,
    int_text,
    involution_count,
    open_mask,
    validate_m_d,
)
from .engine import VerdictStatus, cross_check, exponent_parity_formula, steinberg_decision
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
    CertificationError,
    FlagCache,
    _representative,
    count_flags,
    profile_histogram,
    reduction_fault,
    sample_stride,
    translate,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# the JSON trace of a decision at degree n (n = m odd, 2 m even) has
# about n^3 cells, written one entry at a time, so the bound is on time
# and output size (137 MB at odd m = 200), not on memory; it admits odd
# m <= 200 and even m <= 100.  A sweep, whose cost is a sum over m,
# keeps it too
MAX_TRACE_CELLS = 200**3
# a status alone is read from at most two reports of n^2 dense cells; the
# bound admits odd m <= 1000 and even m <= 500 in table output
MAX_REPORT_CELLS = 1000**2
# a sweep cross-checks and keeps one row per (m, d), yet d reaches a
# verdict only through its parity
MAX_SWEEP_ROWS = 10_000
# the flag oracle's work grows exponentially in n alone: at n = 10 it has
# at most 9,496 orbits (those of 1^10), 252 pivot sets per level and
# stabiliser conditions in 100 unknowns; (1^10) takes about 40 s
MAX_FLAG_N = 10
# a ``support`` matrix entry, and the numerator and the denominator of a
# rational argument, have at most this many digits, so that the row sums
# (a matrix's parts) and a rational's text stay within the interpreter's
# 4,300-digit limit on int-to-str conversion and print in JSON output
MAX_ENTRY_DIGITS = 4000
_ENTRY_BOUND = 10**MAX_ENTRY_DIGITS


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(obj, pad: str = "\n") -> str:
    """The text json.dumps writes for obj at an indent of 2, for an
    object nested at the line break and indent ``pad``; a key that is
    not a str raises TypeError.

    With an indent the json module steps through every element in
    Python; here a list of exact ints, such as a matrix row or a
    partition, is one join in C, and a matrix one join per row."""
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
        kinds = set(map(type, obj))
        if kinds == {int}:
            items = map(str, obj)
        elif (
            kinds <= {list, tuple}
            and all(obj)
            and set(map(type, itertools.chain.from_iterable(obj))) == {int}
        ):
            # a matrix: rows of exact ints, none empty
            row_pad = inner + "  "
            sep = "," + row_pad
            items = ["[" + row_pad + sep.join(map(str, row)) + inner + "]" for row in obj]
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


def _records_json(head: str, texts: Iterator[str]) -> Iterator[str]:
    """A JSON object whose last member is a list: ``head``, ending in the
    list's ``[``, then each record of ``texts`` on its own line followed
    by its separator, then the tail; ``texts`` is drawn one ahead."""
    pad = "\n    "  # a record
    yield head
    text = next(texts, None)
    if text is None:
        yield "]\n}"
        return
    for following in texts:
        yield pad + text + ","
        text = following
    yield pad + text
    yield "\n  ]\n}"


def _matrices_json(matrices: list[CosetMatrix], opens: list[bool]) -> Iterator[str]:
    """``_dumps({"count": ..., "matrices": [{**s.to_json(), "open": o}, ...]})``
    for the coset matrices of one partition and case and their
    ``open_mask``, one matrix at a time (``_records_json``), built
    without a dict per matrix.

    The matrices share their case and partition, so the text of a
    matrix up to its first row, and after its last row the two tails
    (open or not), are laid out once; rows repeat from matrix to matrix,
    so each distinct row is laid out once."""
    head = '{\n  "count": ' + str(len(matrices)) + ',\n  "matrices": ['
    if not matrices:
        return _records_json(head, iter(()))
    first = matrices[0]
    pad = "\n    "  # a matrix
    key = pad + "  "  # its keys
    row = key + "  "  # its rows
    cell = row + "  "  # their cells
    start = (
        "{" + key + '"case": ' + _dumps(first.case.value, key)
        + "," + key + '"partition": ' + _dumps(list(first.partition.parts), key)
        + "," + key + '"entries": [' + row
    )
    tails = [key + "]," + key + '"open": ' + _dumps(o) + pad + "}" for o in (False, True)]
    texts = {
        r: "[" + cell + ("," + cell).join(map(str, r)) + row + "]"
        for r in set(itertools.chain.from_iterable(s.entries for s in matrices))
    }
    row_sep = "," + row
    return _records_json(head, (
        start + row_sep.join(map(texts.__getitem__, s.entries)) + tails[o]
        for s, o in zip(matrices, opens)
    ))


def _verdict_json(
    case: CaseTag, m: int, d: int, chi: ChiToken, status: VerdictStatus,
    trace: Iterable[SupportReport],
) -> Iterator[str]:
    """The ``_dumps`` text of a decision: its case, m, d, chi, status,
    multiplicity and trace, each entry a partition and its report, for a
    trace whose every entry has the decision's case and chi token; one
    trace entry at a time (``_records_json``), built without a dict per
    entry, so a lazy ``trace`` is never held whole.  Each entry fills
    one template, its partition is one join at each of its two indents,
    and each distinct row (about 2n at degree n) is laid out once per
    command, in ``rows``."""
    head = _dumps({
        "case": case.value, "m": m, "d": d, "chi": chi.value,
        "status": status.value, "multiplicity": status.multiplicity,
    })[:-2] + ',\n  "trace": ['
    pad = "\n    "  # a trace entry
    key = pad + "  "  # its keys
    report = key + "  "  # the report's keys
    matrix = report + "  "  # the matrix's keys, and a violation
    row = matrix + "  "  # its rows, and a violation's keys
    cell = row + "  "  # their cells
    template = (
        "{" + key + '"partition": %s,' + key + '"report": {' + report + '"s": {' + matrix
        + '"case": ' + _encode_str(case.value) + "," + matrix + '"partition": %s,'
        + matrix + '"entries": [' + row + "%s" + matrix + "]" + report + "}," + report
        + '"chi": ' + _encode_str(chi.value) + "," + report + '"feasible": %s,'
        + report + '"violations": %s' + key + "}" + pad + "}"
    )
    rules = {v: "," + row + '"rule": ' + _encode_str(v.value) + matrix + "}" for v in SupportRule}
    report_sep, row_sep, cell_sep, rows = "," + report, "," + row, "," + cell, {}
    return _records_json(head, (
        template % (
            "[" + report + report_sep.join(map(str, r.s.partition.parts)) + key + "]",
            "[" + row + row_sep.join(map(str, r.s.partition.parts)) + matrix + "]",
            row_sep.join([rows.get(e) or rows.setdefault(e, "[" + cell + cell_sep.join(map(str, e)) + row + "]")
                          for e in r.s.entries]),
            "true" if r.feasible else "false",
            "[" + matrix + ("," + matrix).join(
                "{" + row + '"block": ' + str(b) + rules[v] for b, v in r.violations
            ) + report + "]" if r.violations else "[]",
        )
        for r in trace
    ))


def _emit(payload: dict, lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(_dumps(payload))
    else:
        for line in lines:
            print(line)


def _matrix_int(text: str) -> int:
    """json ``parse_int`` of a matrix entry: its digits are counted
    before it is converted."""
    if len(text.lstrip("-")) > MAX_ENTRY_DIGITS:
        raise InvalidInputError(f"matrix entries must have at most {MAX_ENTRY_DIGITS} digits")
    return int(text)


def _parse_matrix(text: str) -> list[list[int]]:
    try:
        data = json.loads(text, parse_int=_matrix_int)
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
    # no partition of n has more matrices than n points have involutions
    if involution_count(partition.total, DEFAULT_BUDGET) > DEFAULT_BUDGET:
        estimate = count_coset_matrices(partition, case)
        if estimate is None:
            raise BudgetExceededError(COUNT_LIMIT, DEFAULT_BUDGET, "coset matrix count over")
        if estimate > DEFAULT_BUDGET:
            raise BudgetExceededError(estimate, DEFAULT_BUDGET, "coset matrix count")
    matrices = enumerate_coset_matrices(partition, case)
    opens = open_mask(matrices)
    if args.format == "json":
        sys.stdout.writelines(_matrices_json(matrices, opens))
        # the newline in a write of its own, as print wrote it
        print()
        return EXIT_OK
    print(f"{len(matrices)} coset matrices for partition {partition.parts} ({case.value})")
    for idx, (s, o) in enumerate(zip(matrices, opens)):
        tag = " open" if o else ""
        print(f"  [{idx}] {list(list(r) for r in s.entries)}{tag}")
    return EXIT_OK


def cmd_support(args: argparse.Namespace) -> int:
    rows = tuple(map(tuple, _parse_matrix(args.matrix)))
    sums = tuple(map(sum, rows))
    # the matrix checks its shape, signs and symmetry before its row sums
    # are checked as the parts of a partition
    s = CosetMatrix(CaseTag(args.case), Partition._unchecked(sums), rows)
    Partition(sums)
    report = orbit_supports(s, ChiToken(args.chi))
    lines = [f"feasible: {report.feasible}"]
    for block, rule in report.violations:
        lines.append(f"  block {block}: {rule.value}")
    _emit(report.to_json(), lines, args.format)
    return EXIT_OK


def _refuse_large_decision(case: CaseTag, m: int, traced: bool) -> None:
    """Refuse a decision whose reports, or with ``traced`` its trace,
    would exceed their cell bound, before anything is built.  An m below
    1 is left to ``validate_m_d``."""
    n = max(0, 2 * m if case is CaseTag.EVEN else m)
    if traced and n**3 > MAX_TRACE_CELLS:
        raise BudgetExceededError(n**3, MAX_TRACE_CELLS, "decision trace cell count")
    if n**2 > MAX_REPORT_CELLS:
        raise BudgetExceededError(n**2, MAX_REPORT_CELLS, "decision report cell count")


def cmd_steinberg(args: argparse.Namespace) -> int:
    case, chi = CaseTag(args.case), ChiToken(args.chi)
    _refuse_large_decision(case, args.m, args.format == "json")
    validate_m_d(case, args.m, args.d)
    status, trace = steinberg_decision(case, args.m, chi)
    if args.format == "json":
        sys.stdout.writelines(_verdict_json(case, args.m, args.d, chi, status, trace))
        print()
    else:
        print(
            f"case={args.case} m={args.m} d={args.d} chi={args.chi}: "
            f"{status.value} (multiplicity {status.multiplicity})"
        )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    # the largest decision: the even case at max_m once max_d >= 2
    _refuse_large_decision(CaseTag.EVEN if args.max_d >= 2 else CaseTag.ODD, args.max_m, True)
    if args.max_m * args.max_d > MAX_SWEEP_ROWS:
        raise BudgetExceededError(args.max_m * args.max_d, MAX_SWEEP_ROWS, "sweep row count")
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
    rendered = rf.render()
    payload: dict = {"factor": rf.to_json(), "rendered": rendered}
    lines = [rendered]
    code = EXIT_OK
    if args.eval_q:
        report = eval_nonvanishing_at_s0(rf, args.eval_q)
        payload["nonvanishing"] = report.to_json()
        at_t1 = report.value_at_t1.render() if report.value_at_t1 else "pole"
        lines.append(f"value at t=1: {at_t1}")
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
            f"partition {args.partition} sums to {int_text(partition.total)}, not to n = {args.n}"
        )
    if args.n > MAX_FLAG_N:
        raise BudgetExceededError(args.n, MAX_FLAG_N, "flag space dimension")
    require_small_odd_prime(args.q)
    cache = FlagCache(args.cache_dir) if args.cache_dir else None
    count = count_flags(partition, args.q * args.q)
    histogram = cache.load(args.q, partition) if cache else None
    field = QuadraticExtension(args.q)
    outcome = "off" if cache is None else "hit" if histogram is not None else "miss"
    if histogram is None:
        try:
            histogram = profile_histogram(field, partition)
        except CertificationError as exc:
            # a mismatch of the oracle: no orbits are reported or cached
            print(f"certification failed: {exc}", file=sys.stderr)
            histogram = {}
        else:
            if cache:
                cache.store(args.q, partition, histogram)
    expected = enumerate_coset_matrices(partition, CaseTag.ODD)
    # the certificate checked every representative's profile, unless a hit
    reps_ok = outcome != "hit" or all(_representative(s, args.q)[0] == s for s in expected)
    # the same orbits on a hit and on a miss: each F_s moved to g F_s
    sampled = expected[:: sample_stride(len(expected))]
    faults = [reduction_fault(translate(_representative(s, args.q)[1], field), field, s) for s in sampled]
    ok = set(histogram) == {s.flat() for s in expected} and reps_ok and not any(faults)
    checked = len(faults)
    rows = sorted(histogram.items())
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
        "stats": {"cache": outcome, "reductions_checked": checked},
    }
    lines = [f"{count} flags, {len(rows)} orbits"]
    for key, size in rows:
        lines.append(f"  profile {list(key)}: orbit size {size}")
    lines.append(f"reductions checked: {checked}")
    lines.append("oracle agrees" if ok else "ORACLE MISMATCH")
    _emit(payload, lines, args.format)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_oracle_quaternion(args: argparse.Namespace) -> int:
    # imported on first use: no other command needs the model
    from .oracles.quaternion import quaternion_model_check

    report = quaternion_model_check(args.alpha, args.beta)
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
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational {text!r}") from None
    if abs(value.numerator) >= _ENTRY_BOUND or value.denominator >= _ENTRY_BOUND:
        raise argparse.ArgumentTypeError(f"invalid rational {text!r}: a part has more than {MAX_ENTRY_DIGITS} digits")
    return value


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
    p.add_argument("--cache-dir", default=None, help="directory of cached oracle runs")
    common(p)
    p.set_defaults(func=cmd_oracle_flags)

    p = sub.add_parser("oracle-quaternion", help="rational quaternion model check")
    p.add_argument("--alpha", type=_rational, required=True, help="rational, not a square, e.g. -1 or 2")
    p.add_argument("--beta", type=_rational, required=True, help="nonzero rational")
    common(p)
    p.set_defaults(func=cmd_oracle_quaternion)

    return parser


@functools.lru_cache(maxsize=1)
def _option_table(parser: argparse.ArgumentParser) -> dict:
    """Per subcommand of ``parser``: its option strings mapped to their
    actions (those of one value or of ``nargs="*"``), the namespace
    ``parse_args`` starts from (``command``, the defaults, a str one
    through its option's type, and ``set_defaults``) and the required
    actions."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, p in sub.choices.items():
        options, start = {}, {"command": name}
        for a in p._actions:
            if type(a) is argparse._StoreAction and a.nargs in (None, "*"):
                options.update(dict.fromkeys(a.option_strings, a))
            if a.default is not argparse.SUPPRESS:
                start[a.dest] = a.type(a.default) if a.type and isinstance(a.default, str) else a.default
        required = frozenset(a for a in p._actions if a.required)
        table[name] = (options, {**start, **p._defaults}, required)
    return table


def _fast_parse(argv: list[str]) -> argparse.Namespace | None:
    """What ``build_parser().parse_args(argv)`` returns, in one pass, for
    a subcommand followed by options, none given twice and every
    required one present, each an exact option string and then values
    that do not start with "-" (one, or any number for ``nargs="*"``),
    or ``--option=value`` for an option of one value, every value
    passing its option's type and choices; None for any other argv."""
    spec = _option_table(build_parser()).get(argv[0]) if argv else None
    if spec is None:
        return None
    options, start, required = spec
    values = dict(start)
    seen = set()
    i, end = 1, len(argv)
    while i < end:
        action = options.get(argv[i])
        if action is None:
            name, eq, value = argv[i].partition("=")
            action = options.get(name)
            if not eq or action is None or action.nargs is not None:
                return None
            given = [value]
            i += 1
        else:
            first = i = i + 1
            while i < end and not argv[i].startswith("-"):
                i += 1
            given = argv[first:i]
            if action.nargs is None and len(given) != 1:
                return None
        if action in seen:
            return None
        seen.add(action)
        if action.type:
            try:
                given = [action.type(v) for v in given]
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and not all(v in action.choices for v in given):
            return None
        values[action.dest] = given if action.nargs else given[0]
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    """Run one command, ``argv`` or else ``sys.argv[1:]``, and return its
    exit code.  A well-formed argv (exact option strings, each given
    once, no value token that starts with "-"; see ``_fast_parse``) is
    parsed in one pass; argparse parses every other one and writes every
    usage error and all help, raising ``SystemExit``."""
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
