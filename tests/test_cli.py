import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg_distinction import cli, engine
from steinberg_distinction.characters import ChiToken, SupportReport
from steinberg_distinction.cli import main
from steinberg_distinction.cosets import (
    COUNT_LIMIT,
    CaseTag,
    CosetMatrix,
    Partition,
    enumerate_coset_matrices,
    open_mask,
)
from steinberg_distinction.engine import exponent_parity_formula
from steinberg_distinction.lfactor import MAX_RESIDUE_SIZE
from steinberg_distinction.oracles import flags as flags_module
from steinberg_distinction.oracles.finite_field import QuadraticExtension
from steinberg_distinction.oracles.flags import DEFAULT_BUDGET

from certificates import decision, verdict_dict
from conftest import compositions

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# 10^k - 1, the k-digit number of nines, for the k that tests use
NINES = {k: 10**k - 1 for k in (2200, 4000, 4300)}


# runs cli.main on its arguments, then writes its peak RSS in kB to
# stderr: Linux's VmHWM, which starts afresh at exec, where ru_maxrss
# keeps the peak of the forking process (the test run's, often larger)
PEAK_RSS_CHILD = (
    "import sys\n"
    "from steinberg_distinction.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/status') as status:\n"
    "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def peak_mb(*argv):
    """The peak RSS in MB of a child process running ``cli.main`` on
    ``argv``, with its output discarded."""
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr) / 1024


class Sink(io.TextIOBase):
    """A stdout that keeps the text of each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def edit_orbits(change):
    """A cache-file mangler that edits the orbit list of the payload and
    leaves its checksum as it was."""

    def mangle(raw):
        data = json.loads(raw)
        change(data["orbits"])
        return json.dumps(data).encode()

    return mangle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--case", "odd", "--partition", "1,1")
        assert code == 0
        assert "2 coset matrices" in out

    def test_json_deterministic(self, capsys):
        code, out1, _ = run(
            capsys, "enumerate", "--case", "even", "--partition", "2,2", "--format", "json"
        )
        code2, out2, _ = run(
            capsys, "enumerate", "--case", "even", "--partition", "2,2", "--format", "json"
        )
        assert code == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["count"] == 2

    @pytest.mark.parametrize("text", ["x", "1,,2", "1,2,", ",3"])
    def test_bad_partition(self, capsys, text):
        # an empty part is refused, not dropped
        for argv in (
            ["enumerate", "--case", "odd", "--partition", text],
            ["oracle-flags", "--n", "3", "--q", "3", "--partition", text],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: bad partition {text!r}\n")

    def test_size_guard(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a refused enumeration built its matrices")

        monkeypatch.setattr(cli, "enumerate_coset_matrices", refuse)
        start = time.monotonic()
        code, out, err = run(capsys, "enumerate", "--case", "odd", "--partition", ",".join(["1"] * 12))
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: coset matrix count 140152 exceeds budget 10000\n"

    @pytest.mark.parametrize(
        "case, parts, count",
        [
            ("odd", "40,40,40,40", "over 50000"),
            ("even", "40,40,40,40", "10233531"),
            ("odd", "80,80,80,80", "over 50000"),
            ("even", "80,80,80,80", "over 50000"),
            ("odd", ",".join(["1"] * 13), "568504"),
            ("odd", ",".join(["3"] * 12), "37273085398456"),
            ("odd", ",".join(["1"] * 1500), "over 50000"),
            ("even", ",".join(["1"] * 1500), "over 50000"),
            ("odd", ",".join(map(str, range(1, 17))), "over 50000"),
            ("odd", ",".join(map(str, range(1, 25))), "over 50000"),
            ("even", ",".join(map(str, range(2, 41, 2))), "over 50000"),
        ],
        ids=[
            "40^4-odd", "40^4-even", "80^4-odd", "80^4-even", "1^13-odd", "3^12-odd",
            "1^1500-odd", "1^1500-even", "1..16-odd", "1..24-odd", "2..40-even",
        ],
    )
    def test_size_guard_is_bounded(self, capsys, monkeypatch, case, parts, count):
        # the count stops after COUNT_LIMIT fillings per row, on the
        # pairings of many rows, or on the amounts one pairing of rows
        # can share, each way above COUNT_LIMIT matrices; cheap counts
        # stay exact
        assert COUNT_LIMIT >= DEFAULT_BUDGET

        def refuse(*args):
            raise AssertionError("a refused enumeration built its matrices")

        monkeypatch.setattr(cli, "enumerate_coset_matrices", refuse)
        start = time.monotonic()
        code, out, err = run(capsys, "enumerate", "--case", case, "--partition", parts)
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: coset matrix count {count} exceeds budget 10000\n"

    def test_even_case_odd_total_is_empty(self, capsys):
        # no even-case matrix has an odd total; nothing is searched for
        start = time.monotonic()
        code, out, _ = run(capsys, "enumerate", "--case", "even", "--partition", "41,40,40,40")
        assert time.monotonic() - start < 1
        assert (code, out) == (0, "0 coset matrices for partition (41, 40, 40, 40) (even)\n")

    def test_largest_under_budget(self, capsys):
        # 9,496 involutions of 10 points: listed, not refused
        code, out, _ = run(capsys, "enumerate", "--case", "odd", "--partition", ",".join(["1"] * 10))
        assert code == 0
        assert out.startswith("9496 coset matrices")

    @pytest.mark.parametrize("case, count", [("odd", 9496), ("even", 945)])
    def test_no_count_within_the_involution_bound(self, capsys, monkeypatch, case, count):
        # 10 points have 9,496 involutions, within the budget, so no
        # partition of 10 is counted before it is listed
        def refuse(*args):
            raise AssertionError("counted a partition the involution bound admits")

        monkeypatch.setattr(cli, "count_coset_matrices", refuse)
        code, out, err = run(capsys, "enumerate", "--case", case, "--partition", ",".join(["1"] * 10))
        assert (code, err) == (0, "")
        assert out.startswith(f"{count} coset matrices")
        assert out.count(" open\n") == 1

    def test_huge_parts_are_refused_in_bounded_memory(self):
        # the count fills the diagonal of a row one value at a time, so
        # two parts of 10^8 are refused within 256 MB of address space
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
            "from steinberg_distinction.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        argv = ["enumerate", "--case", "odd", "--partition", "99999999,99999999,1"]
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: coset matrix count over 50000 exceeds budget 10000\n"

    def test_eleven_points_are_counted(self, capsys):
        # 11 points have 35,696 involutions, above the budget: counted and refused
        code, out, err = run(capsys, "enumerate", "--case", "odd", "--partition", ",".join(["1"] * 11))
        assert (code, out) == (2, "")
        assert err == "error: coset matrix count 35696 exceeds budget 10000\n"


def dict_payload(partition, case):
    """The matrices of one partition and case with their ``open_mask``,
    and the text `_dumps` writes for them as a dict per matrix."""
    matrices = enumerate_coset_matrices(partition, case)
    opens = open_mask(matrices)
    payload = {
        "count": len(matrices),
        "matrices": [{**s.to_json(), "open": o} for s, o in zip(matrices, opens)],
    }
    return matrices, opens, cli._dumps(payload)


class TestMatricesJson:
    """`enumerate --format json` lays out its matrices from one template
    per partition; `_dumps` of a dict per matrix is the reference."""

    @pytest.mark.parametrize("case", list(CaseTag), ids=lambda c: c.value)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_dumps_on_every_composition(self, n, case):
        # the even case at an odd total has no matrix: an empty list
        for partition in compositions(n):
            matrices, opens, want = dict_payload(partition, case)
            assert "".join(cli._matrices_json(matrices, opens)) == want, partition

    @pytest.mark.parametrize("n", [8, 10])
    def test_matches_dumps_on_ones(self, n):
        # digests, as a diff of texts this long would take minutes
        matrices, opens, want = dict_payload(Partition((1,) * n), CaseTag.ODD)
        got = "".join(cli._matrices_json(matrices, opens))
        assert hashlib.sha256(got.encode()).hexdigest() == hashlib.sha256(want.encode()).hexdigest()

    def test_no_state_between_calls(self):
        # different cases, partitions and rows, in turn and back again
        calls = [
            (Partition((1, 2, 1)), CaseTag.ODD),
            (Partition((2, 2)), CaseTag.EVEN),
            (Partition((2, 1)), CaseTag.ODD),
            (Partition((1, 2, 1)), CaseTag.ODD),
        ]
        for partition, case in calls:
            matrices, opens, want = dict_payload(partition, case)
            assert "".join(cli._matrices_json(matrices, opens)) == want, partition

    @pytest.mark.parametrize(
        "parts, case",
        [((1, 2, 1), CaseTag.ODD), ((2, 2), CaseTag.EVEN), ((3,), CaseTag.ODD), ((1, 2), CaseTag.EVEN)],
        ids=lambda x: x.value if isinstance(x, CaseTag) else ",".join(map(str, x)),
    )
    def test_one_piece_per_matrix(self, parts, case):
        # the head, each matrix with its separator, the tail; the even
        # case at an odd total has no matrix, so a head and a tail
        matrices, opens, want = dict_payload(Partition(parts), case)
        pieces = list(cli._matrices_json(matrices, opens))
        assert len(pieces) == len(matrices) + 2
        assert "".join(pieces) == want

    def test_enumerate_writes_a_matrix_at_a_time(self, monkeypatch):
        # (1^7) odd, the largest output of the benchmark's enumerate
        # workload: a write per matrix, one of the head, one of the tail
        # and one of the newline
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["enumerate", "--case", "odd", "--partition", "1,1,1,1,1,1,1", "--format", "json"]) == 0
        matrices, _, want = dict_payload(Partition((1,) * 7), CaseTag.ODD)
        assert len(sink.writes) == len(matrices) + 3
        assert "".join(sink.writes) == want + "\n"

    def test_json_peak_is_near_the_table_peak(self):
        # (1^10) odd: 16 MB of JSON, never held whole, peaked 39 MB above
        # the table output when the text went out in one string, and
        # 6.6 MB above it in blocks of 1,024 matrices
        argv = ["enumerate", "--case", "odd", "--partition", ",".join(["1"] * 10)]
        assert peak_mb(*argv, "--format", "json") - peak_mb(*argv) < 2

    def test_enumerate_builds_no_dict_per_matrix(self, capsys, monkeypatch):
        _, _, want = dict_payload(Partition((1, 2, 1, 2)), CaseTag.ODD)

        def refuse(self):
            raise AssertionError("enumerate built a dict per matrix")

        monkeypatch.setattr(CosetMatrix, "to_json", refuse)
        code, out, _ = run(
            capsys, "enumerate", "--case", "odd", "--partition", "1,2,1,2", "--format", "json"
        )
        assert (code, out) == (0, want + "\n")


def verdict(case, m, d, chi):
    """A decision as the arguments of `cli._verdict_json` and of
    `certificates.verdict_dict`: (case, m, d, chi, status, trace), its
    trace drawn whole."""
    return (case, m, d, chi, *decision(case, m, chi))


def reference_text(v):
    """The text `steinberg --format json` writes for a decision ``v``."""
    return json.dumps(verdict_dict(*v), indent=2)


class TestVerdictJson:
    """`steinberg --format json` lays out its verdict from one template
    per command; ``json.dumps`` of `certificates.verdict_dict` is the
    reference."""

    def test_matches_dumps(self):
        verdicts = [
            verdict(CaseTag(case), m, d, chi)
            for case, d, top in (("odd", 1, 40), ("even", 2, 20))
            for m in range(1, top + 1)
            for chi in ChiToken
        ]
        # traces of one entry and of many, and verdicts with violations:
        # odd m, eta, stops at the open orbit
        assert {1, 40} <= {len(trace) for *_, trace in verdicts}
        assert any(case is CaseTag.ODD and trace[-1].violations for case, *_, trace in verdicts)
        for v in verdicts:
            assert "".join(cli._verdict_json(*v)) == reference_text(v), v[:4]

    @pytest.mark.parametrize(
        "case, m, d, chi",
        [(CaseTag.ODD, 8, 1, ChiToken.ETA), (CaseTag.EVEN, 3, 2, ChiToken.TRIV),
         (CaseTag.ODD, 3, 1, ChiToken.ETA), (CaseTag.ODD, 1, 1, ChiToken.TRIV)],
        ids=["odd-m8-eta", "even-m3-triv", "odd-m3-eta", "odd-m1-triv"],
    )
    def test_one_piece_per_entry(self, case, m, d, chi):
        # the head, each trace entry with its separator, the tail
        v = verdict(case, m, d, chi)
        pieces = list(cli._verdict_json(*v))
        assert len(pieces) == len(v[-1]) + 2
        assert "".join(pieces) == reference_text(v)

    @pytest.mark.parametrize(
        "case, m, d, chi",
        [(CaseTag.ODD, 8, 1, ChiToken.TRIV), (CaseTag.EVEN, 3, 2, ChiToken.ETA),
         (CaseTag.ODD, 9, 1, ChiToken.TRIV), (CaseTag.ODD, 3, 1, ChiToken.ETA)],
        ids=["odd-m8-triv", "even-m3-eta", "odd-m9-triv", "odd-m3-eta"],
    )
    def test_streamed_trace_is_drawn_one_report_ahead(self, case, m, d, chi):
        """The trace iterator of the engine is never drawn more than one
        report ahead of the entries whose text is already yielded."""
        v = verdict(case, m, d, chi)
        status, trace = engine.steinberg_decision(case, m, chi)
        assert status is v[4]
        drawn = []

        def reading():
            for report in trace:
                drawn.append(report)
                yield report

        pieces = []
        for piece in cli._verdict_json(case, m, d, chi, status, reading()):
            # the pieces before this one are the head and an entry each
            assert len(drawn) <= len(pieces) + 1, len(pieces)
            pieces.append(piece)
        assert drawn == list(v[-1])
        assert len(pieces) == len(v[-1]) + 2
        assert "".join(pieces) == reference_text(v)

    def test_empty_trace(self):
        v = (CaseTag.ODD, 1, 1, ChiToken.TRIV, engine.VerdictStatus.NOT_DISTINGUISHED, ())
        pieces = list(cli._verdict_json(*v))
        assert len(pieces) == 2
        assert "".join(pieces) == reference_text(v)

    def test_steinberg_writes_an_entry_at_a_time(self, monkeypatch):
        # odd m = 40: a write per trace entry, one of the head, one of
        # the tail and one of the newline
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        argv = ["steinberg", "--case", "odd", "--m", "40", "--d", "1", "--chi", "triv", "--format", "json"]
        assert main(argv) == 0
        v = verdict(CaseTag.ODD, 40, 1, ChiToken.TRIV)
        assert len(sink.writes) == len(v[-1]) + 3 == 43
        assert "".join(sink.writes) == reference_text(v) + "\n"

    def test_json_peak_is_near_the_table_peak(self):
        # odd m = 100: 17 MB of JSON peaked 6.3 MB above the table output
        # in blocks of 16 trace entries
        argv = ["steinberg", "--case", "odd", "--m", "100", "--d", "1", "--chi", "triv"]
        assert peak_mb(*argv, "--format", "json") - peak_mb(*argv) < 2

    def test_steinberg_builds_no_dicts(self, capsys, monkeypatch):
        want = reference_text(verdict(CaseTag.EVEN, 3, 2, ChiToken.ETA))

        def refuse(self):
            raise AssertionError("steinberg built a to_json dict")

        for cls in (SupportReport, CosetMatrix):
            monkeypatch.setattr(cls, "to_json", refuse)
        code, out, _ = run(
            capsys, "steinberg", "--case", "even", "--m", "3", "--d", "2", "--chi", "eta", "--format", "json"
        )
        assert (code, out) == (0, want + "\n")


class TestSupportAndSteinberg:
    def test_support(self, capsys):
        code, out, _ = run(
            capsys,
            "support",
            "--case", "odd",
            "--matrix", "[[0,1],[1,0]]",
            "--chi", "eta",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_steinberg_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "steinberg",
            "--case", "odd", "--m", "2", "--d", "1", "--chi", "eta",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert list(data) == ["case", "m", "d", "chi", "status", "multiplicity", "trace"]
        assert data["status"] == "DISTINGUISHED"
        assert data["multiplicity"] == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("--case even --m 2 --d 3 --chi eta", "even case requires even d"),
            ("--case even --m 2 --d 3 --chi eta --format json", "even case requires even d"),
            ("--case odd --m 2 --d 2 --chi eta", "odd case requires odd d"),
            ("--case odd --m 0 --d 1 --chi triv", "m and d must be positive"),
            ("--case odd --m 2 --d 0 --chi triv", "m and d must be positive"),
            # the size refusal comes before the parity check
            ("--case even --m 1000 --d 3 --chi eta",
             "decision report cell count 4000000 exceeds budget 1000000"),
            # a negative m has no size: its square is not a cell count
            ("--case odd --m -2000 --d 1 --chi triv", "m and d must be positive"),
            ("--case odd --m -1001 --d 1 --chi triv --format json", "m and d must be positive"),
            ("--case even --m -501 --d 2 --chi triv", "m and d must be positive"),
            ("--case even --m -501 --d 3 --chi triv --format json", "m and d must be positive"),
        ],
        ids=[
            "even-odd-d", "even-odd-d-json", "odd-even-d", "m-0", "d-0", "budget-before-parity",
            "odd-m-negative", "odd-m-negative-json", "even-m-negative", "even-m-negative-json",
        ],
    )
    def test_steinberg_input_errors(self, capsys, monkeypatch, argv, message):
        def undecided(*args, **kwargs):
            raise AssertionError("decision started")

        monkeypatch.setattr(cli, "steinberg_decision", undecided)
        code, out, err = run(capsys, "steinberg", *argv.split())
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestSweepAndLfactor:
    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--max-m", "2", "--max-d", "2")
        assert code == 0
        assert "all agree" in out

    def test_sweep_decides_each_case_m_chi_once(self, capsys, monkeypatch):
        # d enters a verdict only through its parity: one decision per
        # (case, m, chi), 16 on this grid, where each (m, d) used to take 2
        argv = ["sweep", "--max-m", "4", "--max-d", "4"]
        expected = {}
        for fmt in ("table", "json"):
            expected[fmt] = run(capsys, *argv, "--format", fmt)
        calls = []
        decide = engine.steinberg_decision

        def counting(case, m, chi):
            calls.append((case, m, chi))
            return decide(case, m, chi)

        monkeypatch.setattr(engine, "steinberg_decision", counting)
        for fmt in ("table", "json"):
            calls.clear()
            assert run(capsys, *argv, "--format", fmt) == expected[fmt]
            assert len(calls) == len(set(calls)) == 16
        # the per-(m, d) check, deciding both tokens for every d, agrees
        rows = []
        for m in range(1, 5):
            for d in range(1, 5):
                case = CaseTag.EVEN if d % 2 == 0 else CaseTag.ODD
                rows.append(engine.cross_check(case, m, d))
        assert len(calls) == 16 + 32
        data = json.loads(expected["json"][1])
        assert [r["agrees"] for r in data["rows"]] == rows
        assert data["all_agree"] is True

    def test_lfactor_eval_q_is_bounded(self, capsys):
        q = "618970019642690137449562111"  # 2^89 - 1, a prime
        start = time.monotonic()
        code, out, err = run(capsys, "lfactor", "--kind", "tate", "--eval-q", q)
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: residue size {q} exceeds {MAX_RESIDUE_SIZE}\n"

    def test_lfactor_i2(self, capsys):
        code, out, _ = run(
            capsys, "lfactor", "--kind", "i2", "--d", "1", "--eval-q", "2", "9"
        )
        assert code == 0
        assert "(1 + t^2)/(1 - v^2 t^2)" in out
        assert "nonvanishing: True" in out

    @pytest.mark.parametrize("ram", ["unramified", "ramified"])
    @pytest.mark.parametrize(
        "d, message",
        [
            ("0", "d must be positive"),
            # d = 35 to 49 pass the trivial Tate factor's size and are
            # refused by the chain's gj factor; from d = 50 on the Tate
            # factor is refused first
            ("35", "factor would have 10011 dense coefficients (t-degree 140, v-span 70), more than 10000"),
            ("49", "factor would have 19503 dense coefficients (t-degree 196, v-span 98), more than 10000"),
            ("50", "factor would have 10201 dense coefficients (t-degree 100, v-span 100), more than 10000"),
            (
                "10000000000",
                "factor would have 400000000040000000001 dense coefficients"
                " (t-degree 20000000000, v-span 20000000000), more than 10000",
            ),
        ],
    )
    def test_lfactor_i2_refusals(self, capsys, d, message, ram):
        code, out, err = run(capsys, "lfactor", "--kind", "i2", "--d", d, "--ram", ram)
        assert (code, out, err) == (2, "", f"error: {message}\n")


DIGESTS_PATH = Path(__file__).with_name("cli_digests.json")

# the points of the benchmark's flag workload
FLAG_POINTS = (
    [(2, q, "1,1") for q in (3, 5, 7)]
    + [(3, 3, p) for p in ("1,1,1", "2,1", "1,2", "3")]
    + [(3, 5, "2,1"), (3, 5, "1,2"), (3, 7, "2,1")]
)


def pinned_commands() -> list[str]:
    """The commands whose output bytes `cli_digests.json` pins."""
    commands = [
        f"steinberg --case {case} --m {m} --d {d} --chi {chi} --format json"
        for case, d, top in (("odd", 1, 30), ("even", 2, 15))
        for m in range(1, top + 1)
        for chi in ("triv", "eta")
    ]
    commands += ["sweep --max-m 5 --max-d 4", "sweep --max-m 5 --max-d 4 --format json"]
    # the benchmark's lfactor workload
    lfactor = [
        f"lfactor --kind gj --k {k} --d {d} --shift=-1/2" for k in range(1, 9) for d in (1, 2)
    ]
    lfactor += [
        f"lfactor --kind i2 --d {d} --ram {ram} --eval-q 2 3 4 5 9"
        for d in range(1, 7)
        for ram in ("unramified", "ramified")
    ]
    lfactor += [
        f"lfactor --kind tate --char {char} --ram {ram} --eval-q 2 3 4 9"
        for char in ("triv", "eta")
        for ram in ("unramified", "ramified")
    ]
    # a small grid, vanishing denominators and poles included
    lfactor += [
        f"lfactor --kind gj --k {k} --d {d} --shift={shift} --s-coeff {e} --eval-q 2 3 4"
        for k in (1, 2, 3)
        for d in (1, 2, 3)
        for shift in ("0", "1/2", "-1")
        for e in (1, 2)
    ]
    lfactor += [
        f"lfactor --kind tate --char {char} --ram {ram} --shift={shift} --s-coeff {e}"
        " --eval-q 1 2 5 8 9"
        for char in ("triv", "eta")
        for ram in ("unramified", "ramified")
        for shift in ("-1", "-1/2", "0", "1/2", "3/2")
        for e in (0, 1, 3)
    ]
    lfactor += [
        f"lfactor --kind i2 --d {d} --ram {ram} --eval-q 6 7 8"
        for d in range(1, 6)
        for ram in ("unramified", "ramified")
    ]
    # two or more negative v exponents at once, and the cancellations of
    # s coefficient 0
    lfactor += [
        f"lfactor --kind gj --k {k} --d {d} --shift={shift} --s-coeff {e} --eval-q 1 2 5 8 9"
        for k in (4, 5, 6)
        for d in (1, 2, 3)
        for shift in ("1/2", "3/2", "5/2")
        for e in (0, 3)
    ]
    commands += [f"{c}{fmt}" for c in lfactor for fmt in ("", " --format json")]
    # the benchmark's enumerate workload
    for n in (4, 5, 6):
        cases = ("odd", "even") if n % 2 == 0 else ("odd",)
        for partition in compositions(n):
            text = ",".join(map(str, partition.parts))
            commands += [f"enumerate --case {case} --partition {text} --format json" for case in cases]
    commands.append("enumerate --case odd --partition 1,1,1,1,1,1,1 --format json")
    # the benchmark's flag points, with the cache off
    commands += [
        f"oracle-flags --n {n} --q {q} --partition {parts} --format json"
        for n, q, parts in FLAG_POINTS
    ]
    # feasible orbits and infeasible ones with their violations
    commands += [
        f"support --case {case} --matrix {matrix} --chi {chi} --format json"
        for case, matrix, chi in (
            ("odd", "[[0,1],[1,0]]", "eta"),
            ("odd", "[[0,0,1],[0,1,0],[1,0,0]]", "triv"),
            ("even", "[[0,2],[2,0]]", "triv"),
            ("odd", "[[1,0],[0,1]]", "eta"),
            ("odd", "[[0,1,0],[1,0,0],[0,0,1]]", "eta"),
            ("odd", "[[0,0,1],[0,1,0],[1,0,0]]", "eta"),
            ("even", "[[2,0],[0,2]]", "eta"),
        )
    ]
    commands += [
        "oracle-quaternion --alpha -1 --beta 3 --format json",
        "oracle-quaternion --alpha 4 --beta 1 --format json",
    ]
    # the five pairs of criterion 8 and a fractional one; then the
    # refusals: square alphas, 0 among them, and beta = 0
    quaternion = [
        f"oracle-quaternion --alpha={alpha} --beta={beta}"
        for alpha, beta in (
            (-1, -1), (-1, 2), (-1, 3), (2, 3), (-2, -5), ("-1/2", "5/3"),
            (4, 1), (1, 1), ("9/4", 1), (0, 1), (-1, 0),
        )
    ]
    commands += [f"{c}{fmt}" for c in quaternion for fmt in ("", " --format json")]
    return commands


def test_output_bytes_pinned():
    """Exit code, stdout digest and stderr of every command in
    `pinned_commands`: `steinberg --format json` at odd m <= 30 (d = 1)
    and even m <= 15 (d = 2), both tokens, `sweep --max-m 5 --max-d 4`,
    and every `lfactor` command of the benchmark plus a small grid, the
    last two as table and JSON; and as JSON, `enumerate` on every
    composition of 4, 5 and 6 and on 1^7, `oracle-flags` at the
    benchmark's 10 points without a cache, a few `support` orbits and,
    as table and JSON, `oracle-quaternion` at criterion 8's five pairs,
    at (-1/2, 5/3) and at five refused pairs.  The steinberg and sweep
    digests were recorded before the support test moved from rational
    to integer exponents, the lfactor ones before `RationalFunc` moved
    to dense rows, and the JSON ones added with them before `_dumps`
    replaced `json.dumps(payload, indent=2)`.  The enumerate digests
    were recorded while `enumerate` still wrote a dict per matrix through
    `_dumps`; it now lays its matrices out from one template per
    partition and memoised row texts, which `TestMatricesJson` holds to
    `_dumps`.  An intended output change must re-record them."""
    pinned = json.loads(DIGESTS_PATH.read_text())
    assert sorted(pinned) == sorted(pinned_commands())
    changed = []
    for key, want in pinned.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(key.split())
        got = {
            "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue(),
        }
        if got != want:
            changed.append(key)
    assert changed == []


# Strings with the characters JSON escapes, and ints beyond 64 bits.
json_text = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600'), st.characters())
)
json_ints = st.one_of(st.integers(), st.integers(min_value=2**64), st.integers(max_value=-(2**64)))
# Matrix-shaped values: int rows (ragged and empty ones too), tuples,
# rows with a bool (not an int here) and rows holding a list.
int_rows = st.lists(json_ints, min_size=1, max_size=5)


def rows_of(cells, min_size=1):
    return st.lists(st.lists(cells, min_size=min_size, max_size=5), max_size=5)


json_matrices = st.one_of(
    rows_of(json_ints),
    rows_of(json_ints, min_size=0),
    st.lists(st.one_of(int_rows, int_rows.map(tuple)), max_size=5).map(tuple),
    rows_of(st.one_of(json_ints, st.booleans())),
    rows_of(st.booleans()),
    rows_of(st.one_of(json_ints, st.lists(json_ints, max_size=3))),
)
json_trees = st.recursive(
    st.one_of(
        json_text,
        json_ints,
        st.booleans(),
        st.none(),
        st.floats(),
        st.lists(json_ints),
        st.lists(st.one_of(json_ints, st.booleans())),
        json_matrices,
    ),
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(json_text, children),
    ),
    max_leaves=40,
)


class TestJsonEncoder:
    @given(json_trees)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, tree):
        assert cli._dumps(tree) == json.dumps(tree, indent=2)

    @pytest.mark.parametrize(
        "tree",
        [{1: 2}, {"a": {(1, 2): []}}, Fraction(1, 2), {"a": [1, Fraction(1)]}, [[Fraction(0)]]],
        ids=["int-key", "tuple-key", "fraction", "fraction-in-list", "fraction-nested"],
    )
    def test_non_json_raises_type_error(self, tree):
        with pytest.raises(TypeError):
            cli._dumps(tree)


class TestOracles:
    def test_flags(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "oracle-flags",
            "--n", "2", "--q", "3", "--partition", "1,1",
            "--cache-dir", str(tmp_path),
        )
        assert code == 0
        assert "oracle agrees" in out
        # second run hits the cache and agrees identically
        code2, out2, _ = run(
            capsys,
            "oracle-flags",
            "--n", "2", "--q", "3", "--partition", "1,1",
            "--cache-dir", str(tmp_path),
        )
        assert code2 == 0
        assert out2 == out

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[: len(raw) // 2],
            lambda raw: b"\x00\xff\xfe garbage",
            # a copy of the first orbit in place of the second
            edit_orbits(lambda orbits: orbits.__setitem__(1, orbits[0])),
            # one flag moved between the orbits: the sizes still sum to
            # the count
            edit_orbits(lambda orbits: (orbits[0].__setitem__(1, orbits[0][1] + 1),
                                        orbits[1].__setitem__(1, orbits[1][1] - 1))),
        ],
        ids=["truncated", "garbage", "repeated-orbit", "orbit-size"],
    )
    def test_flags_damaged_cache_recomputed(self, capsys, tmp_path, damage):
        argv = ["oracle-flags", "--n", "2", "--q", "3", "--partition", "1,1"]
        code, clean, _ = run(capsys, *argv)
        assert code == 0
        assert "orbit size 6" in clean and "orbit size 4" in clean
        run(capsys, *argv, "--cache-dir", str(tmp_path))
        (path,) = tmp_path.iterdir()
        path.write_bytes(damage(path.read_bytes()))
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out, err) == (0, clean, "")
        # the entry was rewritten whole and now hits
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        json.loads(path.read_bytes())
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path), "--format", "json")
        assert json.loads(out)["stats"]["cache"] == "hit"

    def test_flags_stats(self, capsys, tmp_path):
        argv = ["oracle-flags", "--n", "2", "--q", "3", "--partition", "1,1", "--format", "json"]
        stats = []
        for extra in ([], ["--cache-dir", str(tmp_path)], ["--cache-dir", str(tmp_path)]):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            stats.append(json.loads(out)["stats"])
        # each of the 2 orbits is checked
        assert stats == [
            {"cache": "off", "reductions_checked": 2},
            {"cache": "miss", "reductions_checked": 2},
            {"cache": "hit", "reductions_checked": 2},
        ]

    @pytest.mark.parametrize("point", FLAG_POINTS, ids=lambda p: "n{}-q{}-{}".format(*p))
    def test_flags_cache_off_miss_hit_agree(self, capsys, tmp_path, point):
        """The JSON outside ``stats`` is the same with the cache off, on a
        miss and on a hit, and with the cache off it is the pinned
        output.  Every orbit is checked: each point has fewer than 20."""
        n, q, parts = point
        argv = ["oracle-flags", "--n", str(n), "--q", str(q), "--partition", parts, "--format", "json"]
        pinned = json.loads(DIGESTS_PATH.read_text())[" ".join(argv)]
        outputs = []
        for extra in ([], ["--cache-dir", str(tmp_path)], ["--cache-dir", str(tmp_path)]):
            code, out, err = run(capsys, *argv, *extra)
            assert (code, err) == (0, "")
            outputs.append(json.loads(out))
            if not extra:
                assert hashlib.sha256(out.encode()).hexdigest() == pinned["stdout_sha256"]
        assert [o.pop("stats")["cache"] for o in outputs] == ["off", "miss", "hit"]
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0]["reductions_checked"] == len(outputs[0]["orbit_sizes"])
        assert len(list(tmp_path.iterdir())) == 1

    def test_flags_stream_holds_no_list(self, capsys, monkeypatch):
        """The command lists no flags and builds a ``Flag`` only for the
        representatives and, for each checked orbit, the translate g F_s
        and its image under the reduction."""
        argv = ["oracle-flags", "--n", "3", "--q", "3", "--partition", "1,1,1", "--format", "json"]
        code, expected, _ = run(capsys, *argv)
        assert code == 0

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle built the flag list")

        monkeypatch.setattr(flags_module, "enumerate_flags", refuse)
        monkeypatch.setattr(cli, "enumerate_flags", refuse, raising=False)
        built = []
        real = flags_module.Flag.__init__
        monkeypatch.setattr(
            flags_module.Flag, "__init__",
            lambda flag, partition, bases: built.append(partition) or real(flag, partition, bases),
        )
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, expected)
        # the 910 flags are certified from the 4 representatives of the
        # orbits, which the first run built and which are memoised per
        # (profile, q), so this run builds two flags for each orbit
        assert len(json.loads(expected)["orbit_sizes"]) == 4
        assert built == [Partition((1, 1, 1))] * 8

    def test_miss_then_hit_builds_each_representative_once(self, capsys, tmp_path, monkeypatch):
        """A miss of (1, 1, 1), q = 3 builds the 4 representatives of the
        orbits once, for the certificate and the reductions; the hit
        after it, in the same process, builds none."""
        real = flags_module.representative_flag
        built = []

        def counting(profile, field):
            built.append((profile, field.p))
            return real(profile, field)

        monkeypatch.setattr(flags_module, "representative_flag", counting)
        argv = ["oracle-flags", "--n", "3", "--q", "3", "--partition", "1,1,1", "--cache-dir", str(tmp_path)]
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert len(built) == len(set(built)) == 4
        assert [len(profile.partition) for profile, _ in built] == [3, 3, 3, 3]

    @pytest.mark.parametrize("damage", ["profile", "dimension"])
    def test_flags_failed_certification_is_a_mismatch(self, capsys, tmp_path, monkeypatch, damage):
        """An orbit-stabiliser certificate that fails gives exit 1 and
        ORACLE MISMATCH, with no orbits, no traceback and no cache file."""
        first, second = enumerate_coset_matrices(Partition((1, 1, 1)), CaseTag.ODD)[:2]
        if damage == "profile":
            # the first orbit's representative is that of the second
            real = flags_module.representative_flag
            monkeypatch.setattr(
                flags_module, "representative_flag", lambda s, field: real(second if s == first else s, field)
            )
        else:
            # every stabiliser one dimension too large
            real = flags_module._stabiliser_dim
            monkeypatch.setattr(flags_module, "_stabiliser_dim", lambda field, flag: real(field, flag) + 1)
        code, out, err = run(
            capsys, "oracle-flags", "--n", "3", "--q", "3", "--partition", "1,1,1",
            "--cache-dir", str(tmp_path),
        )
        assert code == 1
        assert out.splitlines()[0] == "910 flags, 0 orbits"
        assert out.splitlines()[-1] == "ORACLE MISMATCH"
        assert err.startswith("certification failed: ")
        if damage == "profile":
            assert f"representative of {list(first.flat())} has profile {list(second.flat())}" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "parts, cache", [("1,1,1", True), ("2,1", False)], ids=["certified-miss", "uncertified"]
    )
    def test_wrong_representative_is_a_mismatch(self, capsys, tmp_path, monkeypatch, parts, cache):
        """A representative of another profile fails the certificate, on
        a miss of (1, 1, 1) and with the cache off at (2, 1), and the
        orbit check of every sample: exit 1 with ORACLE MISMATCH, no input
        error, no traceback and no cache file."""
        real = flags_module.representative_flag

        def other(profile, field):
            s = next(s for s in enumerate_coset_matrices(profile.partition, CaseTag.ODD) if s != profile)
            return real(s, field)

        monkeypatch.setattr(flags_module, "representative_flag", other)
        extra = ["--cache-dir", str(tmp_path)] if cache else []
        code, out, err = run(capsys, "oracle-flags", "--n", "3", "--q", "3", "--partition", parts, *extra)
        assert code == 1
        assert out.splitlines()[-1] == "ORACLE MISMATCH"
        assert not any(line.startswith("error:") for line in err.splitlines())
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "point",
        FLAG_POINTS + [(4, 3, "1,1,1,1"), (5, 3, "1,2,1,1"), (6, 3, "1,1,1,1,1,1")],
        ids=lambda p: "n{}-q{}-{}".format(*p),
    )
    def test_checked_orbits_and_their_translates(self, capsys, monkeypatch, point):
        """The command checks the orbits at 0, stride, 2 stride, ... of the
        canonical list, every orbit when there are fewer than 20 (10 of
        (1,1,1,1) and 13 of (1,2,1,1)) and 11 of the 76 of (1^6), each
        from a translate g F_s that is not F_s unless the partition has
        one part."""
        n, q, parts = point
        moved = []
        real = flags_module.translate

        def recording(flag, field):
            moved.append((flag, real(flag, field)))
            return moved[-1][1]

        monkeypatch.setattr(cli, "translate", recording)
        code, out, err = run(capsys, "oracle-flags", "--n", str(n), "--q", str(q), "--partition", parts)
        assert (code, err) == (0, "")
        partition = Partition.parse(parts)
        matrices = enumerate_coset_matrices(partition, CaseTag.ODD)
        sampled = matrices[:: max(1, len(matrices) // 10)]
        assert out.splitlines()[-2:] == [f"reductions checked: {len(sampled)}", "oracle agrees"]
        if len(matrices) < 20:
            assert sampled == matrices
        field = QuadraticExtension(q)
        assert [flags_module.flag_profile(flag, field) for flag, _ in moved] == sampled
        assert all((new != flag) == (len(partition) > 1) for flag, new in moved)

    @pytest.mark.parametrize("parts", ["1,1,1,1", "1,2,1,1"])
    def test_replaced_piece_of_any_orbit_is_a_mismatch(self, capsys, monkeypatch, parts):
        """One graded piece of one representative replaced by l times
        itself, the first nonempty piece of each orbit in turn, makes the
        command report a mismatch: each of the 10 orbits of (1,1,1,1) and
        the 13 of (1,2,1,1) is checked."""
        partition = Partition.parse(parts)
        real = flags_module._representative_pieces
        for damaged in enumerate_coset_matrices(partition, CaseTag.ODD):

            def pieces(profile, q, damaged=damaged):
                out = real(profile, q)
                if profile != damaged:
                    return out
                key = min(k for k, piece in out.items() if piece)
                lam = QuadraticExtension(q).mul_table[QuadraticExtension(q).lam]
                return {**out, key: tuple(tuple(lam[x] for x in v) for v in out[key])}

            monkeypatch.setattr(flags_module, "_representative_pieces", pieces)
            code, out, err = run(capsys, "oracle-flags", "--n", str(partition.total), "--q", "3", "--partition", parts)
            assert (code, out.splitlines()[-1], err) == (1, "ORACLE MISMATCH", ""), damaged
            monkeypatch.undo()

    def test_singular_reduction_is_a_mismatch(self, capsys, monkeypatch):
        """Representative pieces where one piece repeats a vector of
        another make the reduction h singular, so h F drops a dimension:
        the orbit check fails with exit 1 and ORACLE MISMATCH, not with
        an input error."""
        real = flags_module._representative_pieces

        def repeated(profile, q):
            out = real(profile, q)
            keys = [k for k, piece in out.items() if piece]
            first, last = keys[0], keys[-1]
            if first == last:
                return out
            return {**out, last: (out[first][0], *out[last][1:])}

        monkeypatch.setattr(flags_module, "_representative_pieces", repeated)
        code, out, err = run(capsys, "oracle-flags", "--n", "3", "--q", "3", "--partition", "2,1")
        assert (code, out.splitlines()[-1], err) == (1, "ORACLE MISMATCH", "")

    @pytest.mark.parametrize("pair", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], ids=str)
    def test_dropped_frobenius_transport_is_a_mismatch(self, capsys, monkeypatch, pair):
        """Graded pieces whose (b, a) piece is the (a, b) piece itself, not
        its Frobenius image, for one pair a < b: at (1,1,1,1) the command
        reports a mismatch."""
        a, b = pair
        real = flags_module._pieces

        def untransported(flag, field, table):
            pieces = real(flag, field, table)
            return {**pieces, (b, a): pieces[(a, b)]}

        monkeypatch.setattr(flags_module, "_pieces", untransported)
        code, out, err = run(capsys, "oracle-flags", "--n", "4", "--q", "3", "--partition", "1,1,1,1")
        assert (code, out.splitlines()[-1], err) == (1, "ORACLE MISMATCH", "")

    def test_miss_checks_each_representative_once(self, capsys, tmp_path):
        """On a miss at (1^6), q = 3 the certificate looks up the
        representative of each of the 76 orbits and checks its profile,
        and the command does not look them up again: it looks up only
        the 11 it checks, three times each (to translate, as the target
        and for the reduction's pieces).  A hit ran no certificate, so it
        checks every profile itself."""
        argv = ["oracle-flags", "--n", "6", "--q", "3", "--partition", "1,1,1,1,1,1", "--cache-dir", str(tmp_path)]
        lookups = []
        for _ in range(2):
            flags_module._representative.cache_clear()
            flags_module._representative_pieces.cache_clear()
            code, out, _ = run(capsys, *argv)
            assert (code, out.splitlines()[-1]) == (0, "oracle agrees")
            info = flags_module._representative.cache_info()
            lookups.append((info.misses, info.hits))
        assert lookups == [(76, 3 * 11), (76, 3 * 11)]

    def test_wrong_representative_on_a_hit_is_a_mismatch(self, capsys, tmp_path, monkeypatch):
        """A hit runs no certificate, so a representative of another
        profile is caught by the hit's own check of every profile."""
        argv = ["oracle-flags", "--n", "3", "--q", "3", "--partition", "1,1,1", "--cache-dir", str(tmp_path)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        first, second = enumerate_coset_matrices(Partition((1, 1, 1)), CaseTag.ODD)[:2]
        real = flags_module.representative_flag
        monkeypatch.setattr(
            flags_module, "representative_flag", lambda s, field: real(second if s == first else s, field)
        )
        flags_module._representative.cache_clear()
        flags_module._representative_pieces.cache_clear()
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (1, "")
        assert json.loads(out)["stats"]["cache"] == "hit"
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize(
        "n, parts, head",
        [
            # refused at the default budget of 10,000 flags when the
            # budget, not n, bounded the oracle
            (4, "1,1,1,1", "746200 flags, 10 orbits"),
            (10, "10", "1 flags, 1 orbits"),
            (10, "5,5", "818990894351617238824300 flags, 6 orbits"),
        ],
    )
    def test_flags_admitted_up_to_n10(self, capsys, n, parts, head):
        code, out, err = run(capsys, "oracle-flags", "--n", str(n), "--q", "3", "--partition", parts)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert (lines[0], lines[-1]) == (head, "oracle agrees")

    def test_quaternion(self, capsys):
        code, out, _ = run(capsys, "oracle-quaternion", "--alpha", "-1", "--beta", "3")
        assert code == 0
        assert "model verified" in out

    def test_quaternion_square_alpha(self, capsys):
        code, _, err = run(capsys, "oracle-quaternion", "--alpha", "4", "--beta", "1")
        assert code == 2
        assert "square" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lfactor", "--kind", "gj", "--shift", "1/0"],
            ["lfactor", "--kind", "gj", "--shift", "abc"],
            ["lfactor", "--kind", "tate", "--shift", "1/2/3"],
            ["oracle-quaternion", "--alpha", "-1", "--beta", "1/0"],
            ["oracle-quaternion", "--alpha", "1/0", "--beta", "3"],
            ["oracle-quaternion", "--alpha", "-1", "--beta", "abc"],
            # a numerator or denominator past 4,000 digits, which str()
            # could not print
            ["lfactor", "--kind", "gj", "--shift=1e-5000"],
            ["lfactor", "--kind", "tate", "--shift=1e-5000"],
            ["oracle-quaternion", "--alpha", "1e5001", "--beta", "3"],
            ["oracle-quaternion", "--alpha", "1e-5001", "--beta", "3"],
            ["oracle-quaternion", "--alpha", "2", "--beta", "1e-5000", "--format", "json"],
            ["lfactor", "--kind", "tate", f"--shift=-{NINES[4300]}"],
        ],
    )
    def test_bad_rational_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid rational" in capsys.readouterr().err

    def test_rational_parts_up_to_4000_digits(self, capsys):
        # 2 * 10^3999 is no square; both parts print in the JSON report
        alpha, beta = "2" + "0" * 3999, "-1/" + "7" * 4000
        code, out, err = run(capsys, "oracle-quaternion", f"--alpha={alpha}", f"--beta={beta}", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["alpha"] == alpha and json.loads(out)["beta"] == beta
        for argv in (["--alpha=1" + "0" * 4000, "--beta=3"], ["--alpha=-1", "--beta=1/" + "7" * 4001]):
            with pytest.raises(SystemExit) as exc:
                main(["oracle-quaternion", *argv])
            assert exc.value.code == 2
            assert "a part has more than 4000 digits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--max-m", "0"],
            ["sweep", "--max-m", "-3", "--max-d", "2"],
            ["sweep", "--max-d", "0"],
        ],
    )
    def test_range_below_one_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["steinberg", "--case", "odd", "--m", "2", "--d", "1", "--chi", "eta", "--kappa", "1"],
            ["support", "--case", "odd", "--matrix", "[[0,1],[1,0]]", "--chi", "eta", "--kappa", "1"],
        ],
        ids=["steinberg", "support"],
    )
    def test_kappa_is_not_an_option(self, capsys, argv):
        # the half-modulus weight changes no verdict, so it is no option
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --kappa 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "lfactor --kind tate --shift=-600 --eval-q 1000000000000000",
                "value at residue size 1000000000000000 would have about 18061 digits, more than 4000",
            ),
            (
                "lfactor --kind gj --k 40 --d 1",
                "factor would have 32841 dense coefficients (t-degree 40, v-span 800)",
            ),
            (
                "lfactor --kind gj --k 60 --d 1",
                "factor would have 109861 dense coefficients (t-degree 60, v-span 1800)",
            ),
            (
                "lfactor --kind gj --k 30 --d 50",
                "factor would have 697531 dense coefficients (t-degree 30, v-span 22500)",
            ),
            (
                "lfactor --kind gj --k 100 --d 1",
                "factor would have 505101 dense coefficients (t-degree 100, v-span 5000)",
            ),
            (
                "lfactor --kind gj --k 100000000 --d 1",
                "factor would have 500000005000000100000001 dense coefficients"
                " (t-degree 100000000, v-span 5000000000000000)",
            ),
            (
                "lfactor --kind tate --shift=-100000000",
                "factor would have 400000002 dense coefficients (t-degree 1, v-span 200000000)",
            ),
            (
                "lfactor --kind tate --s-coeff 100000000",
                "factor would have 100000001 dense coefficients (t-degree 100000000, v-span 0)",
            ),
            (
                "lfactor --kind i2 --d 1000",
                "factor would have 4004001 dense coefficients (t-degree 2000, v-span 2000)",
            ),
        ],
        ids=["eval-q", "gj-k40", "gj-k60", "gj-k30-d50", "gj-k100", "gj-k1e8", "tate-shift", "tate-s", "i2"],
    )
    def test_lfactor_refuses_what_would_take_seconds(self, capsys, argv, message):
        # refused from a size estimate, before any work that could take
        # seconds or exhaust memory, and without a traceback
        start = time.monotonic()
        code, out, err = run(capsys, *argv.split())
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("q", [61, 2**61 - 1], ids=["q61", "mersenne61"])
    def test_flags_refuses_a_field_too_large(self, capsys, q):
        # refused from the size of the field's tables, before they are
        # built (q = 61 took 11.6 s and 1.55 GB) and before q is
        # trial-divided (about 1.5 * 10^9 divisions for 2^61 - 1)
        start = time.monotonic()
        code, out, err = run(capsys, "oracle-flags", "--n", "1", "--q", str(q), "--partition", "1")
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            f"error: q = {q} is too large: its field tables would hold q^4 = {q**4}"
            " entries, more than 1000000\n"
        )

    def test_flags_largest_field_is_cheap_to_build(self):
        """The one flag at q = 31 costs little more than the one at q = 3:
        its three 961 x 961 tables once took 0.56 s and 83 MB to build
        on a 2-core VM.  Best of three runs each, wall time around the
        interpreter and its own peak resident set size."""

        def best(q):
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-c", PEAK_RSS_CHILD, "oracle-flags", "--n", "1",
                     "--q", str(q), "--partition", "1"],
                    env={**os.environ, "PYTHONPATH": str(SRC)},
                    capture_output=True,
                    text=True,
                    timeout=60,
                )
                assert proc.returncode == 0, proc.stderr
                assert proc.stdout.splitlines()[-1] == "oracle agrees"
                runs.append((time.perf_counter() - start, int(proc.stderr) / 1024))
            return min(t for t, _ in runs), min(mb for _, mb in runs)

        time_3, mb_3 = best(3)
        time_31, mb_31 = best(31)
        assert time_31 - time_3 < 0.25
        assert mb_31 - mb_3 < 35

    @pytest.mark.parametrize("n", [11, 3000])
    def test_flags_refuses_n_above_10_before_any_work(self, capsys, tmp_path, monkeypatch, n):
        """n > MAX_FLAG_N is refused before the field, the cache directory
        or the orbit sizes are built; (3000) ran for more than 20 s."""

        def unbuilt(*args):
            raise AssertionError("work done")

        for name in ("QuadraticExtension", "FlagCache", "profile_histogram", "count_flags"):
            monkeypatch.setattr(cli, name, unbuilt)
        start = time.monotonic()
        code, out, err = run(
            capsys, "oracle-flags", "--n", str(n), "--q", "3", "--partition", str(n),
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: flag space dimension {n} exceeds budget 10\n"
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("n, parts", [(12, "6,6"), (40, "1,39")])
    def test_flags_refuses_what_a_raised_budget_ran(self, capsys, n, parts):
        """Points that ran when --budget was raised are refused by n."""
        code, out, err = run(capsys, "oracle-flags", "--n", str(n), "--q", "3", "--partition", parts)
        assert (code, out) == (2, "")
        assert err == f"error: flag space dimension {n} exceeds budget 10\n"

    def test_flags_refusal_ignores_a_cached_entry(self, capsys, tmp_path, monkeypatch):
        """A signed cache entry for (11) does not admit it: a hit is
        refused as a miss is, and the field is never built."""
        partition = Partition((11,))
        flags_module.FlagCache(str(tmp_path)).store(3, partition, {(0,): 1})
        assert flags_module.FlagCache(str(tmp_path)).load(3, partition) == {(0,): 1}
        entries = sorted(os.listdir(tmp_path))

        def unbuilt(*args):
            raise AssertionError("work done")

        for name in ("QuadraticExtension", "profile_histogram"):
            monkeypatch.setattr(cli, name, unbuilt)
        code, out, err = run(
            capsys, "oracle-flags", "--n", "11", "--q", "3", "--partition", "11",
            "--cache-dir", str(tmp_path),
        )
        assert (code, out) == (2, "")
        assert err == "error: flag space dimension 11 exceeds budget 10\n"
        assert sorted(os.listdir(tmp_path)) == entries

    @pytest.mark.parametrize("option", ["--budget", "--reduce-samples"])
    def test_flags_work_bounds_are_not_options(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-flags", "--n", "2", "--q", "3", "--partition", "1,1", option, "10"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 10" in capsys.readouterr().err

    def test_flags_cache_dir_that_is_a_file_exits_2(self, capsys, tmp_path, monkeypatch):
        # refused before the field is built; once a FileExistsError
        # traceback with exit 1
        def unbuilt(p):
            raise AssertionError("field built")

        monkeypatch.setattr(cli, "QuadraticExtension", unbuilt)
        path = tmp_path / "file"
        path.write_text("kept")
        for directory in (path, path / "sub"):
            code, out, err = run(
                capsys, "oracle-flags", "--n", "2", "--q", "3", "--partition", "1,1",
                "--cache-dir", str(directory),
            )
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot make cache directory {directory}: ")
        assert path.read_text() == "kept"

    @pytest.mark.parametrize(
        "argv, estimate",
        [
            ("steinberg --case odd --m 201 --d 1 --chi triv --format json", 201**3),
            ("steinberg --case even --m 101 --d 2 --chi eta --format json", 202**3),
            ("steinberg --case odd --m 100000 --d 1 --chi triv --format json", 100000**3),
            ("sweep --max-m 101 --max-d 2", 202**3),
            ("sweep --max-m 201 --max-d 1", 201**3),
            ("sweep --max-m 100000", 200000**3),
        ],
        ids=["odd-201", "even-101", "odd-100000", "sweep-even-101", "sweep-odd-201", "sweep-100000"],
    )
    def test_decision_size_refused_before_any_work(self, capsys, monkeypatch, argv, estimate):
        # the decision is stubbed, so a regressed bound fails here
        # instead of allocating the trace
        def undecided(*args, **kwargs):
            raise AssertionError("decision started")

        monkeypatch.setattr(cli, "steinberg_decision", undecided)
        monkeypatch.setattr(cli, "cross_check", undecided)
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == f"error: decision trace cell count {estimate} exceeds budget 8000000\n"

    @pytest.mark.parametrize(
        "argv, estimate",
        [
            ("steinberg --case odd --m 1001 --d 1 --chi triv", 1001**2),
            ("steinberg --case even --m 501 --d 2 --chi eta", 1002**2),
            ("steinberg --case odd --m 100000 --d 1 --chi triv", 100000**2),
        ],
        ids=["odd-1001", "even-501", "odd-100000"],
    )
    def test_status_size_refused_before_any_work(self, capsys, monkeypatch, argv, estimate):
        # table output reads the status off two reports of n^2 cells
        def undecided(*args, **kwargs):
            raise AssertionError("decision started")

        monkeypatch.setattr(cli, "steinberg_decision", undecided)
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == f"error: decision report cell count {estimate} exceeds budget 1000000\n"

    @pytest.mark.parametrize("case, m, d", [("odd", 1000, 1), ("even", 500, 2)])
    def test_status_at_the_largest_admitted_size(self, capsys, case, m, d):
        # a status from two reports of 10^6 cells each: about 0.3 s from
        # the shell on a 2-core VM
        expected = exponent_parity_formula(m, d)
        for chi in ChiToken:
            start = time.monotonic()
            code, out, _ = run(capsys, "steinberg", "--case", case, "--m", str(m), "--d", str(d), "--chi", chi.value)
            assert time.monotonic() - start < 10
            status = "DISTINGUISHED (multiplicity 1)" if chi is expected else "NOT_DISTINGUISHED (multiplicity 0)"
            assert (code, out) == (0, f"case={case} m={m} d={d} chi={chi.value}: {status}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            "steinberg --case odd --m 200 --d 1 --chi triv --format json",
            "steinberg --case even --m 100 --d 2 --chi eta --format json",
            "steinberg --case odd --m 1000 --d 1 --chi triv",
            "steinberg --case even --m 500 --d 2 --chi eta",
            "sweep --max-m 100 --max-d 2",
            "sweep --max-m 200 --max-d 1",
        ],
        ids=["odd-200", "even-100", "odd-1000-table", "even-500-table", "sweep-even-100", "sweep-odd-200"],
    )
    def test_decision_size_admits_the_scale_points(self, capsys, monkeypatch, argv):
        class Decided(Exception):
            pass

        def decided(*args, **kwargs):
            raise Decided

        monkeypatch.setattr(cli, "steinberg_decision", decided)
        monkeypatch.setattr(cli, "cross_check", decided)
        with pytest.raises(Decided):
            main(argv.split())

    @pytest.mark.parametrize(
        "argv, rows",
        [
            ("sweep --max-m 1 --max-d 100000", 100000),
            ("sweep --max-m 100 --max-d 101", 10100),
            ("sweep --max-m 1 --max-d 100000000", 100000000),
        ],
        ids=["d-100000", "m-100-d-101", "d-10^8"],
    )
    def test_sweep_rows_refused_before_any_work(self, capsys, monkeypatch, argv, rows):
        def undecided(*args, **kwargs):
            raise AssertionError("cross-check started")

        monkeypatch.setattr(cli, "cross_check", undecided)
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == f"error: sweep row count {rows} exceeds budget 10000\n"

    @pytest.mark.parametrize(
        "argv", ["sweep --max-m 1 --max-d 10000", "sweep --max-m 100 --max-d 100"], ids=["d-10000", "m-100-d-100"]
    )
    def test_sweep_rows_admitted_up_to_the_bound(self, capsys, monkeypatch, argv):
        class Checked(Exception):
            pass

        def checked(*args, **kwargs):
            raise Checked

        monkeypatch.setattr(cli, "cross_check", checked)
        with pytest.raises(Checked):
            main(argv.split())

    def test_flags_n_must_match_partition(self, capsys):
        code, out, err = run(capsys, "oracle-flags", "--n", "3", "--q", "3", "--partition", "1,1")
        assert (code, out) == (2, "")
        assert err == "error: partition 1,1 sums to 2, not to n = 3\n"

    def test_non_integer_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--max-m", "two"])
        assert exc.value.code == 2
        assert "invalid integer" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix", ['[["a"]]', "[[0.5, 0.5]]", "[[true]]"])
    def test_non_integer_matrix_exits_2(self, capsys, matrix):
        code, _, err = run(capsys, "support", "--case", "odd", "--matrix", matrix, "--chi", "eta")
        assert code == 2
        assert "integers" in err

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ("[[1,-1],[-1,1]]", "entries must be non-negative"),
            ("[[1],[0]]", "entries must be a t x t matrix"),
            ("[[0,1],[1,0],[0,0]]", "entries must be a t x t matrix"),
            ("[[0,1],[2,0]]", "entries must be symmetric"),
            ("[[0,0],[0,1]]", "partition parts must be positive"),
            ("[]", "partition must be nonempty"),
        ],
        ids=["negative", "column", "three-by-two", "asymmetric", "zero-row", "empty"],
    )
    def test_matrix_refused_in_the_constructor_order(self, capsys, matrix, message):
        # ``support`` takes no partition: the matrix's shape, signs and
        # symmetry are checked before its row sums as parts
        code, out, err = run(capsys, "support", "--case", "odd", "--matrix", matrix, "--chi", "eta")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                f"steinberg --case odd --m {NINES[2200]} --d 1 --chi triv",
                "decision report cell count over 10^4399 exceeds budget 1000000",
            ),
            (
                f"sweep --max-m {NINES[4000]} --max-d 1",
                "decision trace cell count over 10^11999 exceeds budget 8000000",
            ),
            (
                f"lfactor --kind gj --k {NINES[4000]} --d 1",
                f"factor would have over 10^11999 dense coefficients (t-degree {NINES[4000]},"
                " v-span over 10^7999), more than 10000",
            ),
            (
                f"lfactor --kind i2 --d {NINES[2200]}",
                f"factor would have over 10^4400 dense coefficients (t-degree {2 * NINES[2200]},"
                f" v-span {2 * NINES[2200]}), more than 10000",
            ),
            # a shift has at most 4,000 digits a part, so here the s
            # coefficient is what is large
            (
                f"lfactor --kind tate --s-coeff {NINES[4300]}",
                f"factor would have over 10^4299 dense coefficients (t-degree {NINES[4300]},"
                " v-span 0), more than 10000",
            ),
            (
                f"oracle-flags --n 1 --q {NINES[2200]} --partition 1",
                f"q = {NINES[2200]} is too large: its field tables would hold q^4 = over 10^8799"
                " entries, more than 1000000",
            ),
            (
                f"oracle-flags --n 1 --q 3 --partition {NINES[4300]},{NINES[4300]}",
                f"partition {NINES[4300]},{NINES[4300]} sums to over 10^4300, not to n = 1",
            ),
        ],
        ids=["steinberg-m", "sweep-max-m", "gj-k", "i2-d", "tate-s", "flags-q", "flags-partition-sum"],
    )
    def test_estimate_past_the_int_digit_limit_is_refused(self, capsys, argv, message):
        # each estimate or sum has more than the 4,300 digits that str()
        # of an int allows, so it is written as a power of ten
        code, out, err = run(capsys, *argv.split())
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "entry, fmt",
        [("9" * 4301, "table"), ("9" * 4300, "json"), ("-" + "9" * 4001, "table")],
        ids=["4301-digits", "4300-digits-json", "negative-4001-digits"],
    )
    def test_matrix_entry_digits_are_bounded(self, capsys, entry, fmt):
        # once a ValueError traceback: json.loads of an entry past 4,300
        # digits, or the 4,301-digit row sums of a 2 x 2 matrix in JSON
        matrix = f"[[{entry}, {entry}], [{entry}, {entry}]]"
        code, out, err = run(capsys, "support", "--case", "odd", "--matrix", matrix, "--chi", "triv", "--format", fmt)
        assert (code, out, err) == (2, "", "error: matrix entries must have at most 4000 digits\n")

    def test_matrix_entry_digit_bound_is_admitted(self, capsys):
        # 4,000-digit entries have 4,001-digit row sums, which print
        entry = NINES[4000]
        matrix = json.dumps([[entry, entry], [entry, entry]])
        code, out, _ = run(capsys, "support", "--case", "odd", "--matrix", matrix, "--chi", "triv", "--format", "json")
        assert code == 0
        assert json.loads(out)["s"]["partition"] == [2 * entry, 2 * entry]

    def test_rational_arguments_parsed(self, capsys):
        code, out, _ = run(capsys, "lfactor", "--kind", "gj", "--shift=-1/2")
        assert code == 0
        assert out.strip() == "(1)/(1 - v t)"

    def test_internal_value_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "steinberg_decision", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["steinberg", "--case", "odd", "--m", "2", "--d", "1", "--chi", "eta"])


# Every option of every subcommand; an option added or removed must
# change this table.
OPTIONS = {
    "enumerate": {"--case", "--partition"},
    "support": {"--case", "--matrix", "--chi"},
    "steinberg": {"--case", "--m", "--d", "--chi"},
    "sweep": {"--max-m", "--max-d"},
    "lfactor": {
        "--kind", "--char", "--ram", "--shift", "--s-coeff", "--k", "--d", "--eval-q",
    },
    "oracle-flags": {
        "--n", "--q", "--partition", "--cache-dir",
    },
    "oracle-quaternion": {"--alpha", "--beta"},
}


def test_option_surface():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert [a.option_strings for a in parser._actions if a is not sub] == [["-h", "--help"]]
    surface = {
        name: {option for action in p._actions for option in action.option_strings}
        for name, p in sub.choices.items()
    }
    assert surface == {
        name: options | {"-h", "--help", "--format"} for name, options in OPTIONS.items()
    }


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestWithoutSympy:
    def test_cli_import_loads_no_sympy(self):
        proc = run_python(
            "import sys, steinberg_distinction.cli; print('sympy' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_loads_only_what_commands_run(self):
        # logging and the quaternion oracle load on first use, and the
        # records need no dataclasses (nor the inspect it imports); every
        # module the benchmark's tracer wraps loads with the CLI
        proc = run_python("import sys, steinberg_distinction.cli; print(sorted(sys.modules))")
        assert proc.returncode == 0, proc.stderr
        loaded = set(ast.literal_eval(proc.stdout))
        deferred = [
            "logging", "sympy", "steinberg_distinction.oracles.quaternion", "dataclasses", "inspect"
        ]
        assert [name for name in deferred if name in loaded] == []
        traced = ["engine", "characters", "cosets", "lfactor", "oracles.flags", "oracles.finite_field"]
        assert [name for name in traced if f"steinberg_distinction.{name}" not in loaded] == []

    def test_cli_import_without_site_loads_no_typing(self):
        # without site hooks nothing else preloads typing, so this sees
        # what the package itself imports
        proc = run_python("import sys, steinberg_distinction.cli; print(sorted(sys.modules))", "-S")
        assert proc.returncode == 0, proc.stderr
        loaded = set(ast.literal_eval(proc.stdout))
        assert "site" not in loaded
        deferred = ["typing", "dataclasses", "inspect", "logging"]
        assert [name for name in deferred if name in loaded] == []

    def test_quaternion_oracle_runs_without_dataclasses(self):
        proc = run_python(
            "import sys\n"
            "from steinberg_distinction.cli import main\n"
            "code = main(['oracle-quaternion', '--alpha', '-1', '--beta', '3'])\n"
            "print(code, 'steinberg_distinction.oracles.quaternion' in sys.modules,"
            " 'dataclasses' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 True False"

    def test_commands_run_with_sympy_blocked(self):
        # a None entry makes every import of sympy fail
        proc = run_python(
            "import sys\n"
            "sys.modules['sympy'] = None\n"
            "from steinberg_distinction.cli import main\n"
            "codes = [\n"
            "    main(['lfactor', '--kind', 'i2', '--d', '1', '--eval-q', '2', '9']),\n"
            "    main(['enumerate', '--case', 'odd', '--partition', '1,2,1']),\n"
            "    main(['steinberg', '--case', 'even', '--m', '2', '--d', '2', '--chi', 'triv']),\n"
            "]\n"
            "print('codes', codes)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "codes [0, 0, 0]"
        assert "q=2: nonzero (-2)" in proc.stdout


def test_closed_pipe_exits_1_silently():
    # 223 kB of output, more than a pipe buffer holds, so a write
    # after the reader closes its end must fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "steinberg_distinction", "enumerate", "--case", "odd",
         "--partition", "1,1,1,1,1,1,1", "--format", "json"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


def test_closed_pipe_mid_matrices_exits_1_silently():
    # (1^10) odd writes 16 MB a matrix at a time, far more than a pipe
    # buffer holds, so the writes after the reader closes its end fail
    # whether or not a write follows the last one
    proc = subprocess.Popen(
        [sys.executable, "-m", "steinberg_distinction", "enumerate", "--case", "odd",
         "--partition", "1,1,1,1,1,1,1,1,1,1", "--format", "json"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


def test_closed_pipe_mid_trace_exits_1_silently():
    # odd m = 60 writes 3.8 MB a trace entry at a time, far more than a
    # pipe buffer holds, so the writes after the reader closes its end
    # fail whether or not a write follows the last one
    proc = subprocess.Popen(
        [sys.executable, "-m", "steinberg_distinction", "steinberg", "--case", "odd",
         "--m", "60", "--d", "1", "--chi", "triv", "--format", "json"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


def test_tracing_install_resolves_every_name():
    # the benchmark's tracer wraps package functions by name, so a
    # renamed function must fail here and not only in the benchmark
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, tracing\n"
            "tracer = tracing.install()\n"
            "pkg = tracing.PKG\n"
            "for name, module, attr, _ in tracing.FUNCTIONS:\n"
            "    assert hasattr(getattr(sys.modules[f'{pkg}.{module}'], attr), '__wrapped__'), name\n"
            "for name, module, cls, methods, _ in tracing.METHODS:\n"
            "    owner = getattr(sys.modules[f'{pkg}.{module}'], cls)\n"
            "    for method in methods:\n"
            "        assert hasattr(getattr(owner, method), '__wrapped__'), name\n"
            "names = {f[0] for f in tracing.FUNCTIONS} | {m[0] for m in tracing.METHODS}\n"
            "assert set(tracer.stats) == names, names ^ set(tracer.stats)\n"
            "print(len(names))\n",
        ],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT / "bench")])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
