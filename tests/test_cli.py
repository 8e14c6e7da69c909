import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg_distinction import cli, engine
from steinberg_distinction.cli import main
from steinberg_distinction.cosets import COUNT_LIMIT, CaseTag
from steinberg_distinction.lfactor import MAX_RESIDUE_SIZE
from steinberg_distinction.oracles import flags as flags_module
from steinberg_distinction.oracles.flags import DEFAULT_BUDGET

from conftest import compositions

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def edit_flags(change):
    """A cache-file mangler that edits the flags of the payload and
    leaves its checksum as it was."""

    def mangle(raw):
        data = json.loads(raw)
        change(data["flags"])
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

    def test_bad_partition(self, capsys):
        code, _, err = run(capsys, "enumerate", "--case", "odd", "--partition", "x")
        assert code == 2
        assert "error" in err

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
        assert data["status"] == "DISTINGUISHED"
        assert data["multiplicity"] == 1

    def test_steinberg_parity_mismatch(self, capsys):
        code, _, err = run(
            capsys, "steinberg", "--case", "even", "--m", "2", "--d", "3", "--chi", "eta"
        )
        assert code == 2
        assert "error" in err


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

        def counting(case, m, d, chi, *rest):
            calls.append((case, m, d, chi))
            return decide(case, m, d, chi, *rest)

        monkeypatch.setattr(engine, "steinberg_decision", counting)
        for fmt in ("table", "json"):
            calls.clear()
            assert run(capsys, *argv, "--format", fmt) == expected[fmt]
            assert len(calls) == 16
            assert len({(case, m, chi) for case, m, _, chi in calls}) == 16
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


DIGESTS_PATH = Path(__file__).with_name("cli_digests.json")


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
        for n, q, parts in (
            [(2, q, "1,1") for q in (3, 5, 7)]
            + [(3, 3, p) for p in ("1,1,1", "2,1", "1,2", "3")]
            + [(3, 5, "2,1"), (3, 5, "1,2"), (3, 7, "2,1")]
        )
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
    return commands


def test_output_bytes_pinned(monkeypatch):
    """Exit code, stdout digest and stderr of every command in
    `pinned_commands`: `steinberg --format json` at odd m <= 30 (d = 1)
    and even m <= 15 (d = 2), both tokens, `sweep --max-m 5 --max-d 4`,
    and every `lfactor` command of the benchmark plus a small grid, the
    last two as table and JSON; and as JSON, `enumerate` on every
    composition of 4, 5 and 6 and on 1^7, `oracle-flags` at the
    benchmark's 10 points without a cache, a few `support` orbits and
    two `oracle-quaternion` pairs, one refused.  The steinberg and sweep
    digests were recorded before the support test moved from rational
    to integer exponents, the lfactor ones before `RationalFunc` moved
    to dense rows, and the JSON ones added with them before `_dumps`
    replaced `json.dumps(payload, indent=2)`; an intended output change
    must re-record them."""
    monkeypatch.delenv("DISTINCTION_CACHE_DIR", raising=False)
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
json_trees = st.recursive(
    st.one_of(
        json_text,
        json_ints,
        st.booleans(),
        st.none(),
        st.floats(),
        st.lists(json_ints),
        st.lists(st.one_of(json_ints, st.booleans())),
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

    def test_flags_env_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DISTINCTION_CACHE_DIR", str(tmp_path))
        code, out, _ = run(
            capsys, "oracle-flags", "--n", "2", "--q", "3", "--partition", "1,1"
        )
        assert code == 0
        assert list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[: len(raw) // 2],
            lambda raw: b"\x00\xff\xfe garbage",
            # a copy of the first flag in place of the second
            edit_flags(lambda flags: flags.__setitem__(1, flags[0])),
            # the Frobenius-stable line [[3, 0]] spelled l (1, 0) = [[1, 0]]:
            # not reduced, and its profile would be misread
            edit_flags(lambda flags: flags[0][0].__setitem__(0, [1, 0])),
        ],
        ids=["truncated", "garbage", "repeated-flag", "unreduced-basis"],
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

    def test_flags_stats(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("DISTINCTION_CACHE_DIR", raising=False)
        argv = ["oracle-flags", "--n", "2", "--q", "3", "--partition", "1,1", "--format", "json"]
        stats = []
        for extra in ([], ["--cache-dir", str(tmp_path)], ["--cache-dir", str(tmp_path)]):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            stats.append(json.loads(out)["stats"])
        # 10 flags, 2 representatives, 10 sampled reductions
        assert stats == [
            {"cache": "off", "flags_enumerated": 10, "profiles_computed": 22, "reductions_checked": 10},
            {"cache": "miss", "flags_enumerated": 10, "profiles_computed": 22, "reductions_checked": 10},
            {"cache": "hit", "flags_enumerated": 0, "profiles_computed": 22, "reductions_checked": 10},
        ]

    def test_flags_stream_holds_no_list(self, capsys, monkeypatch):
        argv = ["oracle-flags", "--n", "3", "--q", "3", "--partition", "1,1,1", "--format", "json"]
        code, expected, _ = run(capsys, *argv)
        assert code == 0

        def refuse(*args, **kwargs):
            raise AssertionError("the streamed oracle built the flag list")

        monkeypatch.setattr(flags_module, "enumerate_flags", refuse)
        monkeypatch.setattr(cli, "enumerate_flags", refuse, raising=False)
        stream = flags_module.iter_flags
        alive: weakref.WeakSet = weakref.WeakSet()
        most = []

        def watched(*args, **kwargs):
            for flag, profile in stream(*args, **kwargs):
                alive.add(flag)
                most.append(len(alive))
                yield flag, profile

        monkeypatch.setattr(cli, "iter_flags", watched)
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, expected)
        # 910 flags pass through; alive at any time are only the 10
        # sampled for reduction, the new one and the last one, which the
        # command's loop holds until it takes the next
        assert len(most) == 910 and max(most) <= 12

    def test_flags_budget(self, capsys):
        code, _, err = run(
            capsys, "oracle-flags", "--n", "4", "--q", "3", "--partition", "1,1,1,1"
        )
        assert code == 2
        assert "746200" in err

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
        ],
    )
    def test_bad_rational_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid rational" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--max-m", "0"],
            ["sweep", "--max-m", "-3", "--max-d", "2"],
            ["sweep", "--max-d", "0"],
            ["oracle-flags", "--n", "2", "--q", "3", "--partition", "1,1", "--reduce-samples", "0"],
            ["oracle-flags", "--n", "2", "--q", "3", "--partition", "1,1", "--reduce-samples", "-1"],
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
        ids=["eval-q", "gj-k40", "gj-k60", "gj-k30-d50", "gj-k100", "tate-shift", "tate-s", "i2"],
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

    def test_flags_budget_checked_before_the_field_is_built(self, capsys, monkeypatch):
        def unbuilt(p):
            raise AssertionError("field built")

        monkeypatch.setattr(cli, "QuadraticExtension", unbuilt)
        code, out, err = run(capsys, "oracle-flags", "--n", "3", "--q", "31", "--partition", "1,1,1")
        assert (code, out) == (2, "")
        # (1 + 961)(1 + 961 + 961^2) full flags over F_{31^2}
        assert err == "error: flag count 889352646 exceeds budget 10000\n"

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
        "--n", "--q", "--partition", "--budget", "--reduce-samples", "--cache-dir",
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


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
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
