import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from steinberg_distinction import cli
from steinberg_distinction.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


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

    def test_lfactor_i2(self, capsys):
        code, out, _ = run(
            capsys, "lfactor", "--kind", "i2", "--d", "1", "--eval-q", "2", "9"
        )
        assert code == 0
        assert "(1 + t^2)/(1 - v^2 t^2)" in out
        assert "nonvanishing: True" in out


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
        [lambda raw: raw[: len(raw) // 2], lambda raw: b"\x00\xff\xfe garbage"],
        ids=["truncated", "garbage"],
    )
    def test_flags_damaged_cache_recomputed(self, capsys, tmp_path, damage):
        argv = ["oracle-flags", "--n", "3", "--q", "3", "--partition", "2,1"]
        code, clean, _ = run(capsys, *argv)
        assert code == 0
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
            ["steinberg", "--case", "odd", "--m", "2", "--d", "1", "--chi", "eta", "--kappa", "1/0"],
            ["support", "--case", "odd", "--matrix", "[[0,1],[1,0]]", "--chi", "eta", "--kappa", "x"],
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
