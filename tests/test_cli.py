import json

import pytest

from steinberg_distinction.cli import main


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
