"""``cli._fast_parse``, the one-pass parse of well-formed command lines,
against argparse.

Where it returns a namespace, that namespace equals what
``build_parser().parse_args`` returns; where argparse refuses or prints
help, it returns None.  The argvs of the benchmark workloads and of the
pinned digests must take it, so that it cannot go unused unnoticed.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg_distinction import cli

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
DIGEST_KEYS = list(json.loads(Path(__file__).with_name("cli_digests.json").read_text()))


def argparse_outcome(argv: list[str]):
    """vars of ``parse_args(argv)``, or None where argparse exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def workload_argvs() -> list[list[str]]:
    return [
        workloads.full_argv(argv, "cache")
        for name in workloads.WORKLOADS
        for unit in workloads.units(name)
        for argv in unit
    ]


def subcommands(parser) -> dict:
    """The sub-parsers of ``parser`` by name."""
    return next(a for a in parser._actions if isinstance(a, cli.argparse._SubParsersAction)).choices


SUBCOMMANDS = subcommands(cli.build_parser())
# values that parse, values that a type or a choice refuses, and values
# that argparse reads as options or splits
HOSTILE = ["0", "-1", "-1/2", "1/0", "-", "--", "", " ", "x=y", "=", "1,,2", "Odd", "-h", "--help"]
# well-formed values by option type; an option with choices takes those
GOOD = {
    None: ["1,2", "1,1", "[[0,1],[1,0]]", "cache"],
    int: ["1", "2", "3", "9"],
    cli._positive_int: ["1", "2"],
    cli._rational: ["1/2", "0", "3"],
}
# how an option is given: left out, as "--option value ...",
# "--option=value", abbreviated, twice, or followed by a stray token
FORMS = ["omit", "space", "space", "equals", "abbrev", "repeat", "stray"]


@st.composite
def argvs(draw) -> list[str]:
    """Mostly a subcommand with its options in some order.  A clean argv
    gives each required option and some others as "--option value" or
    "--option=value" with well-formed values; any other argv gives each
    option in one of ``FORMS``, with values drawn also from ``HOSTILE``.
    Now and then the first token is not a subcommand."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS) * 3 + ["--help", "x", ""]))
    if name not in SUBCOMMANDS:
        return [name] + draw(st.lists(st.sampled_from(HOSTILE), max_size=3))
    clean = draw(st.booleans())
    actions = [a for a in SUBCOMMANDS[name]._actions if a.default is not cli.argparse.SUPPRESS]
    argv = [name]
    for action in draw(st.permutations(actions)):
        option = action.option_strings[0]
        good = list(action.choices) if action.choices else GOOD[action.type]
        value = st.sampled_from(good if clean else good * 3 + HOSTILE)
        values = st.lists(value, max_size=3) if action.nargs == "*" else value.map(lambda v: [v])
        if clean:
            forms = ["space", "equals"] if action.required else ["omit", "space", "equals"]
        else:
            forms = FORMS
        form = draw(st.sampled_from(forms))
        if form == "space":
            argv += [option, *draw(values)]
        elif form == "equals":
            argv.append(f"{option}={draw(value)}")
        elif form == "abbrev":
            argv += [option[: draw(st.integers(2, len(option) - 1))], *draw(values)]
        elif form == "repeat":
            argv += [option, *draw(values), option, *draw(values)]
        elif form == "stray":
            argv += [option, *draw(values), draw(st.sampled_from(HOSTILE))]
    return argv


class TestFastParse:
    @given(argvs())
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_none_or_what_argparse_returns(self, argv):
        fast = cli._fast_parse(argv)
        expected = argparse_outcome(argv)
        if expected is None:
            assert fast is None
        elif fast is not None:
            assert vars(fast) == expected

    @pytest.mark.parametrize(
        "argv",
        [
            "steinberg --case odd --m 3 --d 1 --chi eta",
            "lfactor --kind gj --shift=-1/2 --eval-q",
            "lfactor --kind i2 --eval-q 2 9 --ram=ramified --format json",
            "enumerate --partition= --case=even",
            "sweep",
            "oracle-flags --n 2 --q 3 --partition 1,1 --cache-dir=--x",
        ],
    )
    def test_well_formed_argv_takes_the_fast_path(self, argv):
        fast = cli._fast_parse(argv.split())
        assert fast is not None
        assert vars(fast) == argparse_outcome(argv.split())

    @pytest.mark.parametrize(
        "argv",
        [
            "steinberg --case odd --m 3 --d 1",
            "steinberg --cas odd --m 3 --d 1 --chi eta",
            "steinberg --case odd --case odd --m 3 --d 1 --chi eta",
            "steinberg --case odd --m -3 --d 1 --chi eta",
            "steinberg --case odd --m 3 --d 1 --chi eta --help",
            "steinberg --case odd --m 3 --d 1 --chi eta --",
            "steinberg --case odd --m 3 4 --d 1 --chi eta",
            "steinberg --case Odd --m 3 --d 1 --chi eta",
            "steinberg --case odd --m three --d 1 --chi eta",
            "lfactor --kind gj --eval-q=2",
            "lfactor --kind gj --shift 1/0",
            "sweep --max-m 0",
            "-h",
            "",
        ],
    )
    def test_other_argvs_are_left_to_argparse(self, argv):
        assert cli._fast_parse(argv.split()) is None

    def test_defaults_go_through_the_option_type(self):
        fast = cli._fast_parse(["lfactor", "--kind", "tate"])
        assert fast.shift == 0 and type(fast.shift) is cli.Fraction
        assert fast.eval_q == [] and fast.func is cli.cmd_lfactor and fast.command == "lfactor"

    def test_table_follows_a_rebuilt_parser(self):
        cli.build_parser.cache_clear()
        first = cli._fast_parse(["sweep"])
        cli.build_parser.cache_clear()
        second = cli._fast_parse(["sweep"])
        assert vars(first) == vars(second)
        parser = cli.build_parser()
        options = cli._option_table(parser)["sweep"][0]
        assert options["--max-m"] is subcommands(parser)["sweep"]._option_string_actions["--max-m"]


class TestFastPathIsTaken:
    """The argvs the benchmark and the pinned digests run all reach
    ``_fast_parse`` and get a namespace from it."""

    def test_every_workload_argv(self):
        argvs = workload_argvs()
        assert len(argvs) > 150
        for argv in argvs:
            fast = cli._fast_parse(argv)
            assert fast is not None, argv
            assert vars(fast) == argparse_outcome(argv), argv

    def test_every_digest_key_without_a_negative_value(self):
        taken = 0
        for key in DIGEST_KEYS:
            argv = key.split()
            if any(token.startswith("-") and not token.startswith("--") for token in argv):
                continue
            fast = cli._fast_parse(argv)
            assert fast is not None, key
            assert vars(fast) == argparse_outcome(argv), key
            taken += 1
        assert taken == len(DIGEST_KEYS) - 1

    def test_main_without_argv_reads_sys_argv(self, monkeypatch, capsys):
        returned = []

        def spy(argv):
            returned.append(fast_parse(argv))
            return returned[-1]

        fast_parse = cli._fast_parse
        monkeypatch.setattr(cli, "_fast_parse", spy)
        monkeypatch.setattr(sys, "argv", ["steinberg-distinction", "sweep", "--max-m", "1", "--max-d", "1"])
        assert cli.main() == 0
        assert len(returned) == 1 and returned[0] is not None
        assert capsys.readouterr().out.endswith("all agree\n")
