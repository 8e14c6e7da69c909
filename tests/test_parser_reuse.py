"""``cli.main`` reuses one parser per process.

The isolation check needs no pytest, so it also runs on interpreters
that have none:

    PYTHONPATH=src python tests/test_parser_reuse.py
"""

import argparse
import contextlib
import io

from steinberg_distinction import cli

# Every subcommand, with usage errors, help, input errors and a
# defaulted list option (``--eval-q``) both given and left out.  Most
# take ``cli._fast_parse``; the forms it leaves to argparse (an
# abbreviation, a repeat, a negative value as a token of its own,
# ``--eval-q=2``, help after other options and ``--``) come last.
SEQUENCE = [
    ["enumerate", "--case", "odd", "--partition", "1,2", "--format", "json"],
    ["sweep", "--max-m", "0"],
    ["lfactor", "--kind", "gj", "--k", "2", "--d", "1", "--shift=-1/2", "--eval-q", "2", "9"],
    ["steinberg", "--help"],
    ["lfactor", "--kind", "gj", "--k", "2", "--d", "1", "--shift=-1/2"],
    ["enumerate", "--case", "odd", "--partition", "x"],
    ["support", "--case", "even", "--matrix", "[[0,2],[2,0]]", "--chi", "triv"],
    ["steinberg", "--case", "odd", "--m", "3", "--d", "1", "--chi", "eta", "--format", "json"],
    ["steinberg", "--case", "odd", "--m", "3"],
    ["lfactor", "--kind", "tate", "--char", "eta", "--ram", "ramified", "--format", "json"],
    ["sweep", "--max-m", "2", "--max-d", "2"],
    ["oracle-flags", "--n", "2", "--q", "3", "--partition", "1,1"],
    ["oracle-flags", "--n", "two", "--q", "3", "--partition", "1,1"],
    ["oracle-quaternion", "--alpha", "-1", "--beta", "3"],
    ["oracle-quaternion", "--alpha", "4", "--beta", "1"],
    ["lfactor", "--kind", "i2", "--d", "1", "--eval-q", "2", "9", "--format", "json"],
    ["lfactor", "--kind", "i2", "--d", "1", "--format", "json"],
    [],
    ["enumerate", "--case", "odd", "--part", "1,2"],
    ["steinberg", "--case", "odd", "--case", "even", "--m", "2", "--d", "2", "--chi", "eta"],
    ["steinberg", "--case", "odd", "--m", "-3", "--d", "1", "--chi", "eta"],
    ["lfactor", "--kind", "i2", "--d", "1", "--eval-q=2"],
    ["sweep", "--max-m", "2", "--help"],
    ["sweep", "--max-m", "2", "--"],
]


def outcome(argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_isolation() -> None:
    """Each command of ``SEQUENCE``, run forwards and then reversed under
    one shared parser, gives what it gives under a freshly built one."""
    fresh = {}
    for argv in SEQUENCE:
        cli.build_parser.cache_clear()
        fresh[tuple(argv)] = outcome(argv)
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    for argv in SEQUENCE + SEQUENCE[::-1]:
        assert outcome(argv) == fresh[tuple(argv)], argv
    assert cli.build_parser() is parser
    codes = {code for code, _, _ in fresh.values()}
    assert codes == {0, 1, 2}, codes


def test_main_builds_no_parser_after_the_first_call(monkeypatch):
    added = []
    original = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    cli.build_parser.cache_clear()
    outcome(["steinberg", "--case", "odd", "--m", "2", "--d", "1", "--chi", "eta"])
    assert added
    added.clear()
    for argv in SEQUENCE:
        outcome(argv)
    assert added == []


def test_reuse_isolation():
    check_isolation()


if __name__ == "__main__":
    check_isolation()
    print(f"parser reuse isolated: {len(SEQUENCE)} commands forwards and reversed")
