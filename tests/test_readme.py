"""README's library example, problem file and command lines run against the current API.

The README documents how to build a precision, a problem and a solve;
these tests run its code blocks as printed, so the README cannot drift
from the package again.
"""

import contextlib
import io
import re
import shlex
import textwrap
from pathlib import Path

from simulroot import cli, ingest, make_real, parse_problem, solve

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    section = README.split(heading + "\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _near(values, roots, bound):
    return all(abs(x - make_real(r)) < make_real(bound) for x, r in zip(values, roots))


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("## Library", "python"), {})
    finals = [make_real(s) for s in re.findall(r"'([^']+)'", out.getvalue())]
    assert len(finals) == 2 and _near(finals, ("-2", "3"), "1e-12")


def test_problem_file_parses_and_solves():
    spec = parse_problem(_block("### Problem file (JSON)", "json"))
    assert spec.init[0].digits == 64
    report = solve(spec.poly, spec.profile(), spec.initial_vector(), spec.config)
    assert len(report.trace.snapshots) == spec.config.max_iters + 1 == 5
    assert _near(report.trace.final().x, ("-2", "1", "3"), "1e-12")


def test_the_grammar_block_is_the_ingest_docstring_grammar():
    grammar = ingest.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
    assert _block("### Expression grammar", "") == textwrap.dedent(grammar) + "\n"


def test_command_lines_that_read_no_file_exit_0(monkeypatch):
    monkeypatch.delenv("SIMULROOT_DIGITS", raising=False)
    lines = [shlex.split(line) for line in _block("## Command line", "sh").splitlines()]
    assert all(argv[0] == "simulroot" for argv in lines)
    runs = [argv[1:] for argv in lines if "--input" not in argv]
    assert [argv[0] for argv in runs] == ["solve", "verify", "verify", "reproduce"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert [cli.main(argv) for argv in runs] == [0] * len(runs)
