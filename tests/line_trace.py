"""List the lines of ``src/equidistants`` that the test suite never runs.

Run from the repository root::

    PYTHONPATH=src python tests/line_trace.py [pytest args ...]

It installs a ``sys.settrace`` hook that records line events only in
frames whose code lives under ``src/equidistants``, runs pytest in this
process (on ``tests`` unless other arguments are given), and prints
every executable line that never ran, as ``file:line:function: source``.
Executable lines are the line numbers of every code object compiled from
each module.  Consecutive executable lines that never ran form a run, and
a run whose file, function (that of its first line) and source lines are
a key of ``ALLOWED`` is dropped from the report; each key carries the
reason no test reaches it in process.  Keys name no line numbers, so
edits elsewhere do not break them.  The exit status is 1 when a line
outside ``ALLOWED`` never ran, or when pytest fails.

Tests that run the CLI in a subprocess are not followed. Tracing slows
the suite about threefold, so this is a tool to rerun by hand, not a CI
step.
"""

import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "equidistants")

_SUBPROCESS = ("runs only in a CLI subprocess, which tests/test_cli.py "
               "starts and the tracer does not follow")

# (file, function, stripped source lines of a run) -> why no in-process
# test runs it
ALLOWED = {
    ("cli.py", "main", (
        "devnull = os.open(os.devnull, os.O_WRONLY)",
        "os.dup2(devnull, sys.stdout.fileno())",
        "os.close(devnull)",
        'code, detail, status = "OUTPUT", "stdout closed: {}".format('
        "exc.strerror or exc), EXIT_INPUT",
    )): "a stdout closed early; the handler points the process's stdout at "
        "devnull, so it " + _SUBPROCESS,
    ("cli.py", "main", (
        "except ArithmeticError as exc:",
        'code, detail, status = "UNRECOGNIZED", str(exc), EXIT_MATH',
    )): "the net that keeps the no-traceback contract for an arithmetic "
        "failure no engine error names; no input is known to reach it, and "
        "a test patches an engine function to raise one, so it " + _SUBPROCESS,
    ("cli.py", "<module>", ("raise SystemExit(main())",)):
        "the `python -m equidistants.cli` entry point " + _SUBPROCESS,
    ("normal_forms.py", "recognize", (
        "raise UnrecognizedGermError(",
        '"ambiguous signature: " + ", ".join(c.label for c in matches)',
    )): "no two catalogue families share a signature (test_eih_depth_is_"
        "the_least_depth_separating_the_catalogue checks it through mu 14), "
        "so no germ is known to match two; the guard names the collision "
        "should a catalogue change bring one",
}


def executable_lines(path):
    """Map each executable line of ``path`` to (function, source text)."""
    with open(path) as fh:
        source = fh.read()
    text = source.splitlines()
    lines = {}
    todo = [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        for _, _, line in code.co_lines():
            if line is not None and line > 0:
                lines[line] = (code.co_qualname, text[line - 1].strip())
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def never_run(path, ran):
    """The runs of consecutive executable lines of `path` not in `ran`, as
    lists of (line, function, source text)."""
    runs, open_run = [], False
    for line, (function, text) in sorted(executable_lines(path).items()):
        if line in ran:
            open_run = False
        elif open_run:
            runs[-1].append((line, function, text))
        else:
            runs.append([(line, function, text)])
            open_run = True
    return runs


def main(argv):
    import pytest

    hits = defaultdict(set)
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or [os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = allowed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        total += len(executable_lines(path))
        for run in never_run(path, hits.get(path, set())):
            key = (name, run[0][1], tuple(text for _, _, text in run))
            if key in ALLOWED:
                allowed += len(run)
                continue
            missed += len(run)
            for line, function, text in run:
                print(f"{name}:{line}:{function}: {text}")
    print(f"{total} executable lines, {missed + allowed} never ran, "
          f"{allowed} of them allowed, {missed} not")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
