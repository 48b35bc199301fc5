"""Line map of ``src/spectralcurves``: the function-body lines a test run
never executes.  Standard library only (``sys.settrace``); run by hand,
not collected by pytest:

    PYTHONPATH=src python tests/linemap.py [pytest arguments]

With no arguments it runs the whole suite quietly.  Tracing starts before
``spectralcurves`` is imported, so import-time code is seen too, but only
lines inside a function body count: module and class bodies always run.
The candidate lines of a file are those its function code objects carry
in their line tables (``co_lines``), the ``def`` line left out.  Child
processes are not traced: ``spectral scan --workers`` above 1 runs its
rows in a process pool, whose lines count only as far as the parent runs
them too.  The script prints the count of never-run lines per file, their
total and, one per line, each ``file:line`` with its source.
"""

import os
import sys
import threading
import types

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "spectralcurves")

executed = set()
_paths = {}          # code file name -> absolute path in the package, or None


def _local(frame, event, arg):
    if event == "line":
        executed.add((_paths[frame.f_code.co_filename], frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _paths:
        path = os.path.abspath(name)
        _paths[name] = path if path.startswith(PACKAGE + os.sep) else None
    return _local if _paths[name] else None


def body_lines(path):
    """Line numbers of function bodies in the file at ``path``."""
    with open(path) as fh:
        module = compile(fh.read(), path, "exec")
    lines, todo = set(), [module]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code is not module and code.co_flags & 0x2:         # CO_NEWLOCALS: a function
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
    return lines


def main(args):
    threading.settrace(_global)
    sys.settrace(_global)
    import pytest

    tests = os.path.dirname(os.path.abspath(__file__))
    status = pytest.main(args or ["-q", "-p", "no:cacheprovider", tests])
    sys.settrace(None)
    threading.settrace(None)
    total = 0
    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        never = sorted(n for n in body_lines(path) if (path, n) not in executed)
        total += len(never)
        print("%-16s %4d never run" % (name, len(never)))
        with open(path) as fh:
            source = fh.read().splitlines()
        missed += ["%s:%d  %s" % (name, n, source[n - 1].strip()) for n in never]
    print("total %d never-run function-body lines (pytest exit %d)" % (total, status))
    print("\n".join(missed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
