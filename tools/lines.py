"""Print the lines of ``src/dismantle`` that no tier-1 test runs.

The runner calls pytest on ``tests/`` in this process, with a plugin that
installs a ``sys.settrace`` tracer (and ``threading.settrace``, for the
threads the tests start) before the package is imported. The tracer
records each line run in a frame whose code lives in a file of
``src/dismantle``, and each such frame's first line as it is called, so
that a ``def`` or ``class`` line counts as soon as its body runs; frames
elsewhere are not traced line by line. A line can run when the compiled
file lists it for some instruction (``co_lines`` of every code object in
it). Processes the tests start, such as the command-line subprocesses and
process pools, are not traced, so a line that runs only there is listed.
The files are compiled again after the run, so edit none while it runs.

Prints ``path:line: text`` for each line that can run and never did, then
a count. The exit status is pytest's when some test fails, else 0. Run it
as ``python3 tools/lines.py``; it needs only the standard library and
pytest. Tracing makes the suite about three times slower: 2 min 39 s
against about 1 min untraced, on a 2-core x86_64 host.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dismantle"


def runnable(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its compiled code belongs to."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


class LineTracer:
    """A pytest plugin that records the package lines run, by file."""

    def __init__(self) -> None:
        self.hits: dict[Path, set[int]] = {path: set() for path in PACKAGE.glob("*.py")}
        self.files: dict[str, tuple] = {}  # co_filename -> (its hits, its line tracer), or Nones

    def watch(self, filename: str) -> tuple:
        """The hits and the local trace function of a package file; ``(None, None)`` elsewhere."""
        hits = self.hits.get(Path(filename).resolve())
        if hits is None:
            return None, None

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line

        return hits, line

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            hits, line = self.files[filename]
        except KeyError:
            hits, line = self.files[filename] = self.watch(filename)
        if hits is not None:
            hits.add(frame.f_lineno)
        return line

    def pytest_configure(self, config) -> None:
        threading.settrace(self.trace)
        sys.settrace(self.trace)

    def pytest_unconfigure(self, config) -> None:
        sys.settrace(None)
        threading.settrace(None)


def main() -> int:
    tracer = LineTracer()
    status = pytest.main(["-q", "-p", "no:cacheprovider", "-o", "addopts=", str(ROOT / "tests")],
                         plugins=[tracer])
    missed = 0
    for path, hits in sorted(tracer.hits.items()):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(runnable(path) - hits):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} lines of src/dismantle never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
