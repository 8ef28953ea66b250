"""Run the mutants of ``tools/mutants.txt`` and report whether the tests catch each.

A mutant is a small deliberate edit to ``src/`` that some test should
catch ("kill"). Each entry of the list names a file, the exact old text,
the new text and the tests expected to fail; an entry that carries
``equivalent = <reason>`` is one that no test can catch, because the
output cannot change. For each entry the runner copies ``src/``,
``tests/`` and ``pyproject.toml`` of the checkout that holds this file
into a temporary directory, applies the edit there, and runs the listed
tests with pytest, one run at a time. It prints one line per entry:

- ``killed``: a listed test failed, or its file failed to import; the
  failing tests follow;
- ``survived``: every listed test passed;
- ``equivalent``: every listed test passed, as the entry says it must;
- ``stale``: the entry no longer matches the tree: its old text is not
  found exactly once in the file, or pytest finds no listed test.

The exit status is 0 when every entry came out as recorded, killed or
equivalent, and 1 otherwise. Run it as ``python3 tools/mutants.py``.
"""

from __future__ import annotations

import configparser
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
LIST = ROOT / "tools" / "mutants.txt"
# pytest exits with 4 when a listed test id is not found, 5 when none is collected;
# a file that fails to import also exits with 4, but reports an ERROR line.
NOT_FOUND = (4, 5)


def read_list(path: Path) -> list[dict]:
    """The entries of a mutant list, in file order: each section is one
    mutant, named by its header, with keys ``file``, ``old``, ``new``,
    ``tests`` (whitespace-separated pytest ids) and optionally ``equivalent``."""
    parser = configparser.ConfigParser(interpolation=None, default_section="no default")
    parser.read(path, encoding="utf-8")
    entries = []
    for name in parser.sections():
        section = parser[name]
        missing = {"file", "old", "new", "tests"} - set(section)
        if missing:
            raise SystemExit(f"{path}: [{name}] lacks {', '.join(sorted(missing))}")
        entries.append({"name": name, "file": section["file"], "old": section["old"],
                        "new": section["new"], "tests": section["tests"].split(),
                        "equivalent": section.get("equivalent")})
    return entries


def run_entry(entry: dict) -> tuple[str, list[str]]:
    """The outcome of one mutant and the lines that explain it."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
            else:
                shutil.copy2(source, work / name)
        target = work / entry["file"]
        text = target.read_text(encoding="utf-8") if target.is_file() else ""
        found = text.count(entry["old"])
        if found != 1:
            return "stale", [f"old text found {found} times in {entry['file']}"]
        target.write_text(text.replace(entry["old"], entry["new"]), encoding="utf-8")
        command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                   "-o", "addopts=", *entry["tests"]]
        run = subprocess.run(command, cwd=work, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    failing = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    if run.returncode == 0:
        return ("equivalent" if entry["equivalent"] else "survived"), []
    if run.returncode in NOT_FOUND and not failing:
        return "stale", lines[-5:] + run.stderr.splitlines()[-5:]
    return "killed", failing


def main() -> int:
    entries = read_list(LIST)
    as_recorded = True
    for entry in entries:
        outcome, details = run_entry(entry)
        expected = "equivalent" if entry["equivalent"] else "killed"
        as_recorded &= outcome == expected
        print(f"{outcome}: {entry['name']}", flush=True)
        for line in details:
            print(f"    {line}", flush=True)
    print(f"{len(entries)} mutants, {'all' if as_recorded else 'not all'} as recorded")
    return 0 if as_recorded else 1


if __name__ == "__main__":
    sys.exit(main())
