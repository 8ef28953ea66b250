"""sha256 digests of what the ``dismantle`` commands print and write.

Runs a fixed list of CLI commands, one process each, in a temporary
directory, and writes one JSON line per command: its arguments, exit
code, and the sha256 of its stdout, of its stderr and of every file it
wrote. Two trees behave alike on these commands exactly when their files
are identical, so a rewrite is checked with

    python3 tools/cli_outputs.py --out new.jsonl
    diff old.jsonl new.jsonl

The package is imported from the ``src/`` of the checkout that holds
this file. The commands run in order, and later ones read the graphs the
``gen`` commands wrote, so file names are relative to the directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = [
    ["gen", "--model", "gnp", "--n", "20000", "--c", "2", "--seed", "1", "--out", "gnp.txt"],
    ["gen", "--model", "regular", "--n", "20000", "--d", "3", "--seed", "1",
     "--out", "regular.txt"],
    ["gen", "--model", "tree", "--n", "20000", "--seed", "1", "--out", "tree.txt"],
    ["gen", "--model", "gnp", "--n", "16", "--c", "2", "--seed", "1", "--out", "small.txt"],
    ["fragment", "--in", "gnp.txt", "--method", "greedy", "--cap", "8"],
    ["fragment", "--in", "gnp.txt", "--method", "pipeline", "--eps", "0.5"],
    ["fragment", "--in", "regular.txt", "--method", "pipeline", "--eps", "0.5"],
    ["fragment", "--in", "tree.txt", "--method", "forest", "--cap", "8"],
    ["fragment", "--in", "gnp.txt", "--method", "forest", "--cap", "8"],  # not a forest: exits 2
    ["exact", "--in", "small.txt", "--k", "3"],
    ["exact", "--in", "small.txt", "--forest"],
    ["curve", "--model", "gnp", "--c", "2", "--n", "2000", "--grid", "1,2,4,8,16,64",
     "--reps", "2", "--seed", "1", "--out", "curve-greedy-k.csv"],
    ["curve", "--model", "regular", "--d", "3", "--n", "2000", "--grid", "0.01,0.05,0.2",
     "--reps", "2", "--seed", "1", "--out", "curve-greedy-x.csv"],
    ["curve", "--model", "gnp", "--c", "2", "--n", "2000", "--grid", "4,8,16,2000",
     "--reps", "2", "--seed", "1", "--method", "forest-pipeline", "--out", "curve-forest.csv"],
    ["verify-claim", "--in", "gnp.txt", "--eps", "0.5", "--tmax", "6"],
    ["delta", "--c", "2", "--eps", "0.5"],
    ["demo", "--c", "2", "--eps", "0.5", "--n", "2000", "--reps", "3", "--seed", "7"],
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stamps(directory: Path) -> dict[str, int]:
    """The modification time of every file in ``directory``, by name."""
    return {p.name: p.stat().st_mtime_ns for p in sorted(directory.iterdir()) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON-lines file to write")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    lines = []
    with tempfile.TemporaryDirectory(prefix="cli-outputs-") as tmp:
        work = Path(tmp)
        for command in COMMANDS:
            before = stamps(work)
            run = subprocess.run([sys.executable, "-m", "dismantle.cli", *command],
                                 cwd=work, env=env, capture_output=True)
            written = {name: sha((work / name).read_bytes())
                       for name, stamp in stamps(work).items() if before.get(name) != stamp}
            lines.append({"argv": command, "exit": run.returncode, "stdout": sha(run.stdout),
                          "stderr": sha(run.stderr), "files": written})
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
