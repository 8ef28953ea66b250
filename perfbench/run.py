"""Benchmark for dismantle: one workload per process, checked outputs, named metrics.

    python3 perfbench/run.py --seed 1                      # every workload
    python3 perfbench/run.py --workload gen --seed 1 --seconds 12 --trace 0

Each workload runs in its own worker process (``worker.py``) that
imports the package from ``src/`` of this checkout. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs every operation untraced and
then traced and prints the per-layer metrics. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. See ``README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # set-up is timed this many times per run; the median is reported
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Worker:
    """A worker process, killed if it outlives the run's deadline."""

    def __init__(self, workload: str, args, work_dir: Path, deadline: float, *extra: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--work-dir", str(work_dir), *extra]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def wait_ready(self) -> tuple[float, float]:
        """Corrected and raw seconds from process start until the inputs were ready.

        The worker reports its host-speed factor and the seconds its
        speed probes took (see ``speed.py``).
        """
        words = self.proc.stdout.readline().split()
        elapsed = time.perf_counter() - self.started
        if len(words) != 3 or words[0] != "ready":
            self.finish()
            raise BenchError("worker failed during set-up")
        raw = elapsed - float(words[2])
        return raw * float(words[1]), raw

    def finish(self) -> list[str]:
        try:
            out = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.timer.cancel()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return out.splitlines()


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, args, spec: dict) -> dict:
    """Run one workload and return its result object plus provenance."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work_dir = OUT / "work" / f"{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "density-scan":
            Worker(workload, args, work_dir, deadline, "--prepare").finish()
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            probe = Worker(workload, args, work_dir, deadline, "--setup-only")
            setups.append(probe.wait_ready())
            probe.finish()
        main = Worker(workload, args, work_dir, deadline)
        setups.append(main.wait_ready())
        lines = main.finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not lines:
        raise BenchError("worker printed no result")
    w = json.loads(lines[-1])

    setup_raw = [raw for _, raw in setups]
    setups = [corrected for corrected, _ in setups]
    walls = w["wall"]
    if not walls:
        raise BenchError("no operation completed")
    attempted, failed = w["attempted"], w["failed"]
    if args.trace:
        values = w["layers"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        samples = {name: len(walls) for name in units}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(walls) / len(walls),
            "peak_rss_mb": w["peak_rss_mb"],
            "kept_frac": w["kept_frac"],
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        samples = {"setup_s": len(setups), "wall_s": len(walls), "peak_rss_mb": 1,
                   "kept_frac": w["kept_rows"], "ok_frac": attempted}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    info = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": w["params"],
        "digest": w["digest"],
        "failed_frac": failed / attempted,
        "samples": samples,
        "op_seconds": walls,
        "op_raw_seconds": w["raw_wall"],
        "setup_seconds": setups,
        "setup_raw_seconds": setup_raw,
        "provenance": {
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "python": w["python"],
            "numpy": w["numpy"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "kernel": platform.release(),
        },
    }
    if args.trace:
        info["traced_op_seconds"] = w["traced_wall"]
    return {"result": result, "info": info}


def report(out: dict) -> None:
    """Print one workload's metrics, one per line, then its provenance line."""
    info, result = out["info"], out["result"]
    print(f"[{info['workload']}] seed={info['seed']} trace={info['trace']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} (n={info['samples'][name]})")
    print(f"  failed_frac = {info['failed_frac']:.6g} frac (n={result['attempted']})")
    print(f"  digest = {info['digest']}")
    print("info " + json.dumps(info, sort_keys=True))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{info['workload']}-seed{info['seed']}-trace{info['trace']}.json"
    (results / name).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dismantle" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'dismantle'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outs = {name: run_workload(name, args, spec) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for out in outs.values():
        report(out)
    if args.workload != "all":
        print(json.dumps(outs[args.workload]["result"]))
        return 0
    results = [out["result"] for out in outs.values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{name}/{m}": v for name, out in outs.items()
                    for m, v in out["result"]["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
