#!/usr/bin/env python3
"""Record benchmark runs in a ``BENCH_<n>.json`` file.

    python3 scripts/bench_record.py --out BENCH_8.json --seeds 8501-8503

Runs the command of ``BENCHMARK.json`` (``perfbench/run.py``) as a
subprocess with ``--workload W --seed S --seconds T`` for every workload it
lists and every seed given, one after the other, ``T`` being its
``run_seconds``.  Writes the command, the box (CPU count and model, Python
version), and per run its five end-to-end metrics, its check outcome and its
round-0 digests.  The benchmark itself is not imported, so this script
records it as it stands.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"^digest .* csv=(\S+) runs=(\S+)$", re.MULTILINE)


def seed_list(text: str) -> list[int]:
    """``"8501-8503,8601"`` -> ``[8501, 8502, 8503, 8601]``; a range that
    ends below its start is an argparse type error, as it holds no seed."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        span = range(int(first), int(last or first) + 1)
        if not span:
            raise argparse.ArgumentTypeError(f"range {part} ends below its start")
        seeds += span
    return seeds


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def python_version(interpreter: str) -> str:
    """Implementation and version of the interpreter that runs the benchmark."""
    code = "import platform; print(platform.python_implementation(), platform.python_version())"
    return subprocess.run([interpreter, "-c", code], capture_output=True, text=True,
                          check=True).stdout.strip()


def record_run(command: list[str], workload: str, seed: int) -> dict:
    """One benchmark run; raises if it exits non-zero or prints no result."""
    argv = [*command, "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    csv_digest, runs_digest = DIGEST.search(proc.stdout).groups()
    return {
        "workload": workload,
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest_round0": {"csv": csv_digest, "runs": runs_digest},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="file to write")
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="workload seeds, e.g. 8501-8503,8601")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [*bench["command"], "--seconds", str(bench["run_seconds"])]
    runs = []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in args.seeds:
            run = record_run(command, workload, seed)
            print(f"{workload} seed={seed} correct={run['correct']} "
                  f"wall_s={run['metrics']['wall_s']:.4g}", flush=True)
            runs.append(run)
    record = {
        "command": " ".join(command + ["--workload", "W", "--seed", "S"]),
        "box": {
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": python_version(command[0]),
            "platform": platform.platform(),
        },
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
