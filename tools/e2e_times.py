"""End-to-end wall times of isqwave: Tier-1, `verify --quick` and `verify`.

Run from anywhere, with the standard library only:

    python3 tools/e2e_times.py [TREE]

TREE is the root of an isqwave checkout (default: the one this file sits
in); its src/ is put first on PYTHONPATH. Each target runs REPEATS times
in a row, in a fresh interpreter with TREE as its working directory:

    tier1         python -m pytest -q --continue-on-collection-errors
                  --durations=10
    verify-quick  python -m isqwave.cli verify --quick --reproducible
    verify        python -m isqwave.cli verify --reproducible

The first line printed is the machine; the second is one JSON object with
each target's runs, their median and every run's exit code (and, for
Tier-1, pytest's summary line and its ten slowest tests as
[seconds, phase, test id], per run).
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 3
TARGETS = {
    "tier1": ["-m", "pytest", "-q", "--continue-on-collection-errors",
              "--durations=10"],
    "verify-quick": ["-m", "isqwave.cli", "verify", "--quick", "--reproducible"],
    "verify": ["-m", "isqwave.cli", "verify", "--reproducible"],
}
# one line of pytest's "slowest durations" table: "35.71s call     tests/..."
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown) +(\S.*)$")


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def run(tree: Path, args: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    elapsed = time.perf_counter() - t0
    return elapsed, proc.returncode, proc.stdout.strip().splitlines()


def slowest(lines: list) -> list:
    """The rows of pytest's durations table, as [seconds, phase, test id]."""
    rows = (DURATION.match(line) for line in lines)
    return [[float(m[1]), m[2], m[3]] for m in rows if m]


def main(argv: list) -> int:
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    if not (tree / "src" / "isqwave" / "__init__.py").is_file():
        raise SystemExit(f"e2e_times: no isqwave package under {tree / 'src'}")
    print(f"# machine {json.dumps(machine(), sort_keys=True)}", flush=True)
    out = {"tree": str(tree), "repeats": REPEATS, "targets": {}}
    for name, args in TARGETS.items():
        runs = [run(tree, args) for _ in range(REPEATS)]
        entry = {"runs_s": [round(t, 3) for t, _, _ in runs],
                 "median_s": round(statistics.median(t for t, _, _ in runs), 3),
                 "exit": [code for _, code, _ in runs]}
        if name == "tier1":
            entry["summary"] = [lines[-1] if lines else ""
                                for _, _, lines in runs]
            entry["slowest"] = [slowest(lines) for _, _, lines in runs]
        out["targets"][name] = entry
    print(json.dumps(out))
    return 0 if all(c == 0 for e in out["targets"].values() for c in e["exit"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
