#!/usr/bin/env python3
"""Build the hclbench program from source and run one workload.

    python3 perfbench/run.py --workload kv-uniform --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. hclbench is built (Release) into
.bench_build/ on first use and rebuilt incrementally afterwards; build
output goes to stderr. Its stdout is passed through: a
"# record" line describing the run, then the result object as the last
line. The exit code is hclbench's: non-zero when an oracle or a
self-check fails. See perfbench/README.md.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "hclbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    if not (ROOT / "src" / "core" / "hcl.h").is_file():
        sys.exit("run.py: library sources (src/) not found next to perfbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "2"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def source_digest():
    """Content hash of the library and the benchmark: names the code a
    record measured, also in checkouts that are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git repository of its own."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "none"
    return lines[1]


def main(argv):
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        sys.exit(f"run.py: build failed: {err}")
    env = {k: v for k, v in os.environ.items() if not k.startswith("HCL_")}
    env["HCL_SIM_THREADS"] = "1"
    env["HCLBENCH_SOURCE"] = source_digest()
    env["HCLBENCH_COMMIT"] = git_commit()
    try:
        proc = subprocess.run([str(BINARY), *argv], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: hclbench exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
