"""Repository benchmark entry point.

Usage, from the root of a checkout::

    python3 svrbench/run.py --workload query_heavy --seed 1 --seconds 10 --trace 0

Runs ``svrbench/bench.py`` in a child interpreter whose environment is
pinned: every ``REPRO_*`` variable is removed (so ``REPRO_THREADS``,
``REPRO_TRACE`` or ``REPRO_LIST_CACHE_PAGES`` in the caller's shell cannot
change the program being measured), ``PYTHONHASHSEED`` is fixed and
``PYTHONPATH`` points at the checkout's ``src``.  The child's output is
passed through; its last stdout line is the JSON result.  Exits non-zero,
without a result, when the engine sources are missing or the child fails.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 170


def pinned_environment() -> dict:
    """The caller's environment minus ``REPRO_*``, with hash seed and path fixed."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: "list[str]", script: str = "bench.py",
              timeout: float = CHILD_TIMEOUT_S) -> "tuple[int, str]":
    """Run ``script`` (in this directory) with ``args``; return code and stdout."""
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), *args],
        cwd=ROOT, env=pinned_environment(), stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"svrbench: child exceeded {timeout} s and was killed", file=sys.stderr)
        return 1, ""
    return child.returncode, stdout


def main() -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"svrbench: no engine sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    code, stdout = run_child(sys.argv[1:])
    if code != 0:
        print(f"svrbench: workload failed with exit code {code}", file=sys.stderr)
        # Pass the diagnostics on, but never a result line.
        sys.stderr.write(stdout)
        return code or 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
