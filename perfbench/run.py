"""Run one benchmark workload and audit it: ``python3 perfbench/run.py``.

Usage, from the repository root::

    python3 perfbench/run.py --workload warm-fused --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads:
``warm-fused``, ``tcp-serving``, ``cold-churn`` (see ``perfbench/spec.py``).

The measurement itself runs in a child process (``python -m
perfbench.runner``) so this wrapper can audit it from outside: it fails the
run on a traceback on stderr, or on any process of the run (shard servers
included) still alive after it ended.  It exits 0 only when the run is
correct and clean; without the program's sources (``src/repro``) it exits 2
before running anything.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The child's budget; the whole command must end within 180 seconds.
RUN_TIMEOUT_SECONDS = 165.0

#: How long processes of the run may take to exit after the child did.
SURVIVOR_GRACE_SECONDS = 5.0

TAG_VARIABLE = "PERFBENCH_RUN_TAG"


def tagged_processes(tag: str) -> list[int]:
    """Pids of live processes whose environment carries ``tag``."""
    needle = f"{TAG_VARIABLE}={tag}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                environ = handle.read().split(b"\0")
            with open(f"/proc/{entry}/stat", "rb") as handle:
                state = handle.read().rsplit(b")", 1)[1].split()[0]
        except OSError:
            continue
        if needle in environ and state != b"Z":
            found.append(int(entry))
    return found


def survivors(tag: str) -> list[int]:
    """Processes of the run still alive after the grace period (then killed)."""
    deadline = time.monotonic() + SURVIVOR_GRACE_SECONDS
    alive = tagged_processes(tag)
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = tagged_processes(tag)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return alive


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program's sources are missing ({ROOT / 'src' / 'repro'})",
            file=sys.stderr,
        )
        return 2
    tag = f"{os.getpid()}-{time.time_ns()}"
    env = dict(os.environ)
    env.update(
        {
            TAG_VARIABLE: tag,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            "PYTHONHASHSEED": "0",
        }
    )
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.runner", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        survivors(tag)
        print(f"perfbench: run exceeded {RUN_TIMEOUT_SECONDS:g} s", file=sys.stderr)
        return 3
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    problems = []
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    left = survivors(tag)
    if left:
        problems.append(f"processes survived the run: {left}")
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        if lines:
            print(lines[-1])
        print(f"perfbench: no result (exit code {child.returncode}); {problems}", file=sys.stderr)
        return 1
    if problems:
        print("audit failed: " + "; ".join(problems))
        result["correct"] = False
    print(json.dumps(result))
    return 0 if child.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
