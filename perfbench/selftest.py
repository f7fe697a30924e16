#!/usr/bin/env python3
"""Self-test of the benchmark's output checker.

    python3 perfbench/selftest.py

Run from the root of the repository. Each case runs a workload with one
output corrupted before it is checked (one BFS parent, or one component
label) and passes only when the run reports "correct": false and exits
non-zero. Takes about two minutes.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

CASES = [
    ("analytics", "bfs-parent"),
    ("analytics", "cc-label"),
    ("cold-open", "bfs-parent"),
    ("serve", "bfs-parent"),
]


def main():
    failures = 0
    for workload, corrupt in CASES:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0", "--corrupt", corrupt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        correct = json.loads(lines[-1])["correct"] if lines else None
        detected = proc.returncode != 0 and correct is False
        reason = [l for l in proc.stderr.splitlines() if "check failed" in l]
        print(f"{workload:10} {corrupt:11} exit={proc.returncode} "
              f"correct={correct} -> {'detected' if detected else 'MISSED'}")
        for line in reason[:2]:
            print(f"    {line}")
        failures += 0 if detected else 1
    print("checker self-test:", "PASS" if failures == 0 else "FAIL")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
