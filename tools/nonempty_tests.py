#!/usr/bin/env python3
"""Run a `cargo test` command line and fail when it runs no test.

`cargo test NAME` passes with "running 0 tests" once the test NAME
selected is renamed or deleted, so a CI step that selects tests by name
goes vacuous without failing. This wrapper runs the command, passes its
output through, and exits non-zero when the command fails or when its
`test result:` lines add up to 0 passed.

Usage:
    python3 tools/nonempty_tests.py cargo test --release -q --test determinism byte_identical
"""

import re
import subprocess
import sys


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    proc = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    passed = sum(int(n) for n in re.findall(r"test result: \w+\. (\d+) passed", proc.stdout))
    if passed == 0:
        sys.exit(f"error: `{' '.join(sys.argv[1:])}` ran no test")
    print(f"{passed} passed")


if __name__ == "__main__":
    main()
