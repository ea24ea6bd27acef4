#!/usr/bin/env python3
"""Rust line counts, one measure for every line-count claim.

For ``src/`` and each ``crates/*/src`` it prints the Rust lines of
program code — in each file, the lines before its first
``#[cfg(test)]`` — and all Rust lines, then the sums of both columns,
then the Rust lines of the test and example code (``tests/``,
``crates/*/tests`` and ``examples/``), the total Rust lines anywhere
outside ``vendor/``, the Rust lines under ``vendor/`` and the number of
workspace members. Directories named
``target`` and hidden directories are skipped. Informational: it gates
nothing.

Usage:
    python3 tools/loc.py [repo-root]      (default: the current directory)
"""

import os
import sys
import tomllib

TEST_MARK = "#[cfg(test)]"


def rust_files(top, skip_vendor=False):
    for root, dirs, files in os.walk(top):
        dirs[:] = sorted(
            d
            for d in dirs
            if d != "target"
            and not d.startswith(".")
            and not (skip_vendor and root == top and d == "vendor")
        )
        for name in sorted(files):
            if name.endswith(".rs"):
                yield os.path.join(root, name)


def count(path):
    """(non-test lines, all lines) of one file."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    non_test = next(
        (i for i, line in enumerate(lines) if line.strip() == TEST_MARK), len(lines)
    )
    return non_test, len(lines)


def main():
    top = sys.argv[1] if len(sys.argv) > 1 else "."
    dirs = ["src"]
    crates = os.path.join(top, "crates")
    if os.path.isdir(crates):
        dirs += [
            os.path.join("crates", c, "src")
            for c in sorted(os.listdir(crates))
            if os.path.isdir(os.path.join(crates, c, "src"))
        ]
    print(f"{'directory':<24} {'non-test':>9} {'all':>7}")
    sum_non_test = sum_all = 0
    for d in dirs:
        counts = [count(p) for p in rust_files(os.path.join(top, d))]
        non_test = sum(c[0] for c in counts)
        total = sum(c[1] for c in counts)
        sum_non_test += non_test
        sum_all += total
        print(f"{d:<24} {non_test:>9} {total:>7}")
    print(f"{'src + crates/*/src':<24} {sum_non_test:>9} {sum_all:>7}")
    tests = ["tests", "examples"]
    if os.path.isdir(crates):
        tests[1:1] = [os.path.join("crates", c, "tests") for c in sorted(os.listdir(crates))]
    test_lines = sum(count(p)[1] for d in tests for p in rust_files(os.path.join(top, d)))
    print(f"tests/ + crates/*/tests + examples/: {test_lines}")
    outside = sum(count(p)[1] for p in rust_files(top, skip_vendor=True))
    print(f"Rust outside vendor/: {outside}")
    vendored = sum(count(p)[1] for p in rust_files(os.path.join(top, "vendor")))
    print(f"Rust under vendor/: {vendored}")
    with open(os.path.join(top, "Cargo.toml"), "rb") as f:
        members = tomllib.load(f)["workspace"]["members"]
    print(f"workspace members: {len(members)}")


if __name__ == "__main__":
    main()
