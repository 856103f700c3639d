#!/usr/bin/env python3
"""Builds and runs the Chameleon benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload repair-feret --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root. It configures a Release build of
perfbench/CMakeLists.txt under $CARGO_TARGET_DIR (default .bench_build),
builds the benchmark and the chameleond daemon it drives, then runs one
workload. Every other flag is forwarded to the benchmark binary. The last
line of stdout is the JSON result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REQUIRED = [
    "BENCHMARK.json",
    "src/CMakeLists.txt",
    "tools/obsctl/CMakeLists.txt",
    "tools/chameleond/CMakeLists.txt",
]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir, target):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    built = subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
        stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache.read():
            fail("the build directory is not a Release build: " + build_dir)


def main(argv):
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("sources missing (run from a full checkout): " + ", ".join(missing))
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")

    if argv == ["--selftest"]:
        build(build_dir, "perfbench_selftest")
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest"),
                               os.path.join(ROOT, "BENCHMARK.json")]).returncode

    build(build_dir, "chameleon_perfbench")
    command = [
        os.path.join(build_dir, "chameleon_perfbench"),
        "--manifest", os.path.join(ROOT, "BENCHMARK.json"),
        "--daemon", os.path.join(build_dir, "chameleond", "chameleond"),
        "--source", source_id(),
    ] + argv
    try:
        return subprocess.run(command, cwd=ROOT, timeout=170).returncode
    except subprocess.TimeoutExpired:
        fail("the run exceeded 170 s")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
