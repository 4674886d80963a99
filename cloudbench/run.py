#!/usr/bin/env python3
"""Builds and runs the CloudShield end-to-end benchmark.

    python3 cloudbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It configures and builds cloudbench/ (a
CMake project that compiles the repository's ../src) into
.bench_build/cloudbench, then runs one workload with the given arguments.
Build output goes to stderr, so the last line of stdout is the result
object. The exit code is the benchmark's: 0 when every output checked out,
1 on a correctness or durability failure, 2 on a bad command line or a
failed build.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("cloudbench: no CloudShield sources under src/ next to the "
              "benchmark", file=sys.stderr)
        return None
    build_dir = os.path.join(ROOT, ".bench_build", "cloudbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 2)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                       "--target", "cloudbench"],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "cloudbench")


def main():
    binary = build()
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
