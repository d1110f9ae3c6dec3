#!/usr/bin/env python3
"""Builds the benchmark from source (once per checkout) and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The build goes to .bench_build/ (or
$CARGO_TARGET_DIR when set); the build log is .bench_build/perfbench-build.log.
A traced run (--trace 1) also writes its spans as Chrome/Perfetto JSON to
.bench_build/trace-<workload>.json unless --trace-out is given.  Every other
argument is passed through to the benchmark binary, whose last stdout line is
the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
                return None
    return os.path.join(build_dir, "perfbench")


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1
    args = list(argv)

    def value(flag):
        i = args.index(flag) if flag in args else -1
        return args[i + 1] if 0 <= i < len(args) - 1 else None

    if value("--workload-dir") is None:
        args += ["--workload-dir", os.path.join(HERE, "workloads")]
    if value("--trace-out") is None and value("--trace") == "1":
        name = os.path.basename(value("--workload") or "unknown")
        args += ["--trace-out", os.path.join(build_dir, "trace-%s.json" % name)]
    return subprocess.call([binary] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
