#!/usr/bin/env python3
"""Builds and runs the end-to-end SQL benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload olap_tpch --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 20 --trace 0
                                           # each workload in its own process
    python3 e2ebench/run.py --quick        # every workload once, small, all checks

The engine and the benchmark are built from source with CMake (Release)
into $CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench. Build
output goes to standard error; the benchmark's last line of standard
output is its result object. A failed build, statement or check exits
non-zero without a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "e2e_bench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2e_bench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


WORKLOADS = ("olap_tpch", "htap_sql", "federated")


def run(binary, args, work_dir, capture=False):
    """Runs e2e_bench once; returns its exit code and, with `capture`,
    its standard output."""
    env = dict(os.environ, TMPDIR=work_dir)
    cmd = [binary] + args + ["--work-dir", work_dir, "--git-sha", git_sha()]
    proc = subprocess.Popen(cmd, env=env, text=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("e2e_bench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return proc.returncode, out or ""


def run_all(binary, argv, work_dir):
    """Runs each workload in its own process, so that each reports its
    own peak resident set, and prints one result over the three with the
    metric names prefixed by the workload."""
    i = argv.index("--workload")
    attempted, metrics = 0, {}
    for name in WORKLOADS:
        code, out = run(binary, argv[:i + 1] + [name] + argv[i + 2:], work_dir,
                        capture=True)
        lines = out.splitlines()
        if code != 0 or not lines:
            sys.stdout.write(out)
            return code or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        for metric, value in result["metrics"].items():
            metrics[name + "." + metric] = value
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "e2ebench"))
    work_dir = os.path.join(build_dir, "work")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("e2e_bench: build failed: %s" % err, file=sys.stderr)
        return 1
    os.makedirs(work_dir, exist_ok=True)
    if argv == ["--quick"]:
        for trace in ("0", "1"):
            for name in WORKLOADS:
                code, _ = run(binary, ["--workload", name, "--quick",
                                       "--trace", trace], work_dir)
                if code != 0:
                    return code
        return 0
    if "--workload" in argv[:-1] and argv[argv.index("--workload") + 1] == "all":
        return run_all(binary, argv, work_dir)
    return run(binary, argv, work_dir)[0]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
