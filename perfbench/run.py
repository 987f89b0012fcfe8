#!/usr/bin/env python3
"""Cocoon benchmark: one run of one workload, in a fresh JVM.

    python3 perfbench/run.py --workload hospital --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the program and the benchmark from source (build.py), runs
perfbench.Main on a pinned local Spark session, relays its log lines to
stderr and prints the run's JSON result as the last line of stdout. Exits
non-zero, without a result line, when the build or the run fails; exits 1
after the result line when a correctness check failed. See README.md.
"""
import argparse
import os
import subprocess
import sys
import time

import build

WORKLOADS = ["hospital", "baseline-grid"]
DEADLINE_S = 170
HEAP = "3g"
JVM_FLAGS = [
    "-Xms" + HEAP, "-Xmx" + HEAP, "-Xss8m",
    "-XX:+IgnoreUnrecognizedVMOptions", "-XX:-UsePerfData",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio", "java.util",
    "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs",
    "sun.security.action", "sun.util.calendar",
]]


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true", help="run the benchmark's own tests instead")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    start = time.monotonic()
    try:
        classpath = build.build()
    except build.BuildError as e:
        sys.exit(f"perfbench: {e}")

    work = os.path.join(build.OUT, "work")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    cores = len(os.sched_getaffinity(0))
    if a.self_test:
        main_class, args, tag = "perfbench.SelfTest", ["--cores", str(cores), "--work-dir", work], "self-test"
    else:
        main_class = "perfbench.Main"
        args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace), "--cores", str(cores), "--work-dir", work]
        tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    cmd = [build.java()] + JVM_FLAGS + ["-Djava.io.tmpdir=" + os.path.join(work, "tmp"), "-cp", classpath,
                                        main_class] + args
    log_path = os.path.join(build.OUT, "logs", tag + ".log")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    with open(log_path, "w") as log:
        # Spark would put its scratch space in SPARK_LOCAL_DIRS over spark.local.dir.
        env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True, cwd=build.ROOT, env=env)
        try:
            out, _ = proc.communicate(timeout=max(10, DEADLINE_S - (time.monotonic() - start)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"perfbench: run exceeded {DEADLINE_S} s and was stopped; log in {log_path}")
    with open(log_path) as log:
        lines = log.read().splitlines()
    ours = [l for l in lines if l.startswith("[perfbench]")]
    sys.stderr.write("\n".join(ours or lines[-40:]) + "\n")
    if a.self_test:
        print(out, end="")
        sys.exit(proc.returncode)
    results = [l for l in out.splitlines() if l.startswith("{")]
    if proc.returncode not in (0, 1) or not results:
        sys.exit(f"perfbench: JVM exited with {proc.returncode} and no result; log in {log_path}")
    print(results[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
