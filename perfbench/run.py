#!/usr/bin/env python3
"""Run one workload of the TopL-ICDE benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload uni-sweep --seed 1 --seconds 15 --trace 0

The program is compiled from source on first use: the repository's
``src/main/scala`` plus ``perfbench/src/main/scala`` go through the Scala
compiler that ships in Spark's ``jars`` directory (``$SPARK_HOME/jars``, or
the distribution that holds ``spark-submit`` on the PATH), into
``.bench_build/perfbench``. Later runs reuse the classes while the sources
are unchanged. Everything the run writes (classes, Spark work space,
result and trace files) stays under ``.bench_build/perfbench``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Any failure exits
non-zero without printing that line.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("uni-sweep", "amazon-dtopl")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# A run must end within this many seconds; a run that also compiles gets
# COMPILE_BUDGET_S more.
RUN_BUDGET_S = 175
COMPILE_BUDGET_S = 600

DRIVER_HEAP = "3g"

# What spark-submit adds on JDK 17 so Spark can reach JDK internals.
JVM_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandleAccessor=false",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found: set SPARK_HOME")
    return os.path.join(home, "jars")


def scala_sources(root, rel):
    base = os.path.join(root, rel)
    out = []
    for d, _, files in os.walk(base):
        out += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def source_digest(root, files, jars):
    h = hashlib.sha256()
    h.update(",".join(sorted(f for f in os.listdir(jars) if f.startswith("scala-"))).encode())
    for f in files:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, budget_s, **kw):
    """Run `cmd` in its own process group; kill the group after budget_s,
    or when this script is terminated."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=max(budget_s, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"no result within {budget_s:.0f} s")
    finally:
        for s, h in old.items():
            signal.signal(s, h)
    return proc.returncode, out


def compile_classes(root, out_dir, jars):
    """Compile program + benchmark sources once per source digest."""
    files = scala_sources(root, "src/main/scala") + scala_sources(root, "perfbench/src/main/scala")
    digest = source_digest(root, files, jars)
    classes = os.path.join(out_dir, "classes-" + digest[:16])
    if os.path.isfile(os.path.join(classes, "COMPLETE")):
        return classes, digest, False
    for old in os.listdir(out_dir):
        if old.startswith("classes-"):
            shutil.rmtree(os.path.join(out_dir, old), ignore_errors=True)
    tmp = classes + ".tmp"
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", tmp] + files
    code, _ = run_bounded(cmd, COMPILE_BUDGET_S)
    if code != 0:
        fail("compilation failed")
    os.replace(tmp, classes)
    open(os.path.join(classes, "COMPLETE"), "w").close()
    return classes, digest, True


def git_commit(root):
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    start = time.monotonic()
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "main", "scala")):
        fail("run from the repository root: src/main/scala is missing")
    jars = spark_jars()
    out_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    classes, digest, compiled = compile_classes(root, out_dir, jars)

    work = os.path.join(out_dir, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    cmd = ["java", f"-Xms{DRIVER_HEAP}", f"-Xmx{DRIVER_HEAP}", *JVM_OPENS,
           "-Djava.io.tmpdir=" + os.path.join(work, "tmp"),
           "-Dlog4j2.configurationFile=" + os.path.join(root, "perfbench", "log4j2.properties"),
           "-cp", classes + os.pathsep + os.path.join(jars, "*"),
           "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--results", os.path.join(out_dir, "results"),
           "--commit", git_commit(root), "--source-digest", digest]
    budget = RUN_BUDGET_S + (COMPILE_BUDGET_S if compiled else 0) - (time.monotonic() - start)
    code, out = run_bounded(cmd, budget, stdout=subprocess.PIPE, text=True)
    shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        fail("benchmark printed no result line")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
