"""Runs one benchmark workload in a fresh JVM and prints its result.

    python3 perfbench/run.py --workload kv-serve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is built from that
checkout's sources (see build.py), or from --program-root. The JVM's heap
and collector are fixed here, so every run and every build measures under
the same settings. Standard output gets one `{"info": ...}` line (what ran,
on what) and, last, the result: `correct`, `attempted`, `failed` and the
metrics, end-to-end with --trace 0 and per layer with --trace 1. A traced
run also leaves its spans in .bench_build/perfbench/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("kv-serve", "log-archive", "spark-pbc")
RUN_LIMIT_S = 175

# (heap, young generation): -Xms = -Xmx, pre-touched, so the heap never
# resizes mid-run; the young generation is large enough that collections
# come at most about twice a second, so few operations pay a pause.
HEAP = {"kv-serve": ("2g", "1536m"), "log-archive": ("2g", "1536m"), "spark-pbc": ("3g", "2g")}

# Spark on JDK 17 needs these packages opened (the same list as build.sbt).
SPARK_OPENS = [
    f"--add-opens={p}=ALL-UNNAMED" for p in (
        "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
        "java.base/java.io", "java.base/java.net", "java.base/java.nio",
        "java.base/java.util", "java.base/java.util.concurrent",
        "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
        "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
        "java.base/sun.util.calendar")
]


def jvm_flags(workload, work):
    heap, young = HEAP[workload]
    return [
        # ParallelGC: single-threaded SETs ran 2-3x faster than under G1,
        # with fewer pauses; two GC and two JIT threads whatever the
        # machine's size, so a bigger machine does not change the figures.
        "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2", "-XX:CICompilerCount=2",
        f"-Xms{heap}", f"-Xmx{heap}", f"-Xmn{young}", "-XX:+AlwaysPreTouch", "-Xss4m",
        # Spark's generated classes otherwise trigger full collections
        # ("Metadata GC Threshold") in the middle of a run.
        "-XX:MetaspaceSize=256m",
        f"-Xlog:gc:file=\"{os.path.join(work, 'gc.log')}\":uptime",
        f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
        "-Dlog4j2.configurationFile=" + os.path.join(os.path.dirname(os.path.abspath(__file__)), "log4j2.properties"),
    ] + SPARK_OPENS


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def expected_metrics(root, traced):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--program-root", help="checkout whose program is measured (default: this one)")
    a = ap.parse_args()

    started = time.monotonic()
    root = os.getcwd()
    program_root = os.path.abspath(a.program_root or root)
    expected = expected_metrics(root, a.trace == 1)
    base = os.path.join(root, ".bench_build", "perfbench")
    cp, digest = build.build(program_root, base)

    work = os.path.join(base, "work", f"{a.workload}-{a.seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"))
    flags = jvm_flags(a.workload, work)
    cmd = ["java"] + flags + ["-cp", os.pathsep.join(cp), "perfbench.Main",
                              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                              "--trace", str(a.trace), "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=root)
    try:
        out, _ = proc.communicate(timeout=max(10.0, RUN_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("perfbench: the run did not finish in time")
    finally:
        if a.trace == 1 and os.path.isdir(work):
            traces = os.path.join(base, "traces")
            os.makedirs(traces, exist_ok=True)
            for f in os.listdir(work):
                if f.startswith("trace-"):
                    shutil.move(os.path.join(work, f), os.path.join(traces, f))
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: the JVM exited with {proc.returncode}")

    lines = [l for l in out.splitlines() if l.startswith("{")]
    if len(lines) < 2:
        raise SystemExit("perfbench: the JVM printed no result")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        raise SystemExit(f"perfbench: metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(expected.items())}")

    info.update({"git_sha": git_sha(program_root), "source_digest": digest,
                 "nproc_os": len(os.sched_getaffinity(0))})
    print(json.dumps({"info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
