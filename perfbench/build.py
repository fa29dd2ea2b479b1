"""Build file of the benchmark: compiles the program's sources and the
benchmark's own with the Scala compiler that ships with Spark, outside sbt.

The output goes to .bench_build/perfbench/<digest>/classes under the
checkout the benchmark runs from; <digest> covers every source, so a
build is reused until a source changes.

    python3 perfbench/build.py [--program-root DIR]   # prints the classpath
"""

import argparse
import glob
import hashlib
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def spark_jars(program_root):
    """$SPARK_HOME/jars, else the directory build.sbt takes its jars from."""
    if os.environ.get("SPARK_HOME"):
        return os.path.join(os.environ["SPARK_HOME"], "jars")
    with open(os.path.join(program_root, "build.sbt")) as fh:
        m = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', fh.read())
    if not m:
        raise SystemExit("perfbench: set SPARK_HOME; build.sbt names no unmanagedBase")
    return m.group(1)


def _coursier_jar(name):
    """The program's one managed compile dependency besides Spark (duckdb_jdbc),
    found in the offline coursier cache that sbt resolves from."""
    cache = os.environ.get("COURSIER_CACHE", os.path.expanduser("~/.cache/coursier/v1"))
    found = sorted(glob.glob(os.path.join(cache, "**", name), recursive=True))
    return found[-1] if found else None


def _files(top, suffixes):
    out = []
    for d, _, names in os.walk(top):
        out += [os.path.join(d, n) for n in names if n.endswith(suffixes)]
    return sorted(out)


def classpath_jars(spark):
    jars = [os.path.join(spark, "*")]
    duck = _coursier_jar("duckdb_jdbc-*.jar")
    if duck:
        jars.append(duck)
    return jars


def build(program_root, out_base):
    """Compiles if needed; returns the runtime classpath as a list."""
    scala_src = os.path.join(program_root, "src", "main", "scala")
    resources = os.path.join(program_root, "src", "main", "resources")
    if not os.path.isdir(scala_src):
        raise SystemExit(f"perfbench: no program sources at {scala_src}")
    sources = _files(scala_src, (".scala", ".java")) + _files(os.path.join(BENCH_DIR, "src"), (".scala",))
    res_files = _files(resources, ("",)) if os.path.isdir(resources) else []
    spark = spark_jars(program_root)
    jars = classpath_jars(spark)

    h = hashlib.sha256()
    for f in sources + res_files:
        h.update(os.path.relpath(f, program_root if f.startswith(program_root) else BENCH_DIR).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    h.update("\n".join(jars).encode())
    digest = h.hexdigest()[:16]
    out = os.path.join(out_base, digest)
    classes = os.path.join(out, "classes")
    runtime = [classes] + jars
    if os.path.exists(os.path.join(out, "ok")):
        return runtime, digest

    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(classes)
    compiler = [glob.glob(os.path.join(spark, f"scala-{p}-2.13*.jar")) for p in ("compiler", "library", "reflect")]
    if not all(compiler):
        raise SystemExit(f"perfbench: no Scala 2.13 compiler in {spark}")
    args_file = os.path.join(out, "scalac.args")
    with open(args_file, "w") as fh:
        fh.write("\n".join(["-nowarn", "-classpath", os.pathsep.join(jars), "-d", classes] + sources))
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", os.pathsep.join(c[0] for c in compiler),
           "scala.tools.nsc.Main", "@" + args_file]
    print(f"perfbench: compiling {len(sources)} sources into {classes}", file=sys.stderr)
    r = subprocess.run(cmd, stdout=sys.stderr)
    if r.returncode != 0:
        raise SystemExit(f"perfbench: compilation failed ({r.returncode})")
    for f in res_files:
        dst = os.path.join(classes, os.path.relpath(f, resources))
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(f, dst)
    open(os.path.join(out, "ok"), "w").close()
    return runtime, digest


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--program-root", default=os.getcwd())
    a = ap.parse_args()
    root = os.path.abspath(a.program_root)
    cp, _ = build(root, os.path.join(os.getcwd(), ".bench_build", "perfbench"))
    print(os.pathsep.join(cp))
