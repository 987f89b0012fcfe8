#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program (src/main/scala) and the
benchmark (perfbench/src) from source with the Scala compiler that ships in
Spark's jars directory, into .bench_build/perfbench/classes-<hash>.

The hash covers every source file and the compiler flags, so a checkout
builds once and an edited source builds again. Run it alone with
`python3 perfbench/build.py`; run.py calls it before every run.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]
RESOURCES = os.path.join(ROOT, "src", "main", "resources")
SCALAC_FLAGS = ["-nowarn", "-encoding", "UTF-8"]


class BuildError(Exception):
    pass


def spark_jars():
    """Spark's jars directory: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    return jars


def sources():
    program = [os.path.join(d, f) for d, _, fs in os.walk(SOURCE_DIRS[0]) for f in fs if f.endswith(".scala")]
    if not program:
        raise BuildError("no program sources under src/main/scala; run from a checkout of the repository")
    bench = [os.path.join(d, f) for d, _, fs in os.walk(SOURCE_DIRS[1]) for f in fs if f.endswith(".scala")]
    return sorted(program + bench)


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("java not found: set JAVA_HOME or put java on PATH")
    return exe


def build():
    """Compiles if needed; returns the runtime classpath."""
    jars = spark_jars()
    files = sources()
    digest = hashlib.sha256("\0".join(SCALAC_FLAGS + sorted(os.listdir(jars))).encode())
    for f in files:
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    classes = os.path.join(OUT, "classes-" + digest.hexdigest()[:16])
    if not os.path.exists(os.path.join(classes, "BUILD_OK")):
        tmp = classes + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        argfile = os.path.join(OUT, "sources.txt")
        with open(argfile, "w") as fh:
            fh.write("\n".join(files))
        cmd = [java(), "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
               "-usejavacp", "-d", tmp] + SCALAC_FLAGS + ["@" + argfile]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BuildError("compilation failed")
        open(os.path.join(tmp, "BUILD_OK"), "w").close()
        shutil.rmtree(classes, ignore_errors=True)
        os.rename(tmp, classes)
    return os.pathsep.join([classes, RESOURCES, os.path.join(jars, "*")])


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build: {e}")
