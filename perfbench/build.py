"""Build file of the benchmark.

Compiles the program's sources (src/main/scala) together with the
benchmark's (perfbench/src) into .bench_build/classes, using the Scala
compiler that ships among Spark's jars, and returns the runtime classpath.
A rebuild happens only when a source file changed since the last build.

Run from the repository root:  python3 perfbench/build.py
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD = Path(".bench_build")
SOURCES = [Path("src/main/scala"), Path("perfbench/src")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def java():
    home = os.environ.get("JAVA_HOME")
    exe = Path(home, "bin", "java") if home else None
    if exe and exe.exists():
        return str(exe)
    found = shutil.which("java")
    if not found:
        fail("no java on PATH and JAVA_HOME is not set")
    return found


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not Path(home, "jars").is_dir():
        fail("cannot find Spark's jars; set SPARK_HOME")
    return Path(home, "jars")


def build():
    """Compile if needed; return the classpath to run perfbench.Main with."""
    if not Path("src/main/scala/repro").is_dir():
        fail("src/main/scala/repro not found; run from the repository root")
    files = sorted(p for d in SOURCES for p in d.rglob("*.scala"))
    jars = spark_jars()
    digest = hashlib.sha256(str(jars).encode())
    for f in files:
        digest.update(str(f).encode())
        digest.update(f.read_bytes())
    classes = BUILD / "classes"
    stamp = BUILD / "stamp"
    jar_glob = str(jars / "*")
    classpath = os.pathsep.join([str(classes.resolve()), jar_glob])
    if stamp.exists() and stamp.read_text() == digest.hexdigest():
        return classpath
    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir(parents=True)
    print(f"perfbench: compiling {len(files)} Scala files", file=sys.stderr)
    cmd = [java(), "-Xss8m", "-Xmx2g", "-cp", jar_glob, "scala.tools.nsc.Main",
           "-nowarn", "-d", str(classes), "-classpath", jar_glob] + [str(f) for f in files]
    if subprocess.run(cmd).returncode != 0:
        fail("compilation failed")
    stamp.write_text(digest.hexdigest())
    return classpath


if __name__ == "__main__":
    build()
