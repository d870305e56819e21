#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload fig2_imex --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (the library from src/ plus
the benchmark driver, Release) into .bench_build/ at the checkout root;
later runs rebuild only what changed. Build output goes to stderr. Every
argument is passed to the benchmark binary, whose last line of output is
the result; a traced run (--trace 1) also writes its spans to
.bench_build/trace-<workload>.json.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"


def build():
    """Configures (once) and builds the benchmark; exits on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no library sources at {ROOT / 'src'}")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout location
    if not cache.is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def flag(args, name):
    """The value after `name` in args, or None."""
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(argv):
    build()
    args = list(argv)
    workload = flag(args, "--workload")
    if flag(args, "--trace") == "1" and workload and "--trace-out" not in args:
        args += ["--trace-out", str(BUILD / f"trace-{workload}.json")]
    return subprocess.run([str(BINARY), *args]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
