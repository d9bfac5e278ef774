#!/usr/bin/env python3
"""Build and run goldweb's benchmark.

Run from the root of a goldweb checkout:

    python3 perfbench/run.py --workload swap-churn --seed 1 --seconds 10 --trace 0

The Go program in perfbench/ is built into .bench_build/ with its build
cache there too, so nothing outside the checkout is written. Arguments
are passed to the program; its last output line is the result JSON.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def commit():
    """The checked-out commit when this is a git work tree, else a digest
    of the Go sources (for exported trees that are not repositories)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        fail("run from the root of a goldweb checkout (no go.mod and internal/ here)")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOTMPDIR": os.path.join(OUT, "tmp"),
        "GOMODCACHE": os.path.join(OUT, "gomod"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "tmp", "gomod", "config"):
        os.makedirs(os.path.join(OUT, d), exist_ok=True)
    exe = os.path.join(OUT, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=BENCH, env=env)
    if build.returncode != 0:
        fail("build failed")
    run = subprocess.run([exe, "--root", ROOT, "--commit", commit()] + sys.argv[1:], env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
