#!/usr/bin/env python3
"""Build the repository's benchmark from source and run one workload.

    python3 odebench/run.py --workload <wire-cardmix|engine-fanin|durable-ingest>
                            --seed <n> --seconds <s> --trace <0|1>
    python3 odebench/run.py --selftest

Run it from the repository root. It builds odebench/odebench.exe with dune
(the dune cache is disabled, so nothing is written outside the tree), then
runs it with the same arguments. The last line of standard output is the
JSON result; the exit code is the program's (non-zero on an oracle
divergence or any error).
"""

import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "odebench", "odebench.exe")


def source_id():
    """The commit when the tree is a git checkout, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "odebench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("odebench", "dune"))):
        sys.stderr.write("odebench: run from the repository root "
                         "(dune-project, lib/ and odebench/ are needed)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./odebench/odebench.exe"],
        capture_output=True, text=True, env=env,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        sys.stderr.write("odebench: build failed\n")
        return 2
    env["ODEBENCH_COMMIT"] = source_id()
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
