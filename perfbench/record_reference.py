#!/usr/bin/env python3
"""Record the reference outputs the checker compares against.

    python3 perfbench/record_reference.py

Runs every command of every workload once (verify with its default seed,
the first entry of run.VERIFY_SEEDS) exactly as the benchmark runs it, and
writes each stdout to perfbench/reference/.  A reference states what the
code printed when it was recorded; re-record only on a commit whose output
is known to be right, and say so in the change that does it.
"""

import shutil
import subprocess
import sys

import checker
import run


def main() -> int:
    env = run.child_env()
    work = run.ROOT / ".perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    commands: dict[str, run.Command] = {}
    for name in ("ring", "spectral", "oracles"):
        setup, timed = run.workload_commands(name, seed=0)
        for cmd in setup + timed:
            if cmd.argv != run.IMPORT_PROBE:
                commands.setdefault(checker.reference_name(list(cmd.argv)), cmd)
    checker.REFERENCE_DIR.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    try:
        for ref_name, cmd in commands.items():
            out = subprocess.run([sys.executable, str(run.CHILD), *cmd.cli_argv()],
                                 cwd=work, env=env, capture_output=True, timeout=600)
            if out.returncode != 0:
                print(f"{ref_name}: exit code {out.returncode}, not recorded", file=sys.stderr)
                return 1
            (checker.REFERENCE_DIR / f"{ref_name}.json").write_bytes(out.stdout)
            print(f"recorded {ref_name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
