"""Capture the reference outputs the cli and scan workloads check against.

    python3 perfbench/make_reference.py

Runs every command the cli workload can pick (the README set plus the
distill and compose menus) and writes its stdout to
perfbench/reference/<name>.out.  Re-run only when a change to the program's
output is intended, and say so where the change is recorded.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import pin_environment  # noqa: E402
from perfbench.workloads import REFERENCE_DIR, cli_env, cli_menu, run_cli  # noqa: E402


def main() -> int:
    pin_environment()
    REFERENCE_DIR.mkdir(exist_ok=True)
    env = cli_env()
    for _, name, argv in cli_menu():
        done = run_cli(argv, env)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}: {done.stderr}", file=sys.stderr)
            return 1
        (REFERENCE_DIR / f"{name}.out").write_text(done.stdout)
        print(f"{name}: {len(done.stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
