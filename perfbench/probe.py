"""Set-up probe: a fresh interpreter that builds one workload, then says so.

    python3 perfbench/probe.py <workload> <seed>

Prints `ready` once the workload's inputs exist (for cli, once
`import gnumsd.cli` is done); the caller times process start to that line.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402


def main(name: str, seed: int) -> int:
    if name == "cli":
        import gnumsd.cli  # noqa: F401
    WORKLOADS[name](seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
