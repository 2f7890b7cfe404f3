"""Run one gnumsd command under the speed sampler; used by the timed cli passes.

    python3 perfbench/clirun.py <gnumsd argv...>

Does what `python -m gnumsd.cli <argv...>` does, while `SpeedSampler` times
its kernel in this process, then prints one `PERFBENCH-SPEED {json}` line on
stderr with the kernel times and the sampler's own time.  Exits with main's
code.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.speed import SPEED_MARKER, SpeedSampler  # noqa: E402


def main(argv: list[str]) -> int:
    with SpeedSampler() as speed:
        import gnumsd.cli

        code = gnumsd.cli.main(argv)
    sys.stdout.flush()
    print(SPEED_MARKER + json.dumps(speed.report()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
