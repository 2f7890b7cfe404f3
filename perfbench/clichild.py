"""Run one gnumsd command with layer tracing; used by the traced cli passes.

    python3 perfbench/clichild.py <label> <gnumsd argv...>

Prints the command's normal output, then one `PERFBENCH-TRACE {json}` line on
stderr holding the spans, the lru cache statistics, the in-process
`import gnumsd.cli` time and the `main()` time.  Exits with main's code.
"""
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import TRACE_MARKER, Tracer, installed, lru_caches  # noqa: E402


def main(label: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import gnumsd.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    entry = tracer.wrap("cli", gnumsd.cli.main, "main", tag=lambda args: label)
    with installed(tracer):
        start = time.perf_counter()
        code = entry(argv)
        main_s = time.perf_counter() - start
    caches = {name: cached.cache_info()._asdict() for name, cached in lru_caches().items()}
    report = {"trace": tracer.snapshot(), "caches": caches, "import_s": import_s, "main_s": main_s}
    sys.stdout.flush()
    print(TRACE_MARKER + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
