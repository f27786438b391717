"""One benchmark sample: a fresh interpreter running `factorrace.cli.main(argv)`.

    python3 benchmarks/sample.py RESULT.json [--trace SPANS.json] [--setup-only] -- CLI-ARGS...

The parent records the spawn time; this process records, on the shared
monotonic clock, the moment configuration resolution returns (the command
begins) and the moment `main` returns, with the CPU time used between them.
`--setup-only` stops right after configuration resolution, so set-up can be
sampled on its own.  `--trace` wraps the layers' public functions (see
`tracer.py`) and writes the recorded spans to SPANS.json.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


class _SetupDone(BaseException):
    """Raised through `cli.main` to end a set-up-only sample."""


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv: list[str]) -> int:
    result_path = argv[0]
    split = argv.index("--")
    opts, cli_argv = argv[1:split], argv[split + 1 :]
    setup_only = "--setup-only" in opts
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    from factorrace import cli

    marks: dict = {}

    def command_begins():
        marks["t_cmd"] = time.monotonic()
        marks["cpu_cmd"] = _cpu_s()
        if setup_only:
            raise _SetupDone

    resolve = cli._build_run_config

    def resolve_then_mark(*args, **kwargs):
        rc = resolve(*args, **kwargs)
        command_begins()
        return rc

    cli._build_run_config = resolve_then_mark

    tracer = None
    if spans_path is not None:
        from tracer import Tracer  # noqa: E402 (benchmarks/ is on sys.path as the script dir)

        tracer = Tracer()
        tracer.install()

    try:
        code = cli.main(cli_argv)
    except _SetupDone:
        code = 0
    marks["t_end"] = time.monotonic()
    marks["cpu_end"] = _cpu_s()
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
