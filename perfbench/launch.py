"""Run the kahlerlab command line in this process, as its console script does.

    python3 perfbench/launch.py <subcommand> [flags]   (with src/ on PYTHONPATH)

With PERFBENCH_TIMING_OUT set, the time of `import kahlerlab.cli` plus the
command is written to that path as {"raw": s, "norm": s}, the second at
reference speed (see calibrate.py) measured in this process; numpy, which
the reference kernel needs, is imported first and left out. With
PERFBENCH_TRACE_OUT set too, the tracer's wrappers are installed after the
import, `verify` runs tag by tag, the spans and counts are written to that
path when the command ends, and no reference kernel runs ("norm" is then
the raw time).
"""

import json
import os
import sys


def _import_and_run(argv):
    import kahlerlab.cli as cli

    return cli.main(argv)


def main() -> int:
    timing_out = os.environ.get("PERFBENCH_TIMING_OUT")
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not timing_out:
        return _import_and_run(sys.argv[1:])
    if trace_out:
        import time

        t0 = time.perf_counter()
        import kahlerlab.cli as cli
        from kahlerlab.verify import ALL_TAGS
        from tracer import Tracer, install, per_tag_checks

        tracer = Tracer()
        tracer.op = int(os.environ.get("PERFBENCH_OP", "0"))
        install(tracer)
        cli.run_checks = per_tag_checks(tracer, cli.run_checks, ALL_TAGS)
        try:
            code = cli.main(sys.argv[1:])
        finally:
            raw = norm = time.perf_counter() - t0
            tracer.dump(trace_out)
    else:
        from calibrate import timed

        code, raw, norm = timed(_import_and_run, sys.argv[1:])
    with open(timing_out, "w", encoding="utf-8") as fh:
        json.dump({"raw": raw, "norm": norm}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
