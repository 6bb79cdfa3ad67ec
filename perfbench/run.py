"""kahlerlab benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its `src/`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). Notes and the run's environment go to
standard error. See perfbench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads, inherited by children

import argparse
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# The timing samples behind main_p50_s and aux_p50_s, per workload.
MAIN_AUX = {
    "cli-mix": ("nocache", "hit"),  # fresh-process subcommand; cache-hit invocation
    "continuous": ("path", "kappa0"),  # Mabuchi path integral; threshold solve
    "quant-functionals": ("Z", "L"),  # functional_Z; functional_L
    "balanced": ("solve-8", "step"),  # random start to balanced at k = 8; one iteration
}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in ("PERFBENCH_TRACE_OUT", "PERFBENCH_TIMING_OUT"):
        env.pop(var, None)
    return env


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median of SETUP_REPEATS fresh-process set-ups (import + inputs), as
    (seconds at reference speed, raw seconds)."""
    norm, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        r, n = proc.stdout.split()
        raw.append(float(r))
        norm.append(float(n))
    return statistics.median(norm), statistics.median(raw)


def import_times() -> dict[str, float]:
    """cli.import_s and cli.import_scipy_s from `python -X importtime`: the
    cumulative time of kahlerlab.cli, and of every outermost scipy module."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import kahlerlab.cli"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    entries = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((int(m.group(2)), len(m.group(3)), m.group(4)))
    cli_us = next(cum for cum, _, name in entries if name == "kahlerlab.cli")
    scipy_us = 0
    for i, (cum, depth, name) in enumerate(entries):
        if name.split(".")[0] != "scipy":
            continue
        # importtime prints a module after its imports: the enclosing module
        # is the next entry with a shallower indent
        enclosing = next((n for _, d, n in entries[i + 1:] if d < depth), "")
        if enclosing.split(".")[0] != "scipy":
            scipy_us += cum
    return {"cli.import_s": cli_us * 1e-6, "cli.import_scipy_s": scipy_us * 1e-6}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=tuple(MAIN_AUX))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "kahlerlab" / "__init__.py").is_file():
        print(f"perfbench: no kahlerlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    print("environment before: " + json.dumps(env), file=sys.stderr)

    import oracles
    from workloads import WORKLOADS, Run

    import kahlerlab
    import kahlerlab.cli  # noqa: F401  (compiles every module before the set-up probes)

    if not Path(kahlerlab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported kahlerlab from {kahlerlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "cli-mix":
        from climix import Launcher, build_cli_mix, round_cli_mix

        build, finish = build_cli_mix, None
        launcher = Launcher(ROOT, child_env())

        def one_round(inp, r, run):
            round_cli_mix(inp, r, run, table, launcher)
    else:
        build, round_fn, finish = WORKLOADS[args.workload]

        def one_round(inp, r, run):
            round_fn(inp, r, run, table)

    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"], raw["setup_s"] = setup_seconds(args.workload, args.seed)
    inp = build(args.seed)
    # oracles for the surfaces this run's inputs use, before any timing
    pairs = {(2, 1), (2, 2), inp["pair"]} if args.workload == "cli-mix" else oracles.GRID if args.workload == "continuous" else ()
    table = {gd: oracles.kappa0(*gd) for gd in pairs}
    table["beta"] = {k: oracles.log_beta_norms(k) for k in (8, 12, 16, 32, 64)}
    run = Run()
    round_s: list[float] = []  # operations of each round, at reference speed
    round_raw: list[float] = []

    def timed_round(r):
        run.round_s = run.round_raw = 0.0
        one_round(inp, r, run)
        round_s.append(run.round_s)
        round_raw.append(run.round_raw)

    if not args.trace:
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < args.seconds:
            timed_round(r)
            r += 1
    else:
        from tracer import Tracer, install, layer_metrics

        timed_round(0)  # untraced reference round for the tracing overhead
        tracer = run.tracer = Tracer()
        if args.workload == "cli-mix":
            launcher.tracer = tracer
        else:
            install(tracer, also=[sys.modules["workloads"]])
        timed_round(0)
    if finish is not None:
        finish(inp, run)

    s = run.samples
    if not args.trace:
        main_key, aux_key = MAIN_AUX[args.workload]
        metrics["wall_s"] = statistics.median(round_s)
        metrics["main_p50_s"] = statistics.median(s[main_key])
        metrics["aux_p50_s"] = statistics.median(s[aux_key])
        raw["wall_s"] = statistics.median(round_raw)
        raw["main_p50_s"] = statistics.median(run.raw[main_key])
        raw["aux_p50_s"] = statistics.median(run.raw[aux_key])
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        units = {"peak_rss_mb": "MB"}
    else:
        extra = import_times()
        extra["trace.overhead_s"] = round_raw[1] - round_raw[0]
        metrics = layer_metrics(tracer, extra)
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(str(out_dir / f"spans-{args.workload}-{args.seed}.json.gz"))
        units = {}

    env_after = environment()["loadavg"]
    print(f"environment after: loadavg {json.dumps(env_after)}; rounds {len(round_s)}", file=sys.stderr)
    if raw:
        print("raw wall seconds: " + json.dumps(raw), file=sys.stderr)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(val), "unit": units.get(name, unit_of(name))} for name, val in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s", ".s_per_iter")):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
