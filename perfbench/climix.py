"""The cli-mix workload: one fresh `kahlerlab` process per subcommand.

Every invocation runs through `launch.py` (which does what the installed
console script does) in a new temporary directory inside the checkout, so
each has its own empty `.artifact-cache`; the directory is removed after the
round. A round is the same list of invocations for every seed; the seed picks
the surface (genus, degree) of `pkappa` and `kappa0` and the `pkappa` range.

`mabuchi-probe --degree 2` is kept on purpose: its default kappa comes from
the genus-2, degree-1 threshold whatever `--degree` says, lies above
kappa0(2, 2), and the command exits 1 with BadDirection. It counts as failed
while it exits non-zero; once it succeeds its output is checked like the
default probe, against kappa0(2, 2).
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from oracles import GRID
from workloads import Run, check_sweep_rows

HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"
CHILD_TIMEOUT = 170.0
SLOPE_RANGE = (-2.3, -1.7)  # O(k^-2) expansion residual
RESIDUAL_BOUND = 1e-8  # sup |rho - C_k f^{1-p}| at a balanced metric
HITS = 2


def build_cli_mix(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    g, d = (str(x) for x in GRID[int(rng.integers(len(GRID)))])
    lo = 1.001 + float(rng.uniform(0.0, 1e-3))
    hi = float(rng.uniform(1.2, 1.6))
    surface = ["--genus", g, "--degree", d]
    pkappa = ["pkappa", *surface, "--kappa-range", f"{lo!r}:{hi!r}:41"]
    kappa0 = ["kappa0", *surface]
    expansion = ["quant-expansion", "--b0", "1", "--p", "4", "--k-range", "8:64"]
    return {
        "pair": (int(g), int(d)),
        # (metric key, argv); the no-cache block runs twice for more samples
        "commands": 2 * [
            ("nocache", pkappa + ["--no-cache"]),
            ("nocache", kappa0 + ["--no-cache"]),
            ("nocache", ["mabuchi-probe", "--no-cache"]),
            ("known-fault", ["mabuchi-probe", "--degree", "2", "--no-cache"]),
            ("nocache", ["quant-balanced", "--b0", "inf", "--p", "1", "--k-range", "8,16,32", "--no-cache"]),
            ("nocache", expansion + ["--no-cache"]),
        ]
        + [("verify", ["verify", "--no-cache"])],
        # each pair runs HITS + 1 times in one empty cache directory: a miss, then hits
        "cache_pairs": [kappa0, expansion],
    }


class Launcher:
    """Runs one child per invocation, in a directory of its own, and reads
    back the time the child measured."""

    def __init__(self, root: Path, env: dict, tracer=None) -> None:
        self.tmp_root = root / ".perfbench-tmp"
        self.env = env
        self.tracer = tracer

    def new_dir(self) -> Path:
        self.tmp_root.mkdir(exist_ok=True)
        return Path(tempfile.mkdtemp(dir=self.tmp_root))

    def run(self, argv: list[str], cwd: Path, op: int):
        """Return (completed process, raw seconds, seconds at reference
        speed) of the child from its start to the end of the command, as the
        child measured them (the parent's wall time if the child died
        before reporting)."""
        timing = cwd / "timing.json"
        trace_out = cwd / "trace.json.gz"
        env = dict(self.env, PERFBENCH_TIMING_OUT=str(timing))
        if self.tracer is not None:
            env.update(PERFBENCH_TRACE_OUT=str(trace_out), PERFBENCH_OP=str(op))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(LAUNCH), *argv],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
        wall = time.perf_counter() - t0
        if self.tracer is not None and trace_out.exists():
            self.tracer.merge(str(trace_out))
        if timing.exists():
            t = json.loads(timing.read_text())
            timing.unlink()
            return proc, t["raw"], t["norm"]
        return proc, wall, wall

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp_root, ignore_errors=True)


def _record(proc) -> dict:
    lines = proc.stderr.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def _check_probe(run: Run, out: str, kappa0: float, what: str) -> None:
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    rows = list(csv.reader(io.StringIO("\n".join(lines[:-1]))))[1:]
    energies = [float(row[1]) for row in rows]
    run.check(summary["kappa"] < kappa0, f"{what}: probe kappa {summary['kappa']!r} not below kappa0 {kappa0!r}")
    run.check(summary["label"] == "NegativeSomewhere", f"{what}: label {summary['label']}")
    run.check(all(b < a for a, b in zip(energies, energies[1:])), f"{what}: probe energies not decreasing")


def check_output(run: Run, argv: list[str], out: str, oracle: dict, pair: tuple[int, int]) -> None:
    cmd = argv[0]
    if cmd == "pkappa":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        run.check(len(rows) == 41 and all(len(r) == 7 for r in rows), "pkappa: malformed CSV")
        check_sweep_rows(run, [(float(r[0]), float(r[1]), float(r[3]), r[6]) for r in rows], oracle[pair])
    elif cmd == "kappa0":
        verdict = json.loads(out)
        o = oracle[pair]
        run.check(abs(verdict["kappa0"] - o["kappa0"]) <= o["kappa_window"], f"kappa0{pair}: {verdict['kappa0']!r} vs oracle {o['kappa0']!r}")
        run.check(verdict["label_below"] == "NegativeSomewhere" and verdict["label_above"] == "ExistsCKEM", "kappa0: labels")
    elif cmd == "mabuchi-probe":
        probe_pair = (2, 2) if "--degree" in argv else (2, 1)
        _check_probe(run, out, oracle[probe_pair]["kappa0"], "mabuchi-probe " + " ".join(argv[1:]))
    elif cmd == "quant-balanced":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        run.check(len(rows) == 3, "quant-balanced: expected 3 rows")
        for row in rows:
            run.check(float(row[2]) < RESIDUAL_BOUND, f"quant-balanced: residual {row[2]} at k={row[0]}")
    elif cmd == "quant-expansion":
        slope = json.loads(out.strip().splitlines()[-1])["slope"]
        run.check(SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1], f"quant-expansion: slope {slope!r}")
    elif cmd == "verify":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        run.check(len(rows) > 0, "verify: no rows")
        for row in rows:
            run.check(row[2] == "True", f"verify: {row[0]} failed ({row[3]})")


def round_cli_mix(inp: dict, r: int, run: Run, oracle: dict, launcher: Launcher) -> None:
    try:
        _round(inp, run, oracle, launcher)
    finally:
        launcher.cleanup()


def _round(inp: dict, run: Run, oracle: dict, launcher: Launcher) -> None:
    for key, argv in inp["commands"]:
        run.attempted += 1
        proc, raw, norm = launcher.run(argv, launcher.new_dir(), run.attempted)
        if proc.returncode != 0 and not (argv[0] == "verify" and proc.returncode == 1):
            run.failed += 1
            run.add(None, raw, norm)
            if key != "known-fault":
                run.note(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        run.add(key, raw, norm)
        check_output(run, argv, proc.stdout, oracle, inp["pair"])
        run.check(_record(proc).get("cache_hit") is False, f"{argv[0]}: cache hit under --no-cache")

    for argv in inp["cache_pairs"]:
        cwd = launcher.new_dir()
        outs = []
        for want_hit in (False,) + HITS * (True,):
            run.attempted += 1
            proc, raw, norm = launcher.run(argv, cwd, run.attempted)
            if proc.returncode != 0:
                run.failed += 1
                run.add(None, raw, norm)
                run.note(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
                break
            run.add("hit" if want_hit else "miss", raw, norm)
            run.check(_record(proc).get("cache_hit") is want_hit, f"{argv[0]}: cache_hit should be {want_hit}")
            outs.append(proc.stdout)
        if len(outs) == 1 + HITS:
            run.check(all(out == outs[0] for out in outs), f"{argv[0]}: payload differs between cache miss and hit")
            check_output(run, argv, outs[0], oracle, inp["pair"])
