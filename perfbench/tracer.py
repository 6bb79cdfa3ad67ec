"""Spans and counters around kahlerlab's public functions.

`install` rebinds every public function of the traced modules wherever it
is bound (the defining module, the modules that imported it by name, and
the package namespace), the public methods of the radial-potential classes,
`Profile.from_callable`, `ResultCache.get_or_make`, and numpy's `chebfit` as
the `cheb` name of `calabi`, `mabuchi` and `quantization` sees it. Nothing in
kahlerlab's files changes; the wrappers live only in the traced process.

A span is (id, name, start_ns, end_ns, parent id, operation id, self_ns, ok).
Spans stay in memory until `dump` writes them out with the counters.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from types import ModuleType

import numpy as np

MODULES = ("cli", "cache", "numerics", "calabi", "ckem", "mabuchi", "quantization", "functionals", "verify")
POTENTIALS = ("RadialPotential", "_TNativePotential", "ProfilePotential", "FSPotential", "BlendPotential", "_ShiftedPotential")
INVERSIONS = ("mu_of_t", "t_of_mu")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next = 0

    def wrap(self, name, fn, points=None, result=None):
        """Wrap fn in a span. `name` may be a callable of the call's
        arguments; `points(args)` adds to <name>.points; `result(args, out)`
        may add further counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            if points is not None:
                self.counts[label + ".points"] += points(args)
            sid = self._next
            self._next += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [sid, 0]
            self._stack.append(frame)
            ok = False
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                self.spans.append((sid, label, t0, t1, parent, self.op, t1 - t0 - frame[1], ok))
            if result is not None:
                result(args, out)
            return out

        return traced

    def merge(self, path: str) -> None:
        """Add the spans and counts a traced child process dumped."""
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            data = json.load(fh)
        base = self._next
        for sid, label, t0, t1, parent, op, self_ns, ok in data["spans"]:
            self.spans.append((sid + base, label, t0, t1, parent + base if parent >= 0 else -1, op, self_ns, ok))
        self._next += data["next"]
        for key, val in data["counts"].items():
            self.counts[key] += val

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "next": self._next}, fh)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, and durations of the calls
        that returned."""
        out: dict[str, dict] = {}
        for _, label, t0, t1, _, _, self_ns, ok in self.spans:
            s = out.setdefault(label, {"calls": 0, "self_s": 0.0, "ok_durations": []})
            s["calls"] += 1
            s["self_s"] += self_ns * 1e-9
            if ok:
                s["ok_durations"].append((t1 - t0) * 1e-9)
        return out


def _size(args) -> int:
    return int(np.size(args[1]))


def _potential_name(meth):
    return lambda args: f"quantization.{type(args[0]).__name__}.{meth}"


def install(tracer: Tracer, also=()) -> None:
    """Wrap the traced layers of the already imported kahlerlab package;
    `also` lists further modules that imported kahlerlab names."""
    import numpy.polynomial.chebyshev as npcheb

    import kahlerlab
    import kahlerlab.cli  # noqa: F401  (loads every traced module)

    def count_iterations(args, out):
        tracer.counts["quantization.balanced_iterate.iters"] += out.n_iter

    mods = {name: sys.modules[f"kahlerlab.{name}"] for name in MODULES}
    swaps: dict[int, tuple] = {}
    for mname, mod in mods.items():
        names = list(getattr(mod, "__all__", ()))
        if mname == "cli":
            names += [n for n in vars(mod) if n.startswith("cmd_")]
        for attr in names:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                label = f"cli.{attr[4:]}" if attr.startswith("cmd_") else f"{mname}.{attr}"
                result = count_iterations if label == "quantization.balanced_iterate" else None
                swaps[id(fn)] = (fn, tracer.wrap(label, fn, result=result))
    for mod in [kahlerlab, *mods.values(), *also]:
        for attr, val in list(vars(mod).items()):
            hit = swaps.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])

    quant = mods["quantization"]
    for cname in POTENTIALS:
        cls = getattr(quant, cname)
        for attr, fn in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or getattr(fn, "__isabstractmethod__", False):
                continue
            points = _size if attr in INVERSIONS else None
            setattr(cls, attr, tracer.wrap(_potential_name(attr), fn, points=points))

    Profile = mods["calabi"].Profile
    Profile.from_callable = staticmethod(tracer.wrap("calabi.Profile.from_callable", vars(Profile)["from_callable"].__func__))

    def cache_result(args, out):
        if args[0].enabled:
            tracer.counts["cache.hits" if out[1] else "cache.misses"] += 1

    Cache = mods["cache"].ResultCache
    Cache.get_or_make = tracer.wrap("cache.get_or_make", Cache.get_or_make, result=cache_result)

    proxy = ModuleType("chebyshev")
    proxy.__dict__.update(vars(npcheb))
    proxy.chebfit = tracer.wrap("chebfit", npcheb.chebfit, points=lambda args: len(args[0]))
    for mname in ("calabi", "mabuchi", "quantization"):
        mods[mname].cheb = proxy


def per_tag_checks(tracer: Tracer, run_checks, all_tags):
    """run_checks over each tag in turn, one `verify.<tag>` span each. For
    the all-tags `verify` of cli-mix the rows come out as one call gives
    them, since the suite lists its checks grouped by tag in ALL_TAGS order."""

    def run(tags=None, breach=None):
        rows = []
        for tag in (tags or all_tags):
            rows += tracer.wrap(f"verify.{tag}", run_checks)(tags=[tag], breach=breach)
        return rows

    return run


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from the spans and
    counts of the traced rounds. A layer the workload never reaches reads 0."""
    s = tracer.summary()
    c = tracer.counts

    def calls(n):
        return float(s[n]["calls"]) if n in s else 0.0

    def self_s(n):
        return s[n]["self_s"] if n in s else 0.0

    def med(n):
        return _median(s[n]["ok_durations"]) if n in s else 0.0

    m: dict[str, float] = dict(extra)
    for cmd in ("pkappa", "kappa0", "mabuchi_probe", "quant_balanced", "quant_expansion", "verify"):
        m[f"cli.{cmd}_s"] = med(f"cli.{cmd}")
    hits, misses = c.get("cache.hits", 0.0), c.get("cache.misses", 0.0)
    m["cache.hits"] = hits
    m["cache.misses"] = misses
    m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for tag in ("numerics", "calabi", "ckem", "mabuchi", "quant", "functionals"):
        m[f"verify.{tag}_s"] = med(f"verify.{tag}")
    m["chebfit.calls"] = calls("chebfit")
    m["chebfit.points"] = c.get("chebfit.points", 0.0)
    m["chebfit.self_s"] = self_s("chebfit")
    m["numerics.brent_root.calls"] = calls("numerics.brent_root")
    m["numerics.brent_root.self_s"] = self_s("numerics.brent_root")
    m["numerics.gauss_legendre.calls"] = calls("numerics.gauss_legendre")
    m["ckem.kappa_zero.calls"] = calls("ckem.kappa_zero")
    m["ckem.kappa_zero.s"] = med("ckem.kappa_zero")
    m["ckem.solve_P.calls"] = calls("ckem.solve_P")
    m["ckem.solve_P.self_s"] = self_s("ckem.solve_P")
    m["ckem.interior_min.self_s"] = self_s("ckem.interior_min")
    m["ckem.sweep.s"] = med("ckem.sweep")
    m["calabi.Profile.from_callable.calls"] = calls("calabi.Profile.from_callable")
    m["calabi.Profile.from_callable.self_s"] = self_s("calabi.Profile.from_callable")
    m["calabi.weighted_average_c.s"] = med("calabi.weighted_average_c")
    m["mabuchi.mabuchi_path_integral.calls"] = calls("mabuchi.mabuchi_path_integral")
    m["mabuchi.mabuchi_path_integral.self_s"] = self_s("mabuchi.mabuchi_path_integral")
    m["mabuchi.unboundedness_probe.s"] = med("mabuchi.unboundedness_probe")
    m["mabuchi.mabuchi_energy_amt.s"] = med("mabuchi.mabuchi_energy_amt")
    for cls in ("ProfilePotential", "FSPotential"):
        for meth in INVERSIONS:
            n = f"quantization.{cls}.{meth}"
            m[f"{n}.calls"] = calls(n)
            m[f"{n}.points"] = c.get(f"{n}.points", 0.0)
            m[f"{n}.self_s"] = self_s(n)
    m["quantization.round_potential.calls"] = calls("quantization.round_potential")
    m["quantization.hilb.calls"] = calls("quantization.hilb")
    m["quantization.hilb.self_s"] = self_s("quantization.hilb")
    m["quantization.fs.self_s"] = self_s("quantization.fs")
    iters = c.get("quantization.balanced_iterate.iters", 0.0)
    m["quantization.balanced_iterate.iters"] = iters
    m["quantization.balanced_iterate.s_per_iter"] = (
        sum(s["quantization.balanced_iterate"]["ok_durations"]) / iters if iters else 0.0
    )
    for fn in ("functional_Z", "functional_L", "toy_mabuchi", "almost_balanced_check"):
        m[f"functionals.{fn}.s"] = med(f"functionals.{fn}")
    m["functionals.aubin_path.self_s"] = self_s("functionals.aubin_path")
    return m
