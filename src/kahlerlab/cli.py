"""Command-line front end.

Subcommands drive the library modules and print plot-ready CSV or JSON.  No
numerical work happens here — only argument parsing, dispatch, caching,
and formatting.  The library records validate their inputs (`ToyModel` b0
and p, `RuledSurfaceData` genus and degree), and the CLI maps their errors
to exit 2; each command checks the rest of its flags (kappa, the k list,
--tol) where it parses them.  The CLI keeps no record class of its own.

Output layout
-------------
Each command produces one text payload (CSV for sweeps and k-scans, JSON for
verdict-style results).  With ``--out PATH`` the payload is written to PATH
and the run record, one JSON object (input hash, version, timestamp,
command, parameters, cache status, pass flag, out path), is written next
to it as ``PATH.record.json``; without ``--out`` the payload goes to
stdout and the record to stderr.  Payload bytes are deterministic for a
fixed config; records carry timestamps and are not.

Exit codes: 0 success, 1 invariant/computation failure, 2 invalid config.
"""

from __future__ import annotations

import argparse
import csv
import datetime as _dt
import importlib.util
import io
import json
import math
import sys
from types import ModuleType
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .cache import ResultCache, config_hash, source_fingerprint
from .errors import ConfigError, KahlerLabError, OutOfDomain

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
_K_MAX = 4096  # largest tensor power k: the balanced solve's (k+1)^2 Jacobian takes ~134 MB


def _lazy(name: str) -> ModuleType:
    """kahlerlab.<name>, executed on its first attribute access and bound in
    sys.modules and on the package as an import binds it; a module that is
    already imported comes back as it is."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[full] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# perfbench's tracer looks kahlerlab.verify up in sys.modules right after this
# import, and its launcher replaces cli.run_checks: hence verify's lazy binding
# and run_checks, which can go once the tracer imports what it traces. The
# strands are bound lazily so that verify's plain import of them runs only the
# ones its checks read (`verify --tags numerics` runs numerics alone).
for _name in ("numerics", "calabi", "ckem", "functionals", "mabuchi", "quantization"):
    _lazy(_name)
verify = _lazy("verify")


def run_checks(tags: Sequence[str] | None = None, breach: str | None = None) -> list[verify.CheckResult]:
    """The verify suite's rows, one per check (see `verify.run_checks`)."""
    return verify.run_checks(tags=tags, breach=breach)


# -- run record --------------------------------------------------------------


def _input_hash(command: str, params: dict[str, Any]) -> str:
    """The run's cache key: a hash of the command, its parameters and the package source."""
    return config_hash({"command": command, "params": params, "code": source_fingerprint()})


def _record(key: str, command: str, params: dict[str, Any], hit: bool, passed: bool | None, out: str | None) -> str:
    """The run record, one JSON object; `key` is the run's input hash."""
    created = _dt.datetime.now(_dt.timezone.utc).isoformat()
    rec = dict(input_hash=key, version=__version__, created_utc=created, command=command, params=params,
               cache_hit=hit, passed=passed, out_path=out)
    return json.dumps(rec, sort_keys=True, default=str)


def _emit(payload: str, rec: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
        sys.stderr.write(rec + "\n")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        with open(out + ".record.json", "w", encoding="utf-8") as fh:
            fh.write(rec + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {exc.filename!r}: {exc.strerror}") from exc


def _csv(header: str, rows: Iterable[Sequence[object]]) -> str:
    """CSV text: `header`, then one line per row. Floats come in as repr()
    strings, which round-trip and are bit-stable."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return buf.getvalue()


def _json_line(rec: dict[str, Any]) -> str:
    return json.dumps(rec, sort_keys=True) + "\n"


def _cached(
    command: str, params: dict[str, Any], produce: Callable[[], str], suffix: str, args: argparse.Namespace
) -> int:
    """Take the payload from the result cache (or make and store it), emit it
    with its run record, and return EXIT_OK."""
    key = _input_hash(command, params)
    payload, hit = ResultCache(enabled=not args.no_cache).get_or_make(key, produce, suffix=suffix)
    _emit(payload, _record(key, command, params, hit, True, args.out), args.out)
    return EXIT_OK


# -- range parsing -----------------------------------------------------------


_KAPPA_RANGE_MAX = 100_000  # most values of 'a:b:n': pkappa peaks near 1.1 kB per kappa, ~144 MB at the cap


def _parse_kappa_range(text: str) -> list[float]:
    """'a:b:n' -> n <= _KAPPA_RANGE_MAX equispaced values from finite a to b; 'x,y,z' -> explicit list."""
    try:
        if ":" in text:
            a, b, n = text.split(":")
            a, b, n = float(a), float(b), int(n)
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ConfigError(f"bad kappa range {text!r}: 'a:b:n' needs finite a and b")
            if n > _KAPPA_RANGE_MAX:
                raise ConfigError(f"bad kappa range {text!r}: 'a:b:n' takes n <= {_KAPPA_RANGE_MAX}")
            return [float(v) for v in np.linspace(a, b, n)]
        return [float(tok) for tok in text.split(",") if tok]
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad kappa range {text!r}: {exc}") from exc


def _parse_k_range(text: str | None, default: list[int], k_min: int, k_max: float) -> list[int]:
    """'lo:hi' -> doublings lo, 2lo, ... <= hi; 'a,b,c' -> explicit list;
    `default` when no range is given (an empty one is empty). ConfigError
    unless the list is not empty and lies in [k_min, k_max]."""
    if text is None:
        return default
    try:
        if ":" in text:
            lo, hi = (int(tok) for tok in text.split(":"))
            if lo < 1:
                raise ConfigError(f"bad k range {text!r}: 'lo:hi' doubles lo, which must be >= 1")
            ks = []
            k = lo
            while k <= hi:
                ks.append(k)
                k *= 2
        else:
            ks = [int(tok) for tok in text.split(",") if tok]
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad k range {text!r}: {exc}") from exc
    if not ks:
        raise ConfigError("empty k range")
    if min(ks) < k_min:
        raise ConfigError(f"k values must be >= {k_min}")
    if max(ks) > k_max:
        digits = str(max(ks))  # `:.3g` overflows on an int past the float range
        shown = digits if len(digits) <= 20 else f"{digits[:6]}... ({len(digits)} digits)"
        raise ConfigError(f"k values must be <= {k_max} (got {shown})")
    return ks


def _parse_b0(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad b0 {text!r}") from exc


# -- library records ---------------------------------------------------------


def _validated(record: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """record(*args, **kwargs), its OutOfDomain re-raised as a ConfigError."""
    try:
        return record(*args, **kwargs)
    except OutOfDomain as exc:
        raise ConfigError(str(exc)) from exc


def _surface(args: argparse.Namespace):
    """The RuledSurfaceData of --genus and --degree. Its kappa 1.5 fills the
    record's field, which no solver reads: every command passes its own kappa."""
    from .calabi import RuledSurfaceData

    return _validated(RuledSurfaceData.standard, 1.5, genus=args.genus, degree=args.degree)


# -- commands ----------------------------------------------------------------
# Each cached command checks its flags, builds its cache key from the parsed
# values and looks it up; only on a miss does `produce` import the strand it
# calls and build its surface or ToyModel, so a hit runs no library module.
# A hit skips the record's validation safely: the key covers the package
# source, and the cache stores a payload only after `produce` returns, so
# this source already accepted these flags. quant-balanced imports
# quantization before the lookup, since its key holds `_BALANCED_TOL`.


def cmd_pkappa(args: argparse.Namespace) -> int:
    if (args.kappa is None) == (args.kappa_range is None):
        raise ConfigError("pkappa needs exactly one of --kappa and --kappa-range")
    kappas = [args.kappa] if args.kappa_range is None else _parse_kappa_range(args.kappa_range)
    if not kappas:
        raise ConfigError("empty kappa range")
    if not all(1.0 < k < math.inf for k in kappas):
        raise ConfigError("all kappa values must be > 1 and finite")

    def produce() -> str:
        from .ckem import sweep

        errors: list[tuple[float, str]] = []
        rows = [[*map(repr, r[:6]), str(r.label)] for r in sweep(kappas, _surface(args), errors)]
        rows += [[repr(kap), *["nan"] * 5, f"Error:{name}"] for kap, name in errors]
        return _csv("kappa,b_kappa,c,futaki_residual,min_P,argmin_z,label", rows)

    return _cached("pkappa", {"kappas": kappas, "genus": args.genus, "degree": args.degree}, produce, ".csv", args)


def cmd_kappa0(args: argparse.Namespace) -> int:
    """JSON: kappa0; min_P and argmin_z, P at its lowest interior critical
    point there (~0 at the double root); the labels at the midpoint of
    (1, kappa0) and at kappa0 + 0.5. All four come from one `sweep`."""

    def produce() -> str:
        from .ckem import kappa_zero, sweep

        X = _surface(args)
        k0 = kappa_zero(X)
        at, below, above = sweep([k0, 1.0 + 0.5 * (k0 - 1.0), k0 + 0.5], X)
        return _json_line({
            "kappa0": k0,
            "min_P": at.min_P,
            "argmin_z": at.argmin_z,
            "label_below": str(below.label),
            "label_above": str(above.label),
        })

    return _cached("kappa0", {"genus": args.genus, "degree": args.degree}, produce, ".json", args)


def cmd_mabuchi_probe(args: argparse.Namespace) -> int:
    """CSV (k, energy, slope_fit), then a JSON line: kappa, its label, the
    fitted slope, and "diverges", true when the energy at the largest k lies
    more than 100 below the energy at the smallest k, in any order of
    --k-range."""
    if args.kappa is not None and not 1.0 < args.kappa < math.inf:
        raise ConfigError(f"kappa must be finite and > 1 (got {args.kappa!r})")
    # the probe's k scales a direction (k = 0 is the reference) as a float: capped at the float range
    ks = _parse_k_range(args.k_range, list(range(0, 65)), 0, sys.float_info.max)

    def produce() -> str:
        from .ckem import b_kappa, kappa_zero, solve_P, sweep
        from .mabuchi import fit_probe_slope, probe_bump, unboundedness_probe

        X = _surface(args)
        # default kappa: midpoint of (1, kappa0) of the surface the flags name
        kappa = args.kappa if args.kappa is not None else 0.5 * (1.0 + kappa_zero(X))
        sol = solve_P(kappa, b_kappa(kappa), X)
        label = str(sweep([kappa], X)[0].label)
        k_list = [float(k) for k in ks]
        energies = _validated(unboundedness_probe, sol, probe_bump(sol), k_list)
        slope = fit_probe_slope(k_list, energies)
        rows = [[repr(k), repr(E), repr(slope)] for k, E in zip(k_list, energies)]
        lo, hi = energies[k_list.index(min(k_list))], energies[k_list.index(max(k_list))]
        verdict = {"kappa": kappa, "label": label, "diverges": hi < lo - 100.0, "slope": slope}
        return _csv("k,energy,slope_fit", rows) + _json_line(verdict)

    params = {"kappa": args.kappa, "genus": args.genus, "degree": args.degree, "k_list": ks}
    return _cached("mabuchi-probe", params, produce, ".csv", args)


def cmd_quant_balanced(args: argparse.Namespace) -> int:
    from .quantization import ToyModel, balanced_defects, balanced_iterate, round_potential, _BALANCED_TOL

    model = _validated(ToyModel, b0=_parse_b0(args.b0), p=args.p)
    ks = _parse_k_range(args.k_range, [8, 16, 32], 1, _K_MAX)
    tol = _BALANCED_TOL if args.tol is None else args.tol

    def produce() -> str:
        phi0 = round_potential()
        rows = []
        for k in ks:
            res = balanced_iterate(phi0, k, model, tol=tol)
            resid, dev = balanced_defects(res.phi, k, model)
            rows.append([k, res.n_iter, repr(resid), repr(dev)])
        return _csv("k,n_iter,residual,scal_dev", rows)

    return _cached("quant-balanced", {**model._asdict(), "k_list": ks, "tol": tol}, produce, ".csv", args)


def cmd_quant_expansion(args: argparse.Namespace) -> int:
    b0 = _parse_b0(args.b0)
    ks = _parse_k_range(args.k_range, [8, 16, 32, 64], 1, _K_MAX)

    def produce() -> str:
        from .quantization import ToyModel, expansion_check, round_potential

        model = _validated(ToyModel, b0=b0, p=args.p)
        rep = expansion_check(round_potential(), model, ks)
        slopes = [math.nan, *rep.running_slopes()]
        rows = [[k, repr(r), repr(s)] for k, r, s in zip(rep.k_list, rep.residual_sup, slopes)]
        trailer = {"slope": rep.slope, "leading_slope": rep.leading_slope}
        return _csv("k,residual_sup,slope_running", rows) + _json_line(trailer)

    # ToyModel stores b0 and p as given: these are its `_asdict()` and the k list
    return _cached("quant-expansion", {"b0": b0, "p": args.p, "k_list": ks}, produce, ".csv", args)


def cmd_verify(args: argparse.Namespace) -> int:
    tags = args.tags.split(",") if args.tags is not None else None
    params = {"tags": tags, "breach": args.breach}
    results = run_checks(tags=tags, breach=args.breach)
    payload = _csv("name,tag,passed,detail", ([r.name, r.tag, str(r.passed), r.detail] for r in results))
    ok = all(r.passed for r in results)
    _emit(payload, _record(_input_hash("verify", params), "verify", params, False, ok, args.out), args.out)
    return EXIT_OK if ok else EXIT_FAIL


# -- parser ------------------------------------------------------------------
# Each command gets only the flags it reads, so argparse rejects the rest.


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", type=str, default=None, help="payload path (default stdout)")
    sp.add_argument("--no-cache", action="store_true", help="bypass the result cache")


def _add_surface(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--genus", type=int, default=2)
    sp.add_argument("--degree", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kahlerlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"kahlerlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pkappa", help="Futaki-curve sweep: one CSV row per kappa")
    sp.add_argument("--kappa", type=float, default=None)
    sp.add_argument("--kappa-range", type=str, default=None, help="'a:b:n' or 'x,y,z'")
    _add_surface(sp)
    _add_common(sp)
    sp.set_defaults(fn=cmd_pkappa)

    sp = sub.add_parser("kappa0", help="existence threshold kappa0 in closed form (JSON verdict)")
    _add_surface(sp)
    _add_common(sp)
    sp.set_defaults(fn=cmd_kappa0)

    sp = sub.add_parser("mabuchi-probe", help="unboundedness probe: CSV (k,energy,slope_fit) + JSON verdict")
    sp.add_argument("--kappa", type=float, default=None, help="default: midpoint of (1, kappa0)")
    sp.add_argument("--k-range", type=str, default=None, help="'lo:hi' doublings or 'a,b,c'")
    _add_surface(sp)
    _add_common(sp)
    sp.set_defaults(fn=cmd_mabuchi_probe)

    sp = sub.add_parser("quant-balanced", help="balanced-metric iteration scan over k")
    sp.add_argument("--b0", type=str, default="inf", help="weight offset b0 > 0; 'inf' for the unweighted mode")
    sp.add_argument("--p", type=float, default=4.0)
    sp.add_argument("--k-range", type=str, default=None)
    sp.add_argument("--tol", type=float, default=None, help="balanced stopping tolerance (default: balanced_iterate's)")
    _add_common(sp)
    sp.set_defaults(fn=cmd_quant_balanced)

    sp = sub.add_parser("quant-expansion", help="density expansion residual fit over k")
    sp.add_argument("--b0", type=str, default="1", help="weight offset b0 > 0; 'inf' for the unweighted mode")
    sp.add_argument("--p", type=float, default=4.0)
    sp.add_argument("--k-range", type=str, default=None)
    _add_common(sp)
    sp.set_defaults(fn=cmd_quant_expansion)

    sp = sub.add_parser("verify", help="run the invariant suite; exit 1 on any failure")
    sp.add_argument("--tags", type=str, default=None, help="comma list from: numerics,calabi,ckem,mabuchi,quant,functionals")
    sp.add_argument("--breach", type=str, default=None, help="name of one check whose tolerance is made impossible")
    _add_common(sp)
    sp.set_defaults(fn=cmd_verify)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except KahlerLabError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
