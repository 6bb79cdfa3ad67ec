"""The package's records are immutable NamedTuples: their fields, defaults,
constructor signatures and the named error of each validating one. Also the
values of the bounds and quadrature orders the modules state."""

import inspect
import json
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from kahlerlab import calabi, ckem, cli, functionals, mabuchi, numerics, quantization, verify
from kahlerlab.errors import OutOfDomain

# every verify row's (name, sense, bound), in suite order
CHECK_BOUNDS = [
    ("quad-exactness", "<", 1e-12),
    ("boundary-defects", "<", 1e-9),
    ("c-invariance", "<", 1e-8),
    ("p1-reduction", "<", 1e-13),
    ("futaki-on-curve", "<", 1e-10),
    ("futaki-off-curve", ">", 1e-4),
    ("kappa0-double-root", "<", 1e-8),
    ("el-gradient", "<", 1e-7),
    ("loop-closure", "<", 1e-8),
    ("probe-slope", "<", 0.02),
    ("rho-identity", "<", 1e-12),
    ("trace-identity", "<", 1e-10),
    ("ck-normalization", "<", 1e-13),
    ("fs-hilb-round", "<", 1e-12),
    ("balanced-round", "<", 1e-8),
    ("z-convexity", "<", 1e-9),
    ("z-prime-balanced", "<", 1e-9),
    ("zl-decay", "<", 1.0),
]
_SURFACE = dict(genus=2, degree=1, kappa=1.5, base_scal=-4.0)
_X = calabi.RuledSurfaceData(**_SURFACE)
_H = quantization.HermitianNorms(k=1, log_h=[0.0, 0.0])
_SWEEP = dict(kappa=1.5, b_kappa=2.6, c=1.0, futaki_residual=0.0, min_P=1.4, argmin_z=0.1, label=ckem.ClassLabel.EXISTS_CKEM)

# record, fields, defaults, valid arguments, [(bad arguments, error), ...] or None
RECORDS = [
    (
        numerics.QuadratureRule,
        ("nodes", "weights"),
        {},
        dict(nodes=[-1, 1], weights=[1, 1]),
        [(dict(nodes=[1, -1]), ValueError), (dict(weights=[1, 1, 1]), ValueError)],
    ),
    (
        calabi.RuledSurfaceData,
        ("genus", "degree", "kappa", "base_scal"),
        {},
        _SURFACE,
        [(dict(kappa=1.0), OutOfDomain), (dict(base_scal=0.0), OutOfDomain)],
    ),
    (
        calabi.KillingData,
        ("b", "p"),
        {"p": 4.0},
        dict(b=2.0),
        [(dict(b=1.0), OutOfDomain), (dict(p=math.nan), OutOfDomain), (dict(p=-math.inf), OutOfDomain)],
    ),
    (calabi.BoundaryReport, ("passes", "defects"), {}, dict(passes=True, defects=(0.0,) * 4), None),
    (
        ckem.PKappaSolution,
        ("P", "c", "futaki_residual", "kappa", "b", "surface"),
        {},
        dict(P=Polynomial([1.0]), c=1.0, futaki_residual=0.0, kappa=1.5, b=2.6, surface=_X),
        None,
    ),
    (ckem.SweepRow, tuple(_SWEEP), {}, _SWEEP, None),
    (
        mabuchi.BumpDirection,
        ("center", "radius", "amplitude"),
        {"amplitude": 1.0},
        dict(center=0.0, radius=0.5),
        [(dict(radius=0.0), OutOfDomain)],
    ),
    (mabuchi.PathFamily, ("kappa", "jets", "thetas"), {}, dict(kappa=1.5, jets=((), ()), thetas=()), None),
    (quantization.ToyModel, ("b0", "p"), {"b0": math.inf, "p": 4.0}, {}, [(dict(b0=0), OutOfDomain)]),
    (quantization.SpectrumData, ("lam", "lam_p"), {}, dict(lam=np.ones(2), lam_p=np.ones(2)), None),
    (
        quantization.HermitianNorms,
        ("k", "log_h"),
        {},
        dict(k=2, log_h=[0, 1, 2]),
        [(dict(log_h=[0, 1]), OutOfDomain)],
    ),
    (
        quantization.ExpansionReport,
        ("k_list", "residual_sup", "slope", "leading_residual_sup", "leading_slope"),
        {},
        dict(k_list=(8, 16), residual_sup=(4.0, 1.0), slope=-2.0, leading_residual_sup=(2.0, 1.0), leading_slope=-1.0),
        None,
    ),
    (
        quantization.BalancedResult,
        ("H", "phi", "converged", "history", "n_iter"),
        {},
        dict(H=_H, phi=quantization.round_potential(), converged=True, history=(0.0,), n_iter=1),
        None,
    ),
    (functionals.AlmostBalancedReport, ("k_list", "eps_hat"), {}, dict(k_list=(8,), eps_hat=(0.0,)), None),
    (verify.CheckResult, ("name", "tag", "passed", "detail"), {}, dict(name="n", tag="t", passed=True, detail=""), None),
]


@pytest.mark.parametrize("cls, fields, defaults, args, bad", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, defaults, args, bad):
    assert issubclass(cls, tuple)
    assert cls._fields == fields and cls._field_defaults == defaults
    # the constructor (a validating record's own __new__) takes the same
    # fields in the same order, with the same defaults
    params = inspect.signature(cls).parameters
    assert tuple(params) == fields
    assert {n: p.default for n, p in params.items() if p.default is not p.empty} == defaults
    rec = cls(**args)
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    for name, value in args.items():
        got = getattr(rec, name)
        if isinstance(value, list):
            assert isinstance(got, np.ndarray) and got.dtype == float and got.tolist() == value
        else:
            assert got is value
    for overrides, error in bad or ():
        with pytest.raises(error):
            cls(**{**args, **overrides})


def test_the_run_record_is_one_json_object_with_eight_keys():
    # the CLI keeps no record class: the record is a JSON object whose keys
    # climix.py and the tests read
    rec = json.loads(cli._record("h", "kappa0", {"genus": 2, "degree": 1}, False, True, None))
    assert sorted(rec) == sorted(
        ("input_hash", "version", "created_utc", "command", "params", "cache_hit", "passed", "out_path")
    )
    assert (rec["input_hash"], rec["command"], rec["params"]) == ("h", "kappa0", {"genus": 2, "degree": 1})
    assert (rec["cache_hit"], rec["passed"], rec["out_path"]) == (False, True, None)


def test_equal_toy_models_share_the_c_k_constant_cache():
    # ToyModel keys lru_caches: equal models compare and hash equal, so the
    # second of two equal models hits the first one's entry
    a, b = quantization.ToyModel(1.25, 3.5), quantization.ToyModel(b0=1.25, p=3.5)
    assert a is not b and a == b and hash(a) == hash(b)
    before = quantization.c_k_constant.cache_info()
    assert quantization.c_k_constant(5, a) == quantization.c_k_constant(5, b)
    after = quantization.c_k_constant.cache_info()
    assert after.hits - before.hits >= 1 and after.hits + after.misses - before.hits - before.misses == 2


def test_bounds_and_orders_keep_their_values():
    # each bound and quadrature order lives beside its one reader; a value
    # that changes in a move fails here
    assert [(name, sense, bound) for name, _, _, sense, bound in verify._CHECKS] == CHECK_BOUNDS
    assert (ckem._KAPPA_ZERO_TOL, ckem._CLASSIFY_TOL) == (1e-8, 1e-8)
    assert (quantization._BALANCED_TOL, mabuchi._U2_BOUNDARY) == (1e-10, 1e-6)
    assert (len(mabuchi._UDOT_Z), mabuchi._Z_ORDER, mabuchi._PATH_ORDER) == (128, 256, 64)
    assert len(quantization._mu_rule().nodes) == 256
