"""Front-end plumbing: dispatch,validation, records, caching, exit codes."""

import json
import math
import os
import shlex
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import kahlerlab
import kahlerlab.cli as cli
from kahlerlab import ckem, quantization, verify
from kahlerlab.calabi import RuledSurfaceData
from kahlerlab.cli import build_parser, main
from kahlerlab.ckem import b_kappa, interior_min, kappa_zero, solve_P, sweep
from kahlerlab.errors import OutOfDomain
from kahlerlab.quantization import ToyModel

SWEEP_HEADER = "kappa,b_kappa,c,futaki_residual,min_P,argmin_z,label"


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_pkappa_single_row_matches_library(workdir, capsys):
    code = main(["pkappa", "--kappa", "1.25", "--no-cache"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == SWEEP_HEADER
    row = sweep([1.25])[0]
    fields = out[1].split(",")
    assert float(fields[0]) == 1.25
    assert float(fields[1]) == pytest.approx(b_kappa(1.25), rel=1e-15)
    assert float(fields[2]) == pytest.approx(row.c, rel=1e-15)
    assert fields[6] == "ExistsCKEM"


def test_pkappa_rejects_bad_kappa(workdir, capsys):
    assert main(["pkappa", "--kappa", "0.5", "--no-cache"]) == 2
    assert main(["pkappa", "--no-cache"]) == 2  # neither --kappa nor range


def test_pkappa_rejects_kappa_with_kappa_range(workdir, capsys):
    # both flags at once is a config error, not a silent choice of one
    assert main(["pkappa", "--kappa", "1.3", "--kappa-range", "1.5,2", "--no-cache"]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and "exactly one of --kappa and --kappa-range" in err


@pytest.mark.parametrize("kappa_range", ["0.5,nan", "nan,0.5", "1.5,nan,0.5,inf"])
def test_pkappa_rejects_a_kappa_at_most_one_in_any_position(kappa_range, workdir, capsys):
    # a nan before it must not hide it: the check reads every kappa
    assert main(["pkappa", "--kappa-range", kappa_range, "--no-cache"]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and "all kappa values must be > 1" in err


@pytest.mark.parametrize("bad", ["1e200"])
def test_pkappa_writes_an_error_row_for_a_kappa_it_cannot_solve(bad, workdir, capsys):
    assert main(["pkappa", "--kappa-range", f"1.5,{bad}", "--no-cache"]) == cli.EXIT_OK
    header, good, err = capsys.readouterr().out.splitlines()
    assert header == SWEEP_HEADER and good.endswith(",ExistsCKEM")
    assert err == f"{float(bad)!r},nan,nan,nan,nan,nan,Error:OutOfDomain"


@pytest.mark.parametrize(
    "flag", ["--kappa=nan", "--kappa=inf", "--kappa-range=1.5,nan,inf", "--kappa-range=1.5,inf", "--kappa-range=1.5,nan"]
)
def test_pkappa_rejects_a_kappa_that_is_not_finite(flag, workdir, capsys):
    # nan passes a test of k <= 1, so the check reads 1 < k < inf: a config
    # error naming the domain, not an Error:OutOfDomain row and exit 0
    assert main(["pkappa", flag, "--no-cache"]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and "all kappa values must be > 1 and finite" in err


def test_kappa0_record_and_cache_roundtrip(workdir):
    out1 = workdir / "a.json"
    out2 = workdir / "b.json"
    assert main(["kappa0", "--out", str(out1)]) == 0
    assert main(["kappa0", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rec1 = json.loads((workdir / "a.json.record.json").read_text())
    rec2 = json.loads((workdir / "b.json.record.json").read_text())
    assert rec1["input_hash"] == rec2["input_hash"]
    assert rec1["cache_hit"] is False and rec2["cache_hit"] is True
    verdict = json.loads(out1.read_text())
    assert verdict["label_below"] == "NegativeSomewhere"
    assert verdict["label_above"] == "ExistsCKEM"
    assert 1.0 < verdict["kappa0"] < 1.1


def test_kappa0_tol_below_the_reached_min_P_fails(workdir, capsys, monkeypatch):
    # ckem._KAPPA_ZERO_TOL bounds |min P| at the returned kappa0; below what it
    # reaches on (5, 1) the command exits with SearchFailed's code
    X = RuledSurfaceData.standard(1.5, genus=5, degree=1)
    k0 = kappa_zero(X)
    flags = ["kappa0", "--genus", "5", "--degree", "1", "--no-cache"]
    capsys.readouterr()
    monkeypatch.setattr(ckem, "_KAPPA_ZERO_TOL", 1e-13)
    assert main(flags) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["kappa0"] == k0
    reached = abs(interior_min(solve_P(k0, b_kappa(k0), X).P)[0])
    monkeypatch.setattr(ckem, "_KAPPA_ZERO_TOL", math.nextafter(reached, -math.inf))
    assert main(flags) == cli.EXIT_FAIL
    assert capsys.readouterr().err.startswith("SearchFailed: ")


def test_quant_expansion_header_and_payload(workdir, capsys):
    code = main(
        ["quant-expansion", "--b0", "1", "--p", "4", "--k-range", "8,12,16,24", "--no-cache"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,residual_sup,slope_running"
    assert len(lines) == 6  # header + 4 rows + json trailer
    tail = json.loads(lines[-1])
    assert -2.3 < tail["slope"] < -1.7


@pytest.mark.parametrize("k_range", ["8,8,8,8", "8,16,32"])
def test_quant_expansion_needs_four_distinct_k(k_range, workdir, capsys):
    assert main(["quant-expansion", "--k-range", k_range, "--no-cache"]) == cli.EXIT_CONFIG
    assert "4 distinct k" in capsys.readouterr().err


def test_quant_balanced_round_start(workdir, capsys):
    code = main(
        ["quant-balanced", "--b0", "inf", "--p", "1", "--k-range", "4,8", "--no-cache"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,n_iter,residual,scal_dev"
    for line in lines[1:]:
        k, n_iter, resid, dev = line.split(",")
        assert int(n_iter) <= 2
        assert float(resid) < 1e-10


def test_quant_balanced_rejects_bad_b0(workdir):
    assert main(["quant-balanced", "--b0", "-2", "--no-cache"]) == 2
    assert main(["quant-balanced", "--b0", "what", "--no-cache"]) == 2


def test_quant_commands_reject_b0_zero(workdir, capsys):
    # f = mu + b0 vanishes at mu = 0, where f^{-(p+1)} is not integrable
    for cmd in ("quant-balanced", "quant-expansion"):
        assert main([cmd, "--b0", "0", "--no-cache"]) == 2
        assert "b0 must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["quant-expansion", "--b0", "1e16"], ["quant-balanced", "--b0", "1e17", "--k-range", "8"]])
def test_quant_commands_reject_a_b0_that_absorbs_one(argv, workdir, capsys):
    # b0 + 1 == b0 in floating point makes the class constant's integral over
    # [b0, b0 + 1] vanish; it divided by zero
    assert main([*argv, "--no-cache"]) == cli.EXIT_CONFIG
    assert "b0 + 1 > b0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["quant-balanced", "--b0", "1e-80", "--k-range", "8"],
        ["quant-balanced", "--b0", "0.5", "--p", "2000", "--k-range", "8"],
        ["quant-expansion", "--b0", "1e-320"],
        ["quant-expansion", "--b0", "1e-62"],
        ["quant-expansion", "--b0", "0.5", "--p", "1020"],
    ],
)
def test_weight_data_whose_powers_overflow_is_out_of_domain(argv, workdir, capsys):
    # a power of f = mu + b0 in the class constant or of an eigenvalue
    # lambda_j in lambda_j(p) overflows a float; the failure names (b0, p)
    # instead of escaping as an OverflowError or a numpy RuntimeWarning
    assert main([*argv, "--no-cache"]) == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("OutOfDomain: ") and "(b0, p)" in err


@pytest.mark.parametrize("b0, p", [("1e3", "120"), ("1e15", "30")])
def test_weight_data_whose_powers_underflow_is_out_of_domain(b0, p, workdir, capsys):
    # the class constant's powers of f underflow to 0, where it would divide
    # 0 by 0; the failure names (b0, p) instead of escaping as a
    # ZeroDivisionError
    assert main(["quant-expansion", "--b0", b0, "--p", p, "--no-cache"]) == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("OutOfDomain: ") and "underflows to 0 at (b0, p)" in err


@pytest.mark.parametrize(
    "p, how",
    [("-1e308", "overflows a float at (b0, p) = (1.0, -1e+308)"), ("1e155", "underflows to 0 at (b0, p) = (1.0, 1e+155)")],
    ids=["p=-1e308", "p=1e155"],
)
def test_expansion_names_the_power_error_before_forming_scal_p(p, how, workdir, capsys):
    # eigenvalues' power gate runs before Scal_p and f^{-(p+1)} (Scal_p - c)
    # are formed, so no numpy RuntimeWarning (an error under the test
    # settings) comes before the named error
    assert main(["quant-expansion", "--b0", "1", f"--p={p}", "--no-cache"]) == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == "" and err == f"OutOfDomain: a power of f {how}\n"


def test_weights_whose_powers_underflow_name_the_underflow(workdir, capsys):
    # 2^-1099 underflows to 0 in lambda_k^{1-p}; the failure is the weight
    # data's, not a k too small for lambda(p) > 0
    assert main(["quant-expansion", "--b0", "1", "--p", "1100", "--no-cache"]) == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == "" and err == "OutOfDomain: a power of f underflows to 0 at (b0, p) = (1.0, 1100.0)\n"


_RECORD_FAULTS = [
    (["kappa0", "--genus", "1"], partial(RuledSurfaceData.standard, 1.5, genus=1)),
    (["pkappa", "--kappa", "1.5", "--degree", "0"], partial(RuledSurfaceData.standard, 1.5, degree=0)),
    (["mabuchi-probe", "--degree", "0"], partial(RuledSurfaceData.standard, 1.5, degree=0)),
    # 4(1 - genus)/degree overflows a float when its int converts
    (["kappa0", "--degree", str(10**400)], partial(RuledSurfaceData.standard, 1.5, degree=10**400)),
    (["kappa0", "--genus", str(10**400)], partial(RuledSurfaceData.standard, 1.5, genus=10**400)),
    (["quant-expansion", "--p", "nan"], partial(ToyModel, b0=1.0, p=math.nan)),
    (["quant-balanced", "--p", "inf"], partial(ToyModel, p=math.inf)),
]


@pytest.mark.parametrize("argv, build", [pytest.param(a, b, id=" ".join(a)) for a, b in _RECORD_FAULTS])
def test_a_record_rejects_its_input_as_a_config_error(argv, build, workdir, capsys):
    # the rule lives on the record that enforces it; the CLI passes the
    # record's message on and exits 2, with no traceback
    with pytest.raises(OutOfDomain) as exc:
        build()
    assert main([*argv, "--no-cache"]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: {exc.value}\n"


def test_kappa0_names_s_C_when_kappa0_rounds_to_one(workdir, capsys):
    # an admissible surface whose kappa0 - 1 is below float resolution: the
    # solver's failure (exit 1), named by its cause, not by b_kappa's domain
    assert main(["kappa0", "--degree", str(10**8), "--no-cache"]) == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("OutOfDomain: kappa0 rounds to 1: ") and "s_C = -4e-08" in err


def test_kappa0_names_the_overflow_of_q_at_huge_s_C(workdir, capsys):
    # genus 10^300: q overflows a float near its root, and the command says
    # so (exit 1), where it said that kappa0 rounds to 1
    assert main(["kappa0", "--genus", "1" + "0" * 300, "--no-cache"]) == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("OutOfDomain: ") and "overflows a float" in err and "rounds to 1" not in err


def test_kappa0_names_the_overflow_of_the_closed_form(workdir, capsys):
    # genus 10^235: kappa_zero returns kappa0 ~ 9.4e77, but the sweep's closed
    # form overflows there; the command names the overflow (exit 1), where it
    # said that kappa must be finite and > 1
    assert main(["kappa0", "--genus", "1" + "0" * 235, "--no-cache"]) == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("OutOfDomain: the closed form overflows a float at kappa = ")
    assert "s_C = -4e+235" in err and "need kappa finite" not in err


@pytest.mark.parametrize("kappa_range", ["1.5:inf:3", "-inf:2:3", "1.5:nan:3"])
def test_pkappa_rejects_a_range_with_an_endpoint_that_is_not_finite(kappa_range, workdir, capsys):
    # linspace would turn 0 * inf into a nan kappa where the range names 1.5
    assert main(["pkappa", f"--kappa-range={kappa_range}", "--no-cache"]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and "needs finite a and b" in err


@pytest.mark.parametrize("n", [cli._KAPPA_RANGE_MAX + 1, 10**11])
def test_pkappa_rejects_a_range_past_the_cap(n, workdir, capsys):
    # 10^11 values would ask linspace for 745 GiB
    assert main(["pkappa", f"--kappa-range=1.1:1.2:{n}", "--no-cache"]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and f"takes n <= {cli._KAPPA_RANGE_MAX}" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_quant_balanced_rejects_a_tol_that_is_not_finite_and_positive(tol, workdir, capsys):
    assert main(["quant-balanced", "--tol", tol, "--k-range", "8", "--no-cache"]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and "tol must be finite and positive" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pkappa", "--kappa-range", ","], "empty kappa range"),
        (["pkappa", "--kappa-range", "1:2:x"], "bad kappa range '1:2:x': "),
        (["mabuchi-probe", "--k-range", "0:8"], "bad k range '0:8': 'lo:hi' doubles lo, which must be >= 1"),
        (["quant-expansion", "--k-range", "a:b"], "bad k range 'a:b': "),
        # g = T(x) - x rounds at about eps max|log h|: iterated, this tol takes all 500 evaluations
        (["quant-balanced", "--k-range", "256", "--tol", "1e-15"], "tol=1e-15 at k=256 is not above the balanced step's rounding floor"),
    ],
    ids=["empty-kappa-range", "kappa-range-count", "k-range-lo", "k-range-ints", "tol-floor"],
)
def test_a_flag_the_command_cannot_read_is_a_named_config_error(argv, message, workdir, capsys):
    assert main([*argv, "--no-cache"]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["mabuchi-probe", "--k-range", "4:2"], ["quant-balanced", "--k-range", "8:4"]])
def test_an_empty_doubling_range_is_named_as_such(argv, workdir, capsys):
    assert main([*argv, "--no-cache"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: empty k range\n"


@pytest.mark.parametrize("command", ["mabuchi-probe", "quant-balanced", "quant-expansion"])
def test_an_empty_k_range_is_not_the_default(command, workdir, capsys):
    # only a missing --k-range means the command's default list
    assert main([command, "--k-range=", "--no-cache"]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", "config error: empty k range\n")


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_out_to_a_path_that_cannot_be_written_is_a_config_error(target, workdir, capsys):
    path = str(workdir / target)
    assert main(["kappa0", "--out", path, "--no-cache"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write --out ") and repr(path) in err
    assert err.count("\n") == 1


def test_verify_exit_codes(workdir, capsys):
    assert main(["verify", "--tags", "numerics", "--no-cache"]) == 0
    capsys.readouterr()
    assert main(["verify", "--tags", "numerics", "--breach", "quad-exactness", "--no-cache"]) == 1
    capsys.readouterr()
    assert main(["verify", "--tags", "bogus", "--no-cache"]) == 2
    assert main(["verify", "--breach", "bogus", "--no-cache"]) == 2
    capsys.readouterr()
    # a breach the selected tags leave out would never run: rejected, not ignored
    assert main(["verify", "--tags", "numerics", "--breach", "futaki-off-curve", "--no-cache"]) == 2
    assert "'futaki-off-curve' has tag 'ckem'" in capsys.readouterr().err


def test_verify_rejects_an_empty_tag_list(workdir, capsys):
    # '' is one unknown tag, as 'bogus' is, not the whole suite
    assert main(["verify", "--tags", "", "--no-cache"]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err == "config error: unknown tags ['']\n"


def test_a_check_that_raises_exits_1_under_its_own_error_name(workdir, capsys, monkeypatch):
    # a numerical failure inside a check is not a config error: an
    # OutOfDomain raised by a check exits 1 and names itself
    def failing() -> float:
        raise OutOfDomain("a check left its domain")

    monkeypatch.setattr(verify, "_CHECKS", (("failing", "numerics", failing, "<", 1.0),))
    assert main(["verify", "--no-cache"]) == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == "" and err == "OutOfDomain: a check left its domain\n"


def test_quant_balanced_default_tol_is_balanced_iterates(workdir, capsys):
    # the parser leaves --tol unset (building it imports no quantization);
    # the command resolves it, so the record and the cache key hold the float
    def record(*flags):
        assert main(["quant-balanced", "--k-range", "8", *flags, "--out", str(workdir / "b.csv")]) == 0
        return json.loads((workdir / "b.csv.record.json").read_text())

    assert build_parser().parse_args(["quant-balanced"]).tol is None
    default, explicit = record(), record("--tol", "1e-10")
    assert default["params"]["tol"] == quantization._BALANCED_TOL == 1e-10
    assert explicit["input_hash"] == default["input_hash"] and explicit["cache_hit"]


def test_verify_runs_the_run_checks_bound_in_cli(workdir, capsys, monkeypatch):
    # a wrapper set on cli.run_checks (a per-tag tracer sets one) is the
    # function the verify command calls
    calls = []
    monkeypatch.setattr(cli, "run_checks", lambda tags, breach: calls.append((tags, breach)) or [])
    assert main(["verify", "--tags", "numerics", "--no-cache"]) == cli.EXIT_OK
    assert calls == [(["numerics"], None)]
    assert capsys.readouterr().out == "name,tag,passed,detail\n"


def test_cli_binds_the_package_modules_lazily():
    # a module the cli bound comes back as it is: the checks read the same
    # functions as every other caller
    assert (verify.calabi, verify.ckem, verify.mabuchi) == (kahlerlab.calabi, ckem, kahlerlab.mabuchi)
    assert (verify.quantization, verify.functionals) == (quantization, kahlerlab.functionals)
    assert cli.verify is verify and cli._lazy("ckem") is ckem


def test_quant_balanced_inverts_one_potential_on_the_sup_grid_per_k(workdir, capsys, monkeypatch):
    # the residual and the scal deviation both read one jet on sup_grid() of
    # the FS potential the iteration returns, not of a second, equal one
    # built from its norms
    sampled = []
    jet = quantization._TNativePotential.jet

    def spy(phi, u):
        if np.array_equal(u, quantization.sup_grid()):
            sampled.append(phi)
        return jet(phi, u)

    monkeypatch.setattr(quantization._TNativePotential, "jet", spy)
    assert main(["quant-balanced", "--b0", "inf", "--p", "1", "--k-range", "8,16", "--no-cache"]) == 0
    assert len(sampled) == 2 and len({id(phi) for phi in sampled}) == 2
    assert all(isinstance(phi, quantization.FSPotential) for phi in sampled)


def test_mabuchi_probe_explicit_kappa(workdir, capsys):
    code = main(
        ["mabuchi-probe", "--kappa", "1.0135", "--k-range", "0,1,2,4,8,16", "--no-cache"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,energy,slope_fit"
    verdict = json.loads(lines[-1])
    assert verdict["label"] == "NegativeSomewhere"
    assert verdict["slope"] < 0.0


def test_mabuchi_probe_default_kappa_follows_the_surface(workdir, capsys):
    # the default kappa is the midpoint of (1, kappa0) of the surface the
    # flags name; kappa0(2, 2) = 1.0102 lies below that midpoint for (2, 1)
    assert main(["mabuchi-probe", "--degree", "2", "--no-cache"]) == 0
    lines = capsys.readouterr().out.splitlines()
    verdict = json.loads(lines[-1])
    assert verdict["kappa"] < kappa_zero(RuledSurfaceData.standard(1.5, degree=2))
    assert verdict["label"] == "NegativeSomewhere"
    energies = [float(line.split(",")[1]) for line in lines[1:-1]]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_mabuchi_probe_cache_key_is_the_k_list_as_given(workdir):
    def run(name, k_range):
        assert main(["mabuchi-probe", "--kappa", "1.005", "--k-range", k_range, "--out", str(workdir / name)]) == 0
        rows = (workdir / name).read_text().splitlines()[1:-1]
        return json.loads((workdir / f"{name}.record.json").read_text()), [row.split(",")[0] for row in rows]

    first, ks0 = run("a.csv", "0,1,2,4,8,16")
    second, ks1 = run("b.csv", "1,1,2,4,8,16")
    tail = ["2.0", "4.0", "8.0", "16.0"]
    assert ks0 == ["0.0", "1.0"] + tail and ks1 == ["1.0", "1.0"] + tail
    assert not second["cache_hit"]
    assert second["input_hash"] != first["input_hash"]


def test_mabuchi_probe_verdict_does_not_depend_on_the_order_of_k(workdir):
    # the verdict compares the energies at the largest and the smallest k,
    # not the last and the first row; the cache key stays the list as given
    def run(name, k_range):
        assert main(["mabuchi-probe", "--k-range", k_range, "--out", str(workdir / name)]) == 0
        lines = (workdir / name).read_text().splitlines()
        energies = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:-1]}
        return json.loads(lines[-1]), energies, json.loads((workdir / f"{name}.record.json").read_text())

    fwd, e_fwd, rec_fwd = run("fwd.csv", "0,1,2,4,8,16,32,64")
    rev, e_rev, rec_rev = run("rev.csv", "64,32,16,8,4,2,1,0")
    assert e_fwd == e_rev and e_fwd["64.0"] < e_fwd["0.0"] - 100.0
    assert fwd == rev and fwd["diverges"] is True
    assert not rec_rev["cache_hit"] and rec_rev["input_hash"] != rec_fwd["input_hash"]


def test_mabuchi_probe_rejects_a_tail_too_short_to_fit(workdir, capsys):
    # the slope fit has three unknowns; the tail k >= median of 0,1,2,4,8
    # holds only k = 4 and 8
    assert main(["mabuchi-probe", "--kappa", "1.0135", "--k-range", "0,1,2,4,8", "--no-cache"]) == 2
    assert "3 distinct k" in capsys.readouterr().err


@pytest.mark.parametrize("kappa", ["inf", "nan"])
def test_mabuchi_probe_rejects_a_kappa_that_is_not_finite_and_above_one(kappa, workdir, capsys):
    assert main(["mabuchi-probe", "--kappa", kappa, "--no-cache"]) == cli.EXIT_CONFIG
    assert "kappa must be finite and > 1" in capsys.readouterr().err


def test_mabuchi_probe_rejects_negative_k(workdir, capsys):
    assert main(["mabuchi-probe", "--kappa", "1.005", "--k-range=-1,2", "--no-cache"]) == 2
    assert "k values must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("k_range", [f"0,2,4,{2**1100}", f"1:{2**1100}"], ids=["list", "doubling"])
def test_mabuchi_probe_rejects_k_past_the_float_range(k_range, workdir, capsys):
    # the probe takes k as a float: an OverflowError traceback before
    assert main(["mabuchi-probe", "--k-range", k_range, "--no-cache"]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: k values must be <= {sys.float_info.max}")
    # the 332 digits of 2**1100 are counted, not printed
    assert err.endswith(" (got 135829... (332 digits))\n") and len(err) < 100


def test_mabuchi_probe_names_an_energy_past_the_float_range(workdir, capsys):
    # 2**1023 is below the cap, but k times the probe's terms overflows: a
    # config error naming that k, with no numpy warning and no slope-fit error
    assert main(["mabuchi-probe", "--k-range", f"0,2,4,{2**1023}", "--no-cache"]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert (out, err) == ("", "config error: the probe energy is not finite at k = 8.98847e+307\n")


def test_cache_key_follows_the_source_fingerprint(workdir, monkeypatch):
    def run(name):
        assert main(["pkappa", "--kappa", "1.25", "--out", str(workdir / name)]) == 0
        return json.loads((workdir / f"{name}.record.json").read_text())

    first, second = run("a.csv"), run("b.csv")
    assert not first["cache_hit"] and second["cache_hit"]
    assert second["input_hash"] == first["input_hash"]
    monkeypatch.setattr(cli, "source_fingerprint", lambda: "edited source")
    third = run("c.csv")
    assert not third["cache_hit"]
    assert third["input_hash"] != first["input_hash"]
    assert (workdir / "c.csv").read_bytes() == (workdir / "a.csv").read_bytes()


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines() if line.startswith("kahlerlab ")]
    assert len(lines) == 6
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_cli_import_loads_no_scipy():
    src = str(Path(kahlerlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import kahlerlab.cli; import sys; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_mabuchi_probe_default_bump_fits_a_narrow_negative_region(workdir, capsys):
    # at the default kappa of (2, 5) P < 0 only on (-0.988, -0.820) around
    # the argmin -0.879, narrower than a bump of radius 0.08
    assert main(["mabuchi-probe", "--degree", "5", "--no-cache"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1])["label"] == "NegativeSomewhere"
    energies = [float(line.split(",")[1]) for line in lines[1:-1]]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("k_range", ["0:64", "-3:64"])
def test_k_range_rejects_lo_below_one(k_range):
    # a fresh process with a time and memory limit: doubling lo <= 0 never
    # passes hi, and the k list would grow until one of them stops it
    src = str(Path(kahlerlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "kahlerlab.cli", "quant-expansion", f"--k-range={k_range}", "--no-cache"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 2
    assert "k range" in proc.stderr


@pytest.mark.parametrize("command", ["quant-balanced", "quant-expansion"])
def test_a_tensor_power_above_the_cap_is_a_config_error(command):
    # a fresh process with a memory limit: a (k+1)^2 Jacobian at k = 100000
    # would take ~80 GB; the cap names itself before anything is allocated
    src = str(Path(kahlerlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "kahlerlab.cli", command, "--k-range=8,100000", "--no-cache"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"config error: k values must be <= {cli._K_MAX} (got 100000)\n"


def test_the_k_cap_binds_the_tensor_power_only(monkeypatch):
    # _parse_k_range checks each command's floor and cap: the quantized
    # commands' k is a tensor power in [1, _K_MAX]; the probe's k scales a
    # direction (k = 0 is the reference) and is capped only by the float
    # range, as the probe takes it as a float
    assert cli._K_MAX == 4096
    parse = cli._parse_k_range
    assert parse(str(cli._K_MAX), [8], 1, cli._K_MAX) == [cli._K_MAX]
    with pytest.raises(cli.ConfigError, match="k values must be <= 4096"):
        parse(str(cli._K_MAX + 1), [8], 1, cli._K_MAX)
    with pytest.raises(cli.ConfigError, match=r"\(got 12345678901234567890\)$"):  # 20 digits print whole
        parse("8,12345678901234567890", [8], 1, cli._K_MAX)
    assert parse(f"0,{10 * cli._K_MAX}", [], 0, math.inf) == [0, 10 * cli._K_MAX]
    # each command hands it its own default, floor and cap
    calls = []
    monkeypatch.setattr(cli, "_parse_k_range", lambda text, *rest: calls.append(rest) or parse(text, *rest))
    for command in ("quant-balanced", "quant-expansion", "mabuchi-probe"):
        assert main([command, "--k-range", "4:2", "--no-cache"]) == cli.EXIT_CONFIG
    assert calls == [([8, 16, 32], 1, cli._K_MAX), ([8, 16, 32, 64], 1, cli._K_MAX), (list(range(65)), 0, sys.float_info.max)]


@pytest.mark.parametrize(
    "argv",
    [
        *([cmd, "--seed", "1"] for cmd in ("pkappa", "kappa0", "mabuchi-probe", "quant-balanced", "quant-expansion", "verify")),
        *([cmd, "--tol", "1e-9"] for cmd in ("pkappa", "kappa0", "mabuchi-probe", "quant-expansion", "verify")),
        *([cmd, flag, "2"] for cmd in ("quant-balanced", "quant-expansion", "verify") for flag in ("--genus", "--degree")),
    ],
    ids=" ".join,
)
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
