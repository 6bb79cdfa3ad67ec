import pytest

from kahlerlab.cli import main
from kahlerlab.errors import ConfigError
from kahlerlab.verify import ALL_TAGS, run_checks


def test_tag_subsets_and_csv_shape(tmp_path, monkeypatch, capsys):
    results = run_checks(tags=["numerics", "calabi"])
    assert results and all(r.tag in ("numerics", "calabi") for r in results)
    assert all(r.passed for r in results)
    monkeypatch.chdir(tmp_path)
    outs = []
    for _ in range(2):
        assert main(["verify", "--tags", "numerics,calabi", "--no-cache"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert lines[0] == "name,tag,passed,detail"
    assert len(lines) == len(results) + 1


def test_breach_fails_exactly_one_check():
    # the breached bound is -1 for an upper bound and inf for a lower one
    for tag, name, bound in (("numerics", "quad-exactness", "bound<-1.0e+00"), ("ckem", "futaki-off-curve", "bound>inf")):
        results = run_checks(tags=[tag], breach=name)
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == [name]
        assert failed[0].detail.endswith(bound)


def test_unknown_tag_and_breach_rejected():
    with pytest.raises(ConfigError, match="unknown tags"):
        run_checks(tags=["nope"])
    with pytest.raises(ConfigError, match="unknown breach target"):
        run_checks(breach="nope")
    with pytest.raises(ConfigError, match="has tag 'ckem'"):
        run_checks(tags=["numerics"], breach="futaki-off-curve")


def test_all_tags_covered_by_registry():
    results = run_checks(tags=list(ALL_TAGS))
    assert {r.tag for r in results} == set(ALL_TAGS)
