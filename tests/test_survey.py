"""Ensemble surveys: determinism, exhaustive mode, abort semantics."""

import dataclasses
import itertools
import json
import threading

import pytest
from click.testing import CliRunner

from trlab.checks import PROVEN_CHECKS, CheckOutcome, applicable_checks, check_suite
from trlab.cli import main
from trlab.errors import CapExceeded, InputError, SurveyViolation
from trlab.gfq import field_new
from trlab.survey import SurveyConfig, config_from_obj, run_survey
import trlab.survey as survey_mod

F2 = field_new(2, 1)


def _cfg(**kw):
    base = dict(ctx=F2, dims=(2, 2, 2), count=6, seed=11, e_max=2)
    base.update(kw)
    return SurveyConfig(**base)


def test_empty_survey(tmp_path):
    out = tmp_path / "s.csv"
    summary = run_survey(_cfg(count=0), out, summary_path=tmp_path / "s.json")
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "# tensor-rank-lab v1"
    assert lines[1].startswith("seed,q,dims,d,a,r,r_exact,g_hat")
    assert len(lines) == 2
    assert summary["instances"] == 0
    assert summary["ratio_r_over_a"] == {"min": None, "mean": None, "max": None}
    assert json.loads((tmp_path / "s.json").read_text())["instances"] == 0


def test_exhaustive_all_trilinear_f2(tmp_path):
    cfg = _cfg(exhaustive=True, count=0)
    out = tmp_path / "x.csv"
    summary = run_survey(cfg, out)
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 256
    max_r = 0
    for row in rows:
        cells = row.split(",")
        a, r = float(cells[4]), int(cells[5])
        assert a <= r + 1e-9
        max_r = max(max_r, r)
    assert max_r == 2
    assert summary["instances"] == 256
    assert summary["ratio_r_over_a"]["min"] >= 1 - 1e-9


def test_survey_deterministic_bytes(tmp_path):
    texts = []
    for run in range(2):
        out = tmp_path / f"r{run}.csv"
        run_survey(_cfg(), out)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_survey_thread_count_invariance(tmp_path):
    blobs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}.csv"
        run_survey(_cfg(count=8), out, workers=workers)
        blobs[workers] = out.read_bytes()
    assert blobs[1] == blobs[4]


def _no_thread(*a, **k):
    raise AssertionError("a thread was started")


def test_survey_starts_no_thread(tmp_path, monkeypatch):
    # every worker count runs in the caller's thread, to the same CSV and
    # summary bytes as one worker
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    paths = {w: (tmp_path / f"w{w}.csv", tmp_path / f"w{w}.json") for w in (1, 2, 4)}
    for w, (out, summary) in paths.items():
        run_survey(_cfg(count=8), out, summary_path=summary, workers=w)
    for w in (2, 4):
        for a, b in zip(paths[1], paths[w]):
            assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("workers", [0, -1])
def test_survey_refuses_no_workers_before_opening_the_csv(tmp_path, workers):
    out = tmp_path / "keep.csv"
    out.write_bytes(b"earlier rows\n")
    with pytest.raises(InputError):
        run_survey(_cfg(), out, workers=workers)
    assert out.read_bytes() == b"earlier rows\n"


def test_survey_floats_are_12_sig_digits(tmp_path):
    out = tmp_path / "f.csv"
    run_survey(_cfg(count=3), out)
    for row in out.read_text().splitlines()[2:]:
        a_cell = row.split(",")[4]
        if "." in a_cell:
            digits = a_cell.replace("-", "").replace(".", "").lstrip("0")
            assert len(digits) <= 12


def _sabotaged(p, **kw):
    """The real report with analytic_le_rank failed."""
    rep = check_suite(p, **kw)
    bad = CheckOutcome("analytic_le_rank", 5.0, 1.0, 1e-9, False, "le", False, "x")
    outcomes = tuple(bad if o.name == "analytic_le_rank" else o for o in rep.outcomes)
    return dataclasses.replace(rep, outcomes=outcomes)


def test_survey_abort_on_proven_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(survey_mod, "check_suite", _sabotaged)
    out = tmp_path / "a.csv"
    with pytest.raises(SurveyViolation) as exc:
        run_survey(_cfg(count=3), out)
    assert exc.value.seed == 11  # the first instance seed
    assert exc.value.check == "analytic_le_rank"
    assert len(out.read_text().splitlines()) == 3  # header x2 + offending row


CAPPED = {"field": {"p": 3, "e": 1}, "dims": [2, 2, 2], "count": 4, "caps": {"search": 20}}


@pytest.mark.parametrize("workers", [1, 2])
def test_survey_keeps_finished_rows_when_an_instance_fails(tmp_path, workers):
    # seeds 0 and 1 are searched within 20 rank tests; seed 2 is not
    out = tmp_path / "c.csv"
    with pytest.raises(CapExceeded):
        run_survey(config_from_obj(CAPPED), out, workers=workers)
    prefix = tmp_path / "p.csv"
    run_survey(config_from_obj({**CAPPED, "count": 2}), prefix)
    assert out.read_bytes() == prefix.read_bytes()
    assert len(out.read_text().splitlines()) == 4  # header x2 + seeds 0 and 1

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(CAPPED))
    cli_out = tmp_path / "cli.csv"
    res = CliRunner().invoke(main, ["survey", str(cfg), "-o", str(cli_out),
                                    "--workers", str(workers)])
    assert res.exit_code == 3
    assert cli_out.read_bytes() == prefix.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_survey_streams_through_a_bounded_window(tmp_path, monkeypatch, workers):
    # 3^8 = 6,561 forms, and the first check_suite call raises: the CSV is
    # open before it runs, and no more than 2 * workers + 1 forms are built
    real_form, real_suite = survey_mod.MultilinearForm, survey_mod.check_suite
    built, calls, out = itertools.count(), itertools.count(), tmp_path / "x.csv"
    opened = []

    def counted_form(*args):
        next(built)
        return real_form(*args)

    def first_call_raises(p, **kw):
        opened.append(out.exists())
        if next(calls) == 0:
            raise CapExceeded("refused", size=None)
        return real_suite(p, **kw)

    monkeypatch.setattr(survey_mod, "MultilinearForm", counted_form)
    monkeypatch.setattr(survey_mod, "check_suite", first_call_raises)
    cfg = SurveyConfig(ctx=field_new(3, 1), dims=(2, 2, 2), count=0, seed=0, e_max=1,
                       exhaustive=True)
    with pytest.raises(CapExceeded):
        run_survey(cfg, out, workers=workers)
    assert next(built) <= 2 * workers + 1
    assert opened and all(opened)
    assert len(out.read_text().splitlines()) <= 3  # header x2 + at most one finished row


@pytest.mark.parametrize("workers", [1, 2])
def test_survey_proven_failure_stops_new_instances(tmp_path, monkeypatch, workers):
    calls = itertools.count()

    def failing(p, **kw):
        next(calls)
        return _sabotaged(p, **kw)

    monkeypatch.setattr(survey_mod, "check_suite", failing)
    with pytest.raises(SurveyViolation) as exc:
        run_survey(_cfg(count=40), tmp_path / "a.csv", workers=workers)
    assert exc.value.seed == 11
    assert next(calls) <= 2 * workers + 1


def test_survey_opens_the_summary_before_any_instance(tmp_path, monkeypatch):
    calls = itertools.count()

    def counted(p, **kw):
        next(calls)
        return check_suite(p, **kw)

    monkeypatch.setattr(survey_mod, "check_suite", counted)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"field": {"p": 3, "e": 1}, "dims": [2, 2, 2], "count": 200}))
    res = CliRunner().invoke(main, ["survey", str(cfg), "-o", str(tmp_path / "s.csv"),
                                    "--summary", str(tmp_path / "missing" / "s.json")])
    assert res.exit_code == 2
    assert next(calls) == 0


def test_exhaustive_survey_refused_past_the_point_cap(tmp_path, monkeypatch):
    # 2^64 forms over F2 at 4x4x4: refused before any form is checked
    calls = itertools.count()

    def counted(p, **kw):
        next(calls)
        raise AssertionError("a form of an oversized exhaustive survey was checked")

    monkeypatch.setattr(survey_mod, "check_suite", counted)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"field": {"p": 2, "e": 1}, "dims": [4, 4, 4],
                               "exhaustive": True}))
    res = CliRunner().invoke(main, ["survey", str(cfg), "-o", str(tmp_path / "s.csv")])
    assert res.exit_code == 3
    assert next(calls) == 0
    # the bound is the survey's own point cap: 2^8 forms at 2x2x2
    _cfg(exhaustive=True, count=0, point_cap=256)
    with pytest.raises(CapExceeded):
        _cfg(exhaustive=True, count=0, point_cap=255)
    with pytest.raises(CapExceeded):
        _cfg(dims=(10 ** 6, 1), exhaustive=True, count=0)


def test_exhaustive_survey_bounded_by_a_lowered_point_cap(tmp_path):
    # caps.points also bounds the exhaustive form count: 3^8 = 6,561 forms
    # over F3 at 2x2x2 pass a point cap of 1000, so the survey is refused
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"field": {"p": 3, "e": 1}, "dims": [2, 2, 2],
                               "exhaustive": True, "caps": {"points": 1000}}))
    res = CliRunner().invoke(main, ["survey", str(cfg), "-o", str(tmp_path / "s.csv")])
    assert res.exit_code == 3
    assert not (tmp_path / "s.csv").exists()


def test_survey_huge_e_max_is_the_depth_cap(tmp_path):
    # F3 2x2x2: (3^e)^4 passes the heuristic point cap for e <= 3 only
    outs = []
    for e_max in (3, 10 ** 30):
        out = tmp_path / f"e{len(outs)}.csv"
        run_survey(config_from_obj({"field": {"p": 3, "e": 1}, "dims": [2, 2, 2],
                                    "count": 3, "e_max": e_max}), out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_config_parsing_and_validation():
    cfg = config_from_obj({
        "field": {"p": 2, "e": 1},
        "dims": [2, 2, 2],
        "count": 4,
        "seed": 7,
        "e_max": 2,
        "caps": {"points": 100000},
    })
    assert cfg.ctx is F2 and cfg.point_cap == 100000 and cfg.d == 3
    with pytest.raises(InputError):
        config_from_obj({"field": {"p": 2, "e": 1}, "dims": [0]})
    with pytest.raises(InputError, match="two slots"):  # the check suite needs two
        config_from_obj({"field": {"p": 3, "e": 1}, "dims": [3], "count": 2})
    with pytest.raises(InputError):
        config_from_obj({"field": {"p": 2, "e": 1}, "dims": [2, 2], "count": -1})
    with pytest.raises(InputError):
        SurveyConfig(ctx=F2, dims=(2, 2, 2), count=1, seed=0,
                     checks=("no_such_check",))


@pytest.mark.parametrize("key,bad", [
    ("count", "5"), ("count", True), ("count", 2.0),
    ("seed", "7"), ("seed", False),
    ("e_max", "2"), ("e_max", 1.5),
    ("workers", None), ("workers", True),
    ("caps.points", "big"), ("caps.points", True),
    ("caps.search", [1]), ("caps.search", 1e6),
])
def test_config_refuses_non_integer_entries(tmp_path, key, bad):
    obj = {"field": {"p": 2, "e": 1}, "dims": [2, 2], "count": 1}
    if key.startswith("caps."):
        obj["caps"] = {key.split(".")[1]: bad}
    else:
        obj[key] = bad
    with pytest.raises(InputError) as exc:
        config_from_obj(obj)
    assert key.split(".")[-1] in str(exc.value)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(obj))
    res = CliRunner().invoke(main, ["survey", str(path), "-o", str(tmp_path / "o.csv")])
    assert res.exit_code == 2


def test_config_refuses_chain_check_at_small_q():
    with pytest.raises(InputError) as exc:
        SurveyConfig(ctx=field_new(3, 1), dims=(2, 2, 2), count=1, seed=0,
                     checks=("rank_le_chain_analytic",))
    assert "q" in str(exc.value)
    # but it is accepted where the constant exists
    SurveyConfig(ctx=field_new(5, 1), dims=(2, 2, 2), count=1, seed=0,
                 checks=("rank_le_chain_analytic",))


def test_survey_check_columns_match_applicability(tmp_path):
    out = tmp_path / "c.csv"
    run_survey(_cfg(count=1), out)
    header = out.read_text().splitlines()[1].split(",")
    assert "check:analytic_le_rank" in header
    assert "check:rank_le_chain_analytic" not in header  # q = 2
    assert "check:rank_le_triple_codim" in header  # d = 3


FIELDS = {2: {"p": 2, "e": 1}, 3: {"p": 3, "e": 1}, 4: {"p": 2, "e": 2},
          5: {"p": 5, "e": 1}, 7: {"p": 7, "e": 1}}


@pytest.mark.parametrize("q", sorted(FIELDS))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_check_columns_and_refusals_follow_applicability(tmp_path, d, q):
    obj = {"field": FIELDS[q], "dims": [2] * d, "count": 0}
    out = tmp_path / "c.csv"
    run_survey(config_from_obj(obj), out)
    header = out.read_text().splitlines()[1].split(",")
    assert [c.removeprefix("check:") for c in header if c.startswith("check:")] \
        == list(applicable_checks(d, q))
    # a proven check outside its rule is refused as invalid input
    cfg = tmp_path / "c.json"
    for name in PROVEN_CHECKS:
        cfg.write_text(json.dumps({**obj, "count": 1, "checks": [name]}))
        res = CliRunner().invoke(main, ["survey", str(cfg), "-o", str(out)])
        assert res.exit_code == (0 if name in applicable_checks(d, q) else 2), res.output


def test_workers_bounded_before_any_thread_or_file(tmp_path, monkeypatch):
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    with pytest.raises(CapExceeded) as exc:
        _cfg(workers=10 ** 6)
    assert exc.value.size == 10 ** 6
    _cfg(workers=survey_mod.WORKER_CAP)
    out = tmp_path / "s.csv"
    with pytest.raises(CapExceeded):  # the override bypasses SurveyConfig
        run_survey(_cfg(), out, workers=survey_mod.WORKER_CAP + 1)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"field": {"p": 2, "e": 1}, "dims": [2, 2], "count": 1}))
    res = CliRunner().invoke(main, ["survey", str(cfg), "-o", str(out), "--workers", "1000000"])
    assert res.exit_code == 3 and isinstance(res.exception, SystemExit), res.output
    assert not out.exists()
