"""CLI surface: subcommands, JSON flows, exit codes."""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from trlab.cli import main
from trlab.forms import gen_random, tensor_to_obj
from trlab.gfq import field_new
from trlab.linalg import Matrix
from trlab.pencils import Pencil, pencil_to_obj

runner = CliRunner()


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def test_gen_and_rank_roundtrip(tmp_path):
    out = str(tmp_path / "t.json")
    res = runner.invoke(main, ["gen", "diagonal", "--dims", "2,2,2", "--q", "2", "-o", out])
    assert res.exit_code == 0
    res = runner.invoke(main, ["rank", out])
    assert res.exit_code == 0
    got = json.loads(res.output)
    assert got["slice_rank"] == 2
    assert got["schmidt_rank_exact"] is True


def test_rank_slot_independence(tmp_path):
    p = gen_random(field_new(3, 1), (2, 3, 2), 21)
    path = _write(tmp_path, "t.json", tensor_to_obj(p))
    vals = []
    for slot in range(3):
        res = runner.invoke(main, ["rank", path, "--slot", str(slot)])
        assert res.exit_code == 0
        vals.append(json.loads(res.output)["analytic_rank_count"])
    assert max(vals) - min(vals) < 1e-9


def test_rank_counts_the_base_field_once(tmp_path, monkeypatch):
    # the --slot count also gives the slice search its floor, which is the
    # same from every slot, so the output matches the search that counts
    import trlab.ranks as R
    p = gen_random(field_new(3, 1), (3, 2, 3), 5)
    path = _write(tmp_path, "t.json", tensor_to_obj(p))
    want = R.slice_rank_exact(p)
    count, seen = R.zero_set_count, []

    def counted(p, e=1, cap=R.POINT_CAP):
        seen.append(e)
        return count(p, e, cap)

    monkeypatch.setattr(R, "zero_set_count", counted)
    for slot in range(3):
        seen.clear()
        res = runner.invoke(main, ["rank", path, "--slot", str(slot), "--ext-e", "2"])
        assert res.exit_code == 0
        got = json.loads(res.output)
        assert seen == [1, 2]
        assert (got["slice_rank"], got["slice_rank_exact"]) == (want.value, True)


def test_rank_ext_count(tmp_path):
    res = runner.invoke(main, ["gen", "diagonal", "--dims", "1,1,1", "--q", "2",
                               "-o", str(tmp_path / "d.json")])
    assert res.exit_code == 0
    res = runner.invoke(main, ["rank", str(tmp_path / "d.json"), "--ext-e", "2"])
    got = json.loads(res.output)
    assert got["zero_count"] == 3
    assert got["zero_count_ext"]["count"] == 7


def test_gen_random_seeded_identical(tmp_path):
    a = runner.invoke(main, ["gen", "random", "--dims", "2,2", "--q", "9", "--seed", "5"])
    b = runner.invoke(main, ["gen", "random", "--dims", "2,2", "--q", "9", "--seed", "5"])
    assert a.exit_code == 0 and a.output == b.output


def test_gen_rank1_nonzero():
    res = runner.invoke(main, ["gen", "rank1", "--dims", "2,3", "--q", "3", "--seed", "2"])
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert any(c != 0 for c in obj["coeffs"])


def test_exit_code_invalid_input(tmp_path):
    res = runner.invoke(main, ["rank", str(tmp_path / "missing.json")])
    assert res.exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert runner.invoke(main, ["rank", str(bad)]).exit_code == 2
    schema = _write(tmp_path, "schema.json", {"field": {"p": 2, "e": 1}, "dims": [2]})
    assert runner.invoke(main, ["rank", schema]).exit_code == 2
    res = runner.invoke(main, ["gen", "random", "--dims", "2,2", "--q", "6"])
    assert res.exit_code == 2


def test_exit_code_cap_exceeded(tmp_path):
    pen = Pencil(Matrix.identity(field_new(2, 1), 2), Matrix.identity(field_new(2, 1), 2))
    path = _write(tmp_path, "p.json", pencil_to_obj(pen))
    res = runner.invoke(main, ["pencil", "profile", path, "--ext-e", "25"])
    assert res.exit_code == 3


@pytest.mark.parametrize("args", [
    ["rank", "{tensor}", "--ext-e", "0"],
    ["pencil", "profile", "{pencil}", "--ext-e", "0"],
    ["pencil", "kr", "{pencil}", "--ext-e", "0"],
    ["pencil", "prop22", "{pencil}", "--ext-e", "0"],
    ["pencil", "prop22", "{pencil}", "--samples", "-1"],
    ["verify", "{tensor}", "--e-max", "0"],
    ["survey", "{config}", "-o", "{csv}", "--workers", "-3"],
    ["survey", "{config}", "-o", "{csv}", "--workers", "0"],
    ["gen", "random", "--dims", "2,2", "--q", "2", "--seed", "-1"],
    ["pencil", "prop22", "{pencil}", "--seed", "-1"],
])
def test_exit_code_non_positive_counts(tmp_path, args):
    ctx = field_new(2, 1)
    paths = {
        "tensor": _write(tmp_path, "t.json", tensor_to_obj(gen_random(ctx, (2, 2), 1))),
        "pencil": _write(tmp_path, "p.json", pencil_to_obj(
            Pencil(Matrix.identity(ctx, 2), Matrix.identity(ctx, 2)))),
        "config": _write(tmp_path, "c.json", {"field": {"p": 2, "e": 1},
                                              "dims": [2, 2], "count": 1}),
        "csv": str(tmp_path / "out.csv"),
    }
    res = runner.invoke(main, [a.format(**paths) for a in args])
    assert res.exit_code == 2
    assert not (tmp_path / "out.csv").exists()


F2_DESC = {"p": 2, "e": 1}
POLY = {"field": {"p": 3, "e": 1}, "n": 2, "terms": [{"exps": [1, 1], "coeff": 1}]}
SURVEY = {"field": F2_DESC, "dims": [2, 2], "count": 1}
PENCIL = {"field": F2_DESC, "rows": 1, "cols": 2, "A": [1, 0], "B": [0, 1]}
TENSOR_222 = {"field": {"p": 3, "e": 1}, "dims": [2, 2, 2], "coeffs": [1, 0, 0, 1, 0, 1, 1, 2]}
HUGE_DIMS = ",".join([str(1 << 17)] * 3)  # 2^51 coefficients: refused before allocation


@pytest.mark.parametrize("args,code", [
    (["rank", "{huge_e}"], 3),
    (["pencil", "kr", "{pencil}", "--ext-e", "20"], 3),
    (["gen", "random", "--dims", "2", "--q", str((2 ** 127 - 1) * (2 ** 107 - 1))], 3),
    (["rank", "{long_int}"], 2),
    (["gen", "random", "--dims", "2", "--q", "2", "-o", "{missing}/t.json"], 2),
    (["pencil", "block", "--n", "2", "--q", "2", "-o", "{missing}/p.json"], 2),
    (["survey", "{config}", "-o", "{missing}/s.csv"], 2),
    (["survey", "{config}", "-o", "{csv}", "--summary", "{missing}/s.json"], 2),
    (["gen", "diagonal", "--dims", HUGE_DIMS, "--q", "2"], 3),
    (["gen", "random", "--dims", HUGE_DIMS, "--q", "2"], 3),
    (["gen", "rank1", "--dims", HUGE_DIMS, "--q", "2"], 3),
    (["survey", "{huge_config}", "-o", "{csv}"], 3),
    (["gowers", "{poly7}", "--d", "2"], 3),
    (["gowers", "{poly20}", "--d", "2"], 3),
    (["gowers", "{poly_long}", "--d", "2"], 3),
    (["rank", "{tensor222}", "--ext-e", "5000"], 3),
    (["rank", "{tensor222}", "--ext-e", "100000000"], 3),
    (["pencil", "prop22", "{pencil}", "--samples", "100000000"], 3),
], ids=["rank-field-e-10000", "pencil-kr-ext-e-20", "gen-q-71-digits", "rank-int-5001-digits",
        "gen-out-missing-dir", "pencil-block-out-missing-dir", "survey-csv-missing-dir",
        "survey-summary-missing-dir", "gen-diagonal-2^51-coeffs", "gen-random-2^51-coeffs",
        "gen-rank1-2^51-coeffs", "survey-2^51-coeffs", "gowers-grid-3^14", "gowers-tuples-3^60",
        "gowers-n-10^8", "rank-ext-e-5000", "rank-ext-e-10^8", "prop22-samples-10^8"])
def test_exit_code_refused_without_traceback(tmp_path, args, code):
    # each is refused up front, or at the failing write, with its exit code
    paths = {
        "huge_e": _write(tmp_path, "e.json", {"field": {"p": 3, "e": 10000}, "dims": [2],
                                              "coeffs": [1, 0]}),
        "long_int": _write(tmp_path, "i.json", '{"field": {"p": 2, "e": 1}, "dims": [2], '
                                               '"coeffs": [1, ' + "1" * 5001 + "]}"),
        "pencil": _write(tmp_path, "p.json", PENCIL),
        "config": _write(tmp_path, "c.json", SURVEY),
        "huge_config": _write(tmp_path, "h.json", {**SURVEY, "dims": [1 << 17] * 3}),
        "poly7": _write(tmp_path, "q7.json", {**POLY, "n": 7, "terms": [
            {"exps": [1, 1, 0, 0, 0, 0, 0], "coeff": 1}]}),
        "poly20": _write(tmp_path, "q20.json", {**POLY, "n": 20, "terms": [
            {"exps": [1, 1] + [0] * 18, "coeff": 1}]}),
        "poly_long": _write(tmp_path, "ql.json", {**POLY, "n": 10 ** 8, "terms": []}),
        "tensor222": _write(tmp_path, "t222.json", TENSOR_222),
        "csv": str(tmp_path / "out.csv"),
        "missing": str(tmp_path / "missing"),
    }
    res = runner.invoke(main, [a.format(**paths) for a in args])
    assert res.exit_code == code, res.output
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("cmd,obj,opts", [
    (["rank"], {"field": F2_DESC, "dims": [True, 2], "coeffs": [1, 0]}, []),
    (["rank"], {"field": {"p": 2, "e": True}, "dims": [2], "coeffs": [1, 0]}, []),
    (["survey"], {**SURVEY, "dims": [True, 2]}, ["-o", "{csv}"]),
    (["survey"], {**SURVEY, "exhaustive": "no"}, ["-o", "{csv}"]),
    (["survey"], {**SURVEY, "checks": [["x"]]}, ["-o", "{csv}"]),
    (["survey"], {**SURVEY, "seed": -1}, ["-o", "{csv}"]),
    (["gowers"], {**POLY, "terms": [{"exps": [1, 1], "coeff": "x"}]}, ["--d", "2"]),
    (["gowers"], {**POLY, "terms": [{"exps": [True, 1], "coeff": 1}]}, ["--d", "2"]),
    (["gowers"], {**POLY, "n": True, "terms": []}, ["--d", "2"]),
    (["gowers"], POLY, ["--d", "-1"]),
    (["gowers"], POLY, ["--d", "0"]),
    (["pencil", "profile"], {**PENCIL, "rows": True}, []),
    (["rank"], {"field": F2_DESC, "dims": [2, 2], "coeffs": [True, 0, 0, False]}, []),
    (["pencil", "kr"], {**PENCIL, "rows": 2, "A": [True, 0, 0, True], "B": [1, 0, 0, 1]}, []),
], ids=["rank-dims-bool", "rank-field-e-bool", "survey-dims-bool",
        "survey-exhaustive-str", "survey-checks-nested", "survey-seed-negative",
        "gowers-coeff-str",
        "gowers-exps-bool", "gowers-n-bool", "gowers-d-negative", "gowers-d-zero",
        "pencil-rows-bool", "rank-coeffs-bool", "pencil-entries-bool"])
def test_exit_code_malformed_input(tmp_path, cmd, obj, opts):
    path = _write(tmp_path, "in.json", obj)
    csv = str(tmp_path / "out.csv")
    res = runner.invoke(main, cmd + [path] + [o.format(csv=csv) for o in opts])
    assert res.exit_code == 2, res.output
    assert not (tmp_path / "out.csv").exists()


def test_pencil_block_profile_kr(tmp_path):
    blk = str(tmp_path / "b.json")
    res = runner.invoke(main, ["pencil", "block", "--kind", "Ln", "--n", "2",
                               "--q", "3", "-o", blk])
    assert res.exit_code == 0
    res = runner.invoke(main, ["pencil", "profile", blk, "--ext-e", "2"])
    assert res.exit_code == 0
    prof = json.loads(res.output)
    assert all(pt["rank"] == 2 for pt in prof["points"])

    ctx = field_new(2, 1)
    counter = Pencil(Matrix(ctx, np.diag(np.arange(2))), Matrix.identity(ctx, 2))
    cpath = _write(tmp_path, "c.json", pencil_to_obj(counter))
    res = runner.invoke(main, ["pencil", "kr", cpath, "--ext-e", "4"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["affine_hypothesis_base"] is True
    assert rep["conclusion"] is False
    assert rep["affine_hypothesis_ext"] is False


def test_pencil_prop22(tmp_path):
    ctx = field_new(2, 1)
    pen = Pencil(Matrix(ctx, [[0, 0], [0, 1]]), Matrix.identity(ctx, 2))
    path = _write(tmp_path, "p.json", pencil_to_obj(pen))
    res = runner.invoke(main, ["pencil", "prop22", path, "--samples", "10"])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["success"] and rep["max_rank"] == 2
    assert rep["certified_rank_bound"] == 4


def test_verify_all_pass(tmp_path):
    res = runner.invoke(main, ["gen", "diagonal", "--dims", "2,2,2", "--q", "2",
                               "-o", str(tmp_path / "t.json")])
    assert res.exit_code == 0
    res = runner.invoke(main, ["verify", str(tmp_path / "t.json")])
    assert res.exit_code == 0
    assert "PASS analytic_le_rank" in res.output


def test_gowers_cli(tmp_path):
    poly = _write(tmp_path, "q.json", {
        "field": {"p": 3, "e": 1},
        "n": 2,
        "terms": [{"exps": [1, 1], "coeff": 1}],
    })
    res = runner.invoke(main, ["gowers", poly, "--d", "2"])
    assert res.exit_code == 0
    assert "PASS" in res.output
    res = runner.invoke(main, ["gowers", poly, "--d", "4"])
    assert res.exit_code == 2  # d >= p refused


def test_gowers_cli_six_variables_in_time(tmp_path):
    # F3, n = 6, d = 2: 729 points and a 3^12-cell derivative grid
    terms = [([1, 1, 0, 0, 0, 0], 1), ([0, 0, 1, 1, 0, 0], 2), ([0, 0, 0, 0, 2, 0], 1),
             ([0, 0, 0, 0, 1, 1], 1), ([0, 0, 0, 0, 0, 1], 2)]
    poly = _write(tmp_path, "q.json", {**POLY, "n": 6, "terms": [
        {"exps": e, "coeff": c} for e, c in terms]})
    start = time.perf_counter()
    res = runner.invoke(main, ["gowers", poly, "--d", "2"])
    assert res.exit_code == 0 and "PASS" in res.output, res.output
    assert time.perf_counter() - start < 2.0


def test_gowers_d1_builds_no_addition_table(tmp_path):
    # F3, n = 10, --d 1: |E_x f|^2 from the 3^10-point table alone; the
    # 3^20-cell addition table the d >= 2 route reads is never built
    poly = _write(tmp_path, "q10.json", {**POLY, "n": 10, "terms": [
        {"exps": [1] + [0] * 9, "coeff": 1}]})
    res = runner.invoke(main, ["gowers", poly, "--d", "1"])
    assert res.exit_code == 0 and "PASS" in res.output, res.output


@pytest.mark.parametrize("poly,degree", [
    (POLY, "3"),  # d >= p
    ({"field": {"p": 5, "e": 1}, "n": 1, "terms": [{"exps": [3], "coeff": 1}]}, "2"),
], ids=["d-at-least-p", "degree-above-d"])
def test_gowers_cli_refuses_the_regime_before_the_norm(tmp_path, monkeypatch, poly, degree):
    import trlab.checks as checks_mod
    calls = []
    monkeypatch.setattr(checks_mod, "gowers_norm_power", lambda *a, **k: calls.append(a))
    res = runner.invoke(main, ["gowers", _write(tmp_path, "q.json", poly), "--d", degree])
    assert res.exit_code == 2
    assert calls == []


def test_survey_violation_exits_one(tmp_path, monkeypatch):
    import trlab.cli as cli_mod
    from trlab.errors import SurveyViolation

    def boom(cfg, out, summary_path=None, workers=None):
        raise SurveyViolation("proven check failed", seed=3, check="analytic_le_rank")

    monkeypatch.setattr(cli_mod.survey, "run_survey", boom)
    cfg = _write(tmp_path, "cfg.json",
                 {"field": {"p": 2, "e": 1}, "dims": [2, 2], "count": 1, "seed": 3})
    res = runner.invoke(main, ["survey", cfg, "-o", str(tmp_path / "o.csv")])
    assert res.exit_code == 1


def test_survey_cli_deterministic(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "field": {"p": 2, "e": 1},
        "dims": [2, 2, 2],
        "count": 5,
        "seed": 3,
        "e_max": 2,
    })
    outs = []
    for w in ("1", "4"):
        out = tmp_path / f"o{w}.csv"
        res = runner.invoke(main, ["survey", cfg, "-o", str(out), "--workers", w,
                                   "--summary", str(tmp_path / f"s{w}.json")])
        assert res.exit_code == 0, res.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    summary = json.loads((tmp_path / "s1.json").read_text())
    assert summary["instances"] == 5
