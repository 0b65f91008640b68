"""Seeded ensemble surveys: run the check suite per instance, emit CSV + JSON.

Output is deterministic for a fixed (seed, config): instances run one at a
time in the caller's thread and rows are written in index order as they
finish, and all numbers are exact integers or fixed-format floats.  The
`workers` option is validated and accepted, but changes neither the output
nor the work: a thread pool ran slower than this loop.
"""

from __future__ import annotations

import json
import math
from contextlib import closing, nullcontext
from dataclasses import dataclass, replace
from typing import Optional

from .checks import (ALL_CHECKS, PROVEN_CHECKS, RECORDED_CHECKS, RankReport, applicable_checks,
                     check_suite)
from .errors import InputError, SurveyViolation, capped, json_int
from .forms import MultilinearForm, check_coeff_cap, gen_random
from .gfq import FieldCtx, digits, field_from_descriptor
from .ranks import POINT_CAP, SEARCH_CAP

CSV_VERSION = "tensor-rank-lab v1"
BASE_COLUMNS = ("seed", "q", "dims", "d", "a", "r", "r_exact", "g_hat")
WORKER_CAP = 64  # bound on the workers option


@dataclass(frozen=True)
class SurveyConfig:
    ctx: FieldCtx
    dims: tuple[int, ...]
    count: int
    seed: int
    exhaustive: bool = False
    e_max: int = 3
    workers: int = 1  # validated, no effect (see the module docstring)
    checks: Optional[tuple[str, ...]] = None  # None = all applicable
    point_cap: int = POINT_CAP
    search_cap: int = SEARCH_CAP

    def __post_init__(self):
        if not self.dims or any(n < 1 for n in self.dims):
            raise InputError("dims must be positive")
        check_coeff_cap(self.dims)
        if self.count < 0 or self.seed < 0:
            raise InputError("ensemble size and seed must be >= 0")
        if self.e_max < 1 or self.workers < 1:
            raise InputError("e_max and workers must be >= 1")
        if self.point_cap <= 0 or self.search_cap <= 0:
            raise InputError("caps must be positive")
        capped("survey workers", WORKER_CAP, self.workers)
        if self.exhaustive:
            capped("exhaustive survey forms", self.point_cap, self.ctx.q, math.prod(self.dims))
        if self.checks is not None:
            unknown = set(self.checks) - set(ALL_CHECKS)
            if unknown:
                raise InputError(f"unknown checks: {sorted(unknown)}")
            d, q = len(self.dims), self.ctx.q
            if "rank_le_chain_analytic" in set(self.checks) - set(applicable_checks(d, q)):
                raise InputError(
                    "the chained trilinear bound needs d = 3 and q > d: the "
                    f"constant 3/(1-log_q 3) is undefined at q = {q}, d = {d}")

    @property
    def d(self) -> int:
        return len(self.dims)

    def column_checks(self) -> tuple[str, ...]:
        names = applicable_checks(self.d, self.ctx.q)
        if self.checks is not None:
            names = tuple(n for n in names if n in self.checks)
        return names


def config_from_obj(obj) -> SurveyConfig:
    if not isinstance(obj, dict) or not {"field", "dims"} <= set(obj):
        raise InputError("survey config needs at least field and dims")
    ctx = field_from_descriptor(obj["field"])
    dims = obj["dims"]
    if not isinstance(dims, list):
        raise InputError("dims must be a list of integers")
    dims = tuple(json_int(n, "dims entry") for n in dims)
    caps = obj.get("caps", {})
    if not isinstance(caps, dict):
        raise InputError("caps must be an object")
    checks = obj.get("checks")
    if checks is not None:
        if not isinstance(checks, list) or any(not isinstance(c, str) for c in checks):
            raise InputError("checks must be a list of names")
        checks = tuple(checks)
    exhaustive = obj.get("exhaustive", False)
    if not isinstance(exhaustive, bool):
        raise InputError(f"exhaustive must be true or false, got {exhaustive!r}")
    return SurveyConfig(
        ctx=ctx,
        dims=dims,
        count=json_int(obj.get("count", 0), "count"),
        seed=json_int(obj.get("seed", 0), "seed"),
        exhaustive=exhaustive,
        e_max=json_int(obj.get("e_max", 3), "e_max"),
        workers=json_int(obj.get("workers", 1), "workers"),
        checks=checks,
        point_cap=json_int(caps.get("points", POINT_CAP), "caps.points"),
        search_cap=json_int(caps.get("search", SEARCH_CAP), "caps.search"),
    )


def _instances(cfg: SurveyConfig):
    """Yield (seed_label, form) pairs; exhaustive mode enumerates all forms."""
    if cfg.exhaustive:
        size = math.prod(cfg.dims)
        for enc in range(cfg.ctx.q ** size):
            yield enc, MultilinearForm(cfg.ctx, digits(enc, cfg.ctx.q, size).reshape(cfg.dims))
    else:
        for s in range(cfg.seed, cfg.seed + cfg.count):
            yield s, gen_random(cfg.ctx, cfg.dims, s)


def _row(cfg: SurveyConfig, seed_label: int, rep: RankReport,
         check_names: tuple[str, ...]) -> list[str]:
    """The CSV cells of one instance, in header order; floats get 12 significant digits."""
    checks = ["skip" if o is None else ("pass" if o.passed else "fail")
              for o in map(rep.outcome, check_names)]
    return [str(seed_label), str(cfg.ctx.q), "x".join(str(n) for n in cfg.dims),
            str(cfg.d), f"{rep.analytic_rank:.12g}", str(rep.schmidt.value),
            "1" if rep.schmidt.exact else "0", "" if rep.g_hat is None else str(rep.g_hat),
            *checks]


def _reports(cfg: SurveyConfig):
    """Yield (seed_label, RankReport) in index order, drawing the forms lazily
    and running each in the caller's thread, whatever cfg.workers is."""
    for seed_label, form in _instances(cfg):
        yield seed_label, check_suite(form, e_max=cfg.e_max, point_cap=cfg.point_cap,
                                      search_cap=cfg.search_cap)


def run_survey(cfg: SurveyConfig, csv_path, summary_path=None,
               workers: Optional[int] = None) -> dict:
    """Run the ensemble, writing each CSV row once it and every row before
    it are done; return (and optionally write) the JSON summary.  Both paths
    are opened before the first instance runs, so a bad path costs no work.

    A failed proven check (a theorem-level statement, so an implementation
    bug) writes its row and aborts with the offending seed.  Heuristic
    failures only accumulate counts in the summary.  An instance that
    raises (e.g. CapExceeded) ends the survey with the rows before it on
    disk, and the error propagates.
    """
    if workers is not None:  # validated as the config's own field, before any file opens
        cfg = replace(cfg, workers=workers)
    check_names = cfg.column_checks()
    header = list(BASE_COLUMNS) + [f"check:{n}" for n in check_names]
    instances, ratios, flagged, recorded_flat_failures = 0, [], {}, 0
    with (open(csv_path, "w", newline="") as fh,
          nullcontext() if summary_path is None else open(summary_path, "w") as sfh,
          closing(_reports(cfg)) as reports):
        fh.write(f"# {CSV_VERSION}\n{','.join(header)}\n")
        for seed_label, rep in reports:
            cells = _row(cfg, seed_label, rep, check_names)
            fh.write(",".join(cells) + "\n")
            instances += 1
            for name, cell in zip(check_names, cells[len(BASE_COLUMNS):]):
                if cell != "fail":
                    continue
                if name in PROVEN_CHECKS:
                    raise SurveyViolation(
                        f"proven check {name} failed on instance seed={seed_label}; "
                        "this is an implementation bug", seed=seed_label, check=name)
                if name in RECORDED_CHECKS:
                    recorded_flat_failures += 1
                else:
                    flagged[name] = flagged.get(name, 0) + 1
            if rep.analytic_rank > 1e-9:
                ratios.append(rep.schmidt.value / rep.analytic_rank)
        stats = ({"min": min(ratios), "mean": sum(ratios) / len(ratios), "max": max(ratios)}
                 if ratios else dict.fromkeys(("min", "mean", "max")))
        summary = {
            "version": CSV_VERSION,
            "instances": instances,
            "ratio_r_over_a": stats,
            "heuristic_flagged_failures": flagged,
            "recorded_flat_failures": recorded_flat_failures,
        }
        if sfh is not None:
            json.dump(summary, sfh, indent=2, sort_keys=True)
            sfh.write("\n")
    return summary
