"""Seeded ensemble surveys: run the check suite per instance, emit CSV + JSON.

Output is deterministic for a fixed (seed, config) regardless of the
worker count: instances are independent, results are assembled in index
order, and all numbers are exact integers or fixed-format floats.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .checks import ALL_CHECKS, PROVEN_CHECKS, RECORDED_CHECKS, applicable_checks, check_suite
from .errors import InputError, LabError, SurveyViolation, json_int
from .forms import MultilinearForm, gen_random
from .gfq import FieldCtx, digits, field_from_descriptor
from .ranks import POINT_CAP, SEARCH_CAP

CSV_VERSION = "tensor-rank-lab v1"
BASE_COLUMNS = ("seed", "q", "dims", "d", "a", "r", "r_exact", "g_hat")


@dataclass(frozen=True)
class SurveyConfig:
    ctx: FieldCtx
    dims: tuple[int, ...]
    count: int
    seed: int
    exhaustive: bool = False
    e_max: int = 3
    workers: int = 1
    checks: Optional[tuple[str, ...]] = None  # None = all applicable
    point_cap: int = POINT_CAP
    search_cap: int = SEARCH_CAP

    def __post_init__(self):
        if not self.dims or any(n < 1 for n in self.dims):
            raise InputError("dims must be positive")
        if self.count < 0:
            raise InputError("ensemble size must be >= 0")
        if self.e_max < 1 or self.workers < 1:
            raise InputError("e_max and workers must be >= 1")
        if self.point_cap <= 0 or self.search_cap <= 0:
            raise InputError("caps must be positive")
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
        total = cfg.ctx.q ** size
        for enc in range(total):
            yield enc, MultilinearForm(cfg.ctx, digits(enc, cfg.ctx.q, size).reshape(cfg.dims))
    else:
        for i in range(cfg.count):
            s = cfg.seed + i
            yield s, gen_random(cfg.ctx, cfg.dims, s)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _row(cfg: SurveyConfig, seed_label: int, form: MultilinearForm,
         check_names: tuple[str, ...]) -> dict:
    rep = check_suite(form, e_max=cfg.e_max,
                      point_cap=cfg.point_cap, search_cap=cfg.search_cap)
    cells = {
        "seed": str(seed_label),
        "q": str(cfg.ctx.q),
        "dims": "x".join(str(n) for n in cfg.dims),
        "d": str(cfg.d),
        "a": _fmt(rep.analytic_rank),
        "r": str(rep.schmidt.value),
        "r_exact": "1" if rep.schmidt.exact else "0",
        "g_hat": "" if rep.g_hat is None else str(rep.g_hat),
    }
    for name in check_names:
        o = rep.outcome(name)
        cells[f"check:{name}"] = "skip" if o is None else ("pass" if o.passed else "fail")
    cells["_a"] = rep.analytic_rank
    cells["_r"] = rep.schmidt.value
    return cells


def run_survey(cfg: SurveyConfig, csv_path, summary_path=None,
               workers: Optional[int] = None) -> dict:
    """Run the ensemble; write CSV rows and return (and optionally write)
    the JSON summary.

    A failed proven check aborts with the offending seed: those are
    theorem-level statements, so a failure is an implementation bug.
    Heuristic failures only accumulate counts in the summary.  An instance
    that raises (e.g. CapExceeded) ends the survey: the CSV keeps the rows
    before it in index order, and the error is re-raised.
    """
    nworkers = workers if workers is not None else cfg.workers
    check_names = cfg.column_checks()
    header = list(BASE_COLUMNS) + [f"check:{n}" for n in check_names]
    pairs = list(_instances(cfg))

    rows, failed = [], None  # failed: the first instance error, in index order
    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        futs = [pool.submit(_row, cfg, s, f, check_names) for s, f in pairs]
        for fut in futs:  # index order, not completion order
            try:
                rows.append(fut.result())
            except LabError as exc:
                failed = exc
                pool.shutdown(cancel_futures=True)
                break

    ratios = []
    flagged: dict[str, int] = {}
    recorded_flat_failures = 0
    lines = [f"# {CSV_VERSION}", ",".join(header)]
    aborted = None
    for (seed_label, _), row in zip(pairs, rows):
        lines.append(",".join(row[c] for c in header))
        for name in check_names:
            val = row[f"check:{name}"]
            if val != "fail":
                continue
            if name in PROVEN_CHECKS:
                aborted = (seed_label, name)
                break
            if name in RECORDED_CHECKS:
                recorded_flat_failures += 1
            else:
                flagged[name] = flagged.get(name, 0) + 1
        if aborted:
            break
        if row["_a"] > 1e-9:
            ratios.append(row["_r"] / row["_a"])

    text = "\n".join(lines) + "\n"
    with open(csv_path, "w", newline="") as fh:
        fh.write(text)
    if aborted:
        seed_label, name = aborted
        raise SurveyViolation(
            f"proven check {name} failed on instance seed={seed_label}; "
            "this is an implementation bug", seed=seed_label, check=name)
    if failed is not None:
        raise failed

    stats = {"min": None, "mean": None, "max": None}
    if ratios:
        stats = {"min": min(ratios), "mean": sum(ratios) / len(ratios), "max": max(ratios)}
    summary = {
        "version": CSV_VERSION,
        "instances": len(rows),
        "ratio_r_over_a": stats,
        "heuristic_flagged_failures": flagged,
        "recorded_flat_failures": recorded_flat_failures,
    }
    if summary_path is not None:
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary
