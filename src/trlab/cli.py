"""Command-line surface.

Exit codes: 0 success / all checks passed, 1 a check failed, 2 invalid
input, 3 a cap was exceeded.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click
import numpy as np

from . import checks as checks_mod
from . import forms, pencils, ranks, survey
from .errors import CapExceeded, InputError, LabError
from .gfq import field_from_order


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or an integer too long to convert
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _lab_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (LabError, OSError) as exc:  # OSError: an output path that cannot be written
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code if isinstance(exc, LabError) else InputError.exit_code)
    return wrapper


def _parse_dims(text):
    try:
        dims = tuple(int(t) for t in text.replace("x", ",").split(",") if t)
    except ValueError:
        raise InputError(f"cannot parse dims {text!r}")
    if not dims or any(n < 1 for n in dims):
        raise InputError("dims must be positive integers")
    return dims


def _finite(x):  # JSON has no Infinity: an infinite rank is written as null
    return x if math.isfinite(x) else None


def _emit(obj, out=None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@click.group()
def main():
    """Exact rank laboratory for multilinear forms over finite fields."""


@main.command("rank")
@click.argument("tensor", type=click.Path())
@click.option("--slot", type=int, default=0, show_default=True,
              help="0-based slot used as the distinguished slot for zero-set counting.")
@click.option("--ext-e", type=click.IntRange(min=1), default=1, show_default=True,
              help="Also report the zero-set count over this extension degree.")
@_lab_errors
def rank_cmd(tensor, slot, ext_e):
    """Analytic and slice ranks of a tensor JSON file."""
    p = forms.tensor_from_obj(_load_json(tensor))
    rooted = forms.move_slot_first(p, slot)
    counts = {1: ranks.zero_set_count(rooted, 1)}
    out = {
        "q": p.ctx.q,
        "dims": list(p.dims),
        "slot": slot,
        "zero_count": counts[1].count,
        "analytic_rank_count": _finite(ranks.analytic_rank_from_count(counts[1], p.ctx.q)),
    }
    try:
        out["analytic_rank_charsum"] = _finite(ranks.analytic_rank_charsum(rooted))
    except CapExceeded:
        out["analytic_rank_charsum"] = None
    if ext_e > 1:
        counts[ext_e] = ranks.zero_set_count(rooted, ext_e)
        out["zero_count_ext"] = {"extension_degree": ext_e, "count": counts[ext_e].count}
    sr = ranks.slice_rank_exact(p, counts=counts)  # the floor is the same from every slot
    sch = sr.schmidt(p.d)
    out.update(slice_rank=sr.value, slice_rank_exact=sr.exact,
               schmidt_rank=sch.value, schmidt_rank_exact=sch.exact)
    _emit(out)


@main.command("gen")
@click.argument("kind", type=click.Choice(["diagonal", "random", "rank1"]))
@click.option("--dims", required=True, help="Slot dimensions, e.g. 2,2,2 or 3x3.")
@click.option("--q", "order", type=int, required=True, help="Field order (prime power).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("-o", "--out", type=click.Path(), default=None,
              help="Output file (defaults to stdout).")
@_lab_errors
def gen_cmd(kind, dims, order, seed, out):
    """Generate a tensor JSON file."""
    ctx = field_from_order(order)
    dims = _parse_dims(dims)
    if kind == "diagonal":
        n = dims[0]
        if any(m != n for m in dims):
            raise InputError("diagonal forms need equal dims in every slot")
        p = forms.gen_diagonal(ctx, n, len(dims))
    elif kind == "random":
        p = forms.gen_random(ctx, dims, seed)
    else:
        forms.check_coeff_cap(dims)
        rng = np.random.default_rng(seed)
        covs = []
        for n in dims:
            v = rng.integers(0, ctx.q, size=n, dtype=np.int64)
            if not v.any():
                v[0] = 1  # keep the factor (and the product form) nonzero
            covs.append(v)
        p = forms.gen_rank_one(ctx, covs)
    _emit(forms.tensor_to_obj(p), out)


@main.group("pencil")
def pencil_group():
    """Matrix pencil constructions and checks."""


@pencil_group.command("block")
@click.option("--kind", type=click.Choice(["Ln", "Ln_transpose"]), default="Ln",
              show_default=True)
@click.option("--n", "size", type=int, required=True)
@click.option("--q", "order", type=int, required=True)
@click.option("-o", "--out", type=click.Path(), default=None)
@_lab_errors
def pencil_block(kind, size, order, out):
    """Write a Kronecker block pencil as JSON."""
    ctx = field_from_order(order)
    _emit(pencils.pencil_to_obj(pencils.kronecker_block(ctx, kind, size)), out)


@pencil_group.command("profile")
@click.argument("pencil_file", type=click.Path())
@click.option("--ext-e", type=click.IntRange(min=1), default=1, show_default=True)
@_lab_errors
def pencil_profile(pencil_file, ext_e):
    """Exact rank at every projective point of the pencil line."""
    pen = pencils.pencil_from_obj(_load_json(pencil_file))
    prof = pencils.rank_profile(pen, ext_e)
    _emit({
        "extension_degree": prof.extension_degree,
        "field_order": prof.field_order,
        "points": [{"s": s, "t": t, "rank": r} for (s, t), r in prof.points],
    })


@pencil_group.command("kr")
@click.argument("pencil_file", type=click.Path())
@click.option("--ext-e", type=click.IntRange(min=1), default=4, show_default=True)
@_lab_errors
def pencil_kr(pencil_file, ext_e):
    """Kernel-image containment check against the affine rank hypothesis."""
    pen = pencils.pencil_from_obj(_load_json(pencil_file))
    rep = pencils.kernel_image_check(pen, ext_e)
    _emit({
        "affine_hypothesis_base": rep.affine_hypothesis_base,
        "affine_hypothesis_ext": rep.affine_hypothesis_ext,
        "conclusion": rep.conclusion,
        "rank_a": rep.rank_a,
        "extension_degree": rep.extension_degree,
    })


@pencil_group.command("prop22")
@click.argument("pencil_file", type=click.Path())
@click.option("--ext-e", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--samples", type=click.IntRange(min=0), default=50, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@_lab_errors
def pencil_prop22(pencil_file, ext_e, samples, seed):
    """Max-rank kernel/image reduction for the span of the two pencil members."""
    pen = pencils.pencil_from_obj(_load_json(pencil_file))
    rep = pencils.max_rank_reduction([pen.a, pen.b], ext_e=ext_e,
                                     samples=samples, seed=seed)
    out = {
        "success": rep.success,
        "max_rank": rep.max_rank,
        "over_extension": rep.over_extension,
        "witness_field_degree": rep.witness_field_degree,
        "certified_rank_bound": 2 * rep.max_rank if rep.success else None,
        "kernel_dim": rep.kernel.dim if rep.kernel is not None else None,
        "image_dim": rep.image.dim if rep.image is not None else None,
    }
    _emit(out)
    if not rep.success:
        sys.exit(1)


@main.command("verify")
@click.argument("tensor", type=click.Path())
@click.option("--e-max", type=click.IntRange(min=1), default=3, show_default=True,
              help="Extension depth for the codimension estimate.")
@_lab_errors
def verify_cmd(tensor, e_max):
    """Run the full inequality suite on a tensor; exit 1 on any failure."""
    p = forms.tensor_from_obj(_load_json(tensor))
    rep = checks_mod.check_suite(p, e_max=e_max)
    for o in rep.outcomes:
        tag = "PASS" if o.passed else "FAIL"
        flavor = " [heuristic]" if o.heuristic else ""
        rel = "=" if o.kind == "eq" else "<="
        click.echo(f"{tag} {o.name}{flavor}: {o.left:.12g} {rel} {o.right:.12g} "
                   f"(tol {o.tolerance:g})")
    click.echo(f"a={rep.analytic_rank:.12g} r={rep.schmidt.value} "
               f"|Z|={rep.zero_count} g_hat={rep.g_hat}"
               + (" (codim estimate ambiguous, heuristic checks skipped)"
                  if rep.heuristics_skipped else ""))
    if not rep.all_passed():
        sys.exit(1)


@main.command("gowers")
@click.argument("poly", type=click.Path())
@click.option("--d", "degree", type=click.IntRange(min=1), required=True)
@_lab_errors
def gowers_cmd(poly, degree):
    """Check the uniformity-norm identity for a polynomial JSON file."""
    q = forms.poly_from_obj(_load_json(poly))
    o = checks_mod.gowers_bias_identity(q, degree)
    tag = "PASS" if o.passed else "FAIL"
    click.echo(f"{tag} {o.name}: norm^(2^d)={o.left:.12g} bias={o.right:.12g} "
               f"(tol {o.tolerance:g})")
    if not o.passed:
        sys.exit(1)


@main.command("survey")
@click.argument("config", type=click.Path())
@click.option("-o", "--out", type=click.Path(), required=True, help="CSV output path.")
@click.option("--summary", type=click.Path(), default=None, help="JSON summary path.")
@click.option("--workers", type=click.IntRange(min=1), default=None,
              help="Accepted and validated; every form runs in one thread.")
@_lab_errors
def survey_cmd(config, out, summary, workers):
    """Run a seeded ensemble survey from a JSON config."""
    cfg = survey.config_from_obj(_load_json(config))
    result = survey.run_survey(cfg, out, summary_path=summary, workers=workers)
    _emit(result)


if __name__ == "__main__":
    main()
