"""The benchmark's workloads: seeded inputs, the calls each item makes,
and the checks each output must pass.

Every workload is a closed loop driven by one caller in one process.
Inputs come from the workload seed only; the library sees the generated
forms and pencils, never the seed.  Library functions are always looked
up through their module at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from trlab import forms, gfq, linalg, pencils, ranks, survey

TOL = 1e-9
REFERENCE_FILE = Path(__file__).with_name("references.json")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _load_references() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


class Workload:
    """Base: `pool_size` inputs are cycled through by the timed loop;
    `trace_items` of them make the traced run's fixed item list."""

    name = ""
    why = ""
    pool_size = 0
    trace_items = 0
    warmup_items = 1
    window = 1  # calls per throughput sample: whole kind cycles

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        refs = _load_references()
        self.references = (refs.get("digests", {}).get(self.name)
                           if refs.get("seed") == seed else None)

    def _rng(self, idx: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, idx])

    def make_input(self, idx: int):
        raise NotImplementedError

    def inputs(self) -> list:
        return [self.make_input(i) for i in range(self.pool_size)]

    def warm_up(self):
        """Run untimed items drawn past the end of the pool.  Pool sizes are
        multiples of the kind cycle, so the first few cover every field."""
        for j in range(self.warmup_items):
            self.run(self.make_input(self.pool_size + j))

    def run(self, inp):
        raise NotImplementedError

    def units(self, idx: int) -> int:
        return 1

    def invariants(self, inp, out) -> list[str]:
        raise NotImplementedError

    def digest(self, inp, out) -> str:
        raise NotImplementedError

    def check(self, idx: int, inp, out) -> list[str]:
        problems = self.invariants(inp, out)
        if not problems and self.references is not None:
            if self.digest(inp, out) != self.references[idx]:
                problems.append("output differs from the recorded reference")
        return problems

    def layer_counts(self, outputs) -> dict[str, float]:
        """Work counts read from outputs (None for a call that raised)."""
        return {}

    def close(self):
        pass


class SurveyF3(Workload):
    name = "survey-f3"
    why = ("the batch job users run: about 89% of its time is zero counting over GF(9) "
           "through the odd-p digit path of gfq.add_arr, about 7% the slice search")
    batch = 4
    pool_size = 24
    trace_items = 2

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.ctx = gfq.field_from_order(3)
        self.ctx.extension(2)
        self.csv_path = out_dir / f"survey-{os.getpid()}.csv"

    def make_input(self, idx):
        return survey.SurveyConfig(ctx=self.ctx, dims=(3, 3, 3), count=self.batch,
                                   seed=(self.seed << 20) + idx * self.batch,
                                   e_max=2, workers=1)

    def warm_up(self):
        self.run(dataclasses.replace(self.make_input(self.pool_size), count=1))

    def run(self, cfg):
        summary = survey.run_survey(cfg, self.csv_path)
        return summary, self.csv_path.read_bytes()

    def units(self, idx):
        return self.batch

    def invariants(self, cfg, out):
        summary, csv = out
        lines = csv.decode().splitlines()
        rows = len(lines) - 2  # version comment and header
        problems = []
        if rows != cfg.count or summary["instances"] != cfg.count:
            problems.append(f"{rows} CSV rows and {summary['instances']} instances "
                            f"for {cfg.count} forms")
        return problems

    def digest(self, cfg, out):
        return hashlib.sha256(out[1]).hexdigest()

    def layer_counts(self, outputs):
        return {"survey.csv_bytes": sum(len(out[1]) for out in outputs if out is not None)}

    def close(self):
        self.csv_path.unlink(missing_ok=True)


def _restrict_vanishes(form, subspaces) -> bool:
    """Restrict a form over a prime field to the given subspaces with plain
    integer tensordots (independent of the library's restriction code)."""
    p = form.ctx.p
    t = form.coeffs
    for axis, sub in enumerate(subspaces):
        t = np.moveaxis(np.tensordot(sub.basis, t, axes=(1, axis)) % p, 0, axis)
    return not t.any()


class RankPrime(Workload):
    name = "rank-prime"
    why = ("the trlab rank sequence over prime fields: slice search (one rref per "
           "subspace tuple) and the character-sum histogram, with no GF(p^e) digit path")
    # GF(5) comes twice per cycle so that the p50 falls inside the GF(5)
    # latency cluster and the p90 inside the GF(2) 4x4x4 one, not between two
    kinds = ((2, (4, 4, 4)), (3, (3, 3, 3)), (5, (3, 3, 3)), (5, (3, 3, 3)))
    pool_size = 300
    trace_items = 24
    warmup_items = 3
    window = 24

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.fields = {q: gfq.field_from_order(q) for q, _ in self.kinds}

    def make_input(self, idx):
        q, dims = self.kinds[idx % len(self.kinds)]
        coeffs = self._rng(idx).integers(0, q, size=dims, dtype=np.int64)
        return forms.MultilinearForm(self.fields[q], coeffs)

    def run(self, form):
        rooted = forms.move_slot_first(form, 0)
        z = ranks.zero_set_count(rooted, 1)
        a_count = ranks.analytic_rank_count(rooted)
        a_char = ranks.analytic_rank_charsum(rooted)
        sr = ranks.slice_rank_exact(form)
        return z.count, a_count, a_char, sr

    def invariants(self, form, out):
        _, a_count, a_char, sr = out
        problems = []
        if abs(a_count - a_char) > TOL:
            problems.append(f"count route {a_count!r} != charsum route {a_char!r}")
        if not sr.exact:
            problems.append("slice rank not exact")
        elif sr.witness.codim_sum != sr.value:
            problems.append(f"witness codim sum {sr.witness.codim_sum} != {sr.value}")
        elif not _restrict_vanishes(form, sr.witness.subspaces):
            problems.append("form does not vanish on the witness")
        if a_count > sr.value + TOL:
            problems.append(f"analytic rank {a_count!r} > slice rank {sr.value}")
        return problems

    def digest(self, form, out):
        zero_count, _, _, sr = out
        bases = ([s.basis.tolist() for s in sr.witness.subspaces]
                 if sr.witness is not None else None)
        return _digest([zero_count, sr.value, sr.exact, bases])


class PencilExt(Workload):
    name = "pencil-ext"
    why = ("thousands of small batch_rank calls over GF(16) and GF(81) from the pencil "
           "checks, with no zero counting or slice search")
    # GF(3) pencils (lifted to GF(81), the odd-p digit path) make two thirds
    # of a cycle, so the p50 falls inside their latency cluster rather than
    # in the gap between the GF(16) and GF(81) clusters
    kinds = ((2, (3, 3)), (3, (3, 3)), (3, (3, 4)), (2, (3, 4)), (3, (3, 3)), (3, (3, 4)))
    pool_size = 2004
    trace_items = 204
    warmup_items = 4
    window = 120
    ext_e = 4
    samples = 50

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.fields = {q: gfq.field_from_order(q) for q, _ in self.kinds}
        for ctx in self.fields.values():
            ctx.extension(self.ext_e)

    def make_input(self, idx):
        q, shape = self.kinds[idx % len(self.kinds)]
        ab = self._rng(idx).integers(0, q, size=(2,) + shape, dtype=np.int64)
        ctx = self.fields[q]
        return pencils.Pencil(linalg.Matrix(ctx, ab[0]), linalg.Matrix(ctx, ab[1]))

    def run(self, pen):
        kr = pencils.kernel_image_check(pen, ext_e=self.ext_e)
        mr = pencils.max_rank_reduction([pen.a, pen.b], ext_e=self.ext_e,
                                        samples=self.samples)
        return kr, mr

    def invariants(self, pen, out):
        kr, mr = out
        problems = []
        if kr.affine_hypothesis_ext and not kr.conclusion:
            problems.append("affine hypothesis over the extension without the conclusion")
        if mr.success:
            cols = pen.shape[1]
            if mr.kernel.dim != cols - mr.max_rank or mr.image.dim != mr.max_rank:
                problems.append(f"kernel dim {mr.kernel.dim} / image dim {mr.image.dim} "
                                f"inconsistent with max rank {mr.max_rank}")
        return problems

    def digest(self, pen, out):
        kr, mr = out
        return _digest([
            kr.affine_hypothesis_base, kr.affine_hypothesis_ext, kr.conclusion, kr.rank_a,
            mr.success, mr.max_rank, mr.over_extension, mr.witness_field_degree,
            mr.tried_base, mr.tried_ext,
            None if mr.kernel is None else mr.kernel.basis.tolist(),
            None if mr.image is None else mr.image.basis.tolist(),
        ])


WORKLOADS = {w.name: w for w in (SurveyF3, RankPrime, PencilExt)}
