"""Single-call probes: the rows of the ROADMAP baseline table.

Each probe times one library call on a seeded input and reports the
median of a few repeats in milliseconds, next to the value measured when
the table was written (Python 3.11.7, numpy 2.4.6, 2 vCPU Xeon).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from trlab import forms, gfq, linalg, pencils, ranks


def _median_ms(fn, repeats: int) -> float:
    fn()  # fills the field and subspace caches
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000.0


def _random_form(q, dims, rng):
    return forms.MultilinearForm(gfq.field_from_order(q),
                                 rng.integers(0, q, size=dims, dtype=np.int64))


def run_probes(seed: int) -> list[dict]:
    """[{"name", "ms", "roadmap"}] for every baseline-table row."""
    rng = np.random.default_rng([seed, 7])
    gf9 = gfq.field_from_order(9)
    x, y = (rng.integers(0, 9, size=10 ** 6, dtype=np.int64) for _ in range(2))
    f3, f2 = _random_form(3, (3, 3, 3), rng), _random_form(2, (3, 3, 3), rng)
    ctx3 = gfq.field_from_order(3)
    ab = rng.integers(0, 3, size=(2, 3, 4), dtype=np.int64)
    pen = pencils.Pencil(linalg.Matrix(ctx3, ab[0]), linalg.Matrix(ctx3, ab[1]))
    rows = [
        ("probe.gfq.add_arr.gf9_1e6_ms", "80.7 ms", 5, lambda: gf9.add_arr(x, y)),
        ("probe.ranks.zero_set_count.f3_gf9_ms", "314 ms", 3,
         lambda: ranks.zero_set_count(f3, 2)),
        ("probe.ranks.zero_set_count.f2_gf16_ms", "1536 ms", 3,
         lambda: ranks.zero_set_count(f2, 4)),
    ]
    for name, q, dims, ref, repeats in (("f2_333", 2, (3, 3, 3), "9.5 ms", 9),
                                        ("f3_333", 3, (3, 3, 3), "29.8 ms", 5),
                                        ("f5_333", 5, (3, 3, 3), "93 ms", 5),
                                        ("f2_444", 2, (4, 4, 4), "175 ms", 3)):
        form = _random_form(q, dims, rng)
        rows.append((f"probe.ranks.slice_rank_exact.{name}_ms", ref, repeats,
                     lambda form=form: ranks.slice_rank_exact(form)))
    diag = forms.gen_diagonal(gfq.field_from_order(2), 4, 3)
    rows.append(("probe.ranks.slice_rank_exact.diag4_f2_ms", "145 ms", 3,
                 lambda: ranks.slice_rank_exact(diag)))
    rows.append(("probe.pencils.kernel_image_check.f3_34_e4_ms", "1.44 ms", 21,
                 lambda: pencils.kernel_image_check(pen, ext_e=4)))
    return [{"name": name, "ms": _median_ms(fn, repeats), "roadmap": ref}
            for name, ref, repeats, fn in rows]

