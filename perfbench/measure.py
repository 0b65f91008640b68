"""Timing loop, failure accounting and percentiles for the benchmark."""

from __future__ import annotations

import functools
import math
import traceback
from dataclasses import dataclass, field
from time import perf_counter


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least `pct`
    percent of all samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[k - 1]


def checked_call(run, inp, check, clock=perf_counter):
    """(problems, seconds, output) of one call; only `run` is timed.

    Any exception fails the item, never the run: its last traceback line
    becomes the problem and the output is None.
    """
    start = clock()
    try:
        out = run(inp)
    except Exception:
        secs = clock() - start
        return [traceback.format_exc().strip().splitlines()[-1]], secs, None
    secs = clock() - start
    return check(inp, out), secs, out


def closed_loop(run, inputs, check, seconds: float, clock=perf_counter):
    """Run inputs in order, cycling, one at a time, until `seconds` pass.

    `check(idx, inp, out)` returns a list of problems.  Each output is checked as soon as it returns and then dropped, so memory
    does not grow with the number of items run.  Returns
    ([(pool index, problems, seconds)], elapsed seconds).
    """
    records = []
    t0 = clock()
    while True:
        idx = len(records) % len(inputs)
        problems, secs, _ = checked_call(run, inputs[idx], functools.partial(check, idx),
                                         clock)
        records.append((idx, problems, secs))
        elapsed = clock() - t0
        if elapsed >= seconds:
            return records, elapsed


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)  # seconds per item, passing items only
    rates: list = field(default_factory=list)      # passing items per second, per window
    problems: list = field(default_factory=list)   # first few failure reasons

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def account(records, units, window: int = 1, keep_problems: int = 5) -> Tally:
    """Tally items attempted and failed over (pool index, problems, seconds)
    records.

    `units(idx)` is how many items one call covers (a survey batch covers
    several forms).  A call with any problem fails all of its items.
    Every `window` consecutive calls give one throughput sample; a last
    partial window is dropped, unless there is no full one.
    """
    tally = Tally()
    per_call = []  # (passing items, seconds)
    for idx, problems, secs in records:
        n = units(idx)
        tally.attempted += n
        if problems:
            tally.failed += n
            if len(tally.problems) < keep_problems:
                tally.problems.append(f"item {idx}: {'; '.join(problems)}")
            per_call.append((0, secs))
        else:
            tally.latencies.append(secs / n)
            per_call.append((n, secs))
    chunks = [per_call[k:k + window] for k in range(0, len(per_call), window)]
    full = [c for c in chunks if len(c) == window] or [per_call]
    tally.rates = [sum(n for n, _ in c) / sum(t for _, t in c) for c in full if c]
    return tally
