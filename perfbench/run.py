"""Benchmark of the exact rank lab: one workload per run, from the repo root.

    python3 perfbench/run.py --workload rank-prime --seed 0 --seconds 20 --trace 0

With --trace 0 it reports the end-to-end metrics of one closed-loop
workload, measured with tracing off.  With --trace 1 it runs the
workload's fixed traced item list twice untraced and twice traced, checks
that the exact work counts repeat, times the baseline-table probes, and
reports the per-layer metrics.  Every output is checked; the last line of
stdout is the JSON result.  Spans and a full report go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git without running git, if present."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _host_steal_s() -> float | None:
    """CPU time the hypervisor took from this VM's vCPUs, all of them."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def provenance(workload: str, seed: int) -> dict:
    import numpy as np
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": _git_commit()}


def setup_samples(workload: str, seed: int, n: int) -> list[float]:
    """Seconds from spawning a fresh process to its first timed item: the
    import, the fields and extensions, and the untimed warm-up item."""
    out = []
    for _ in range(n):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            out.append(perf_counter() - start)
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(w, seconds: float, setup: list[float]) -> tuple[dict, object, dict]:
    from measure import account, closed_loop, percentile

    pool = w.inputs()
    steal0 = _host_steal_s()
    records, wall = closed_loop(w.run, pool, w.check, seconds)
    steal1 = _host_steal_s()
    tally = account(records, w.units, window=w.window)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = tally.latencies or [0.0]  # nothing passed: correct is false anyway
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "items_per_s": _metric(statistics.median(tally.rates), "1/s"),
        "item_p50_ms": _metric(percentile(lat, 50) * 1000.0, "ms"),
        "item_p90_ms": _metric(percentile(lat, 90) * 1000.0, "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    detail = {"wall_s": wall, "calls": len(records), "latency_samples": len(tally.latencies),
              "rate_windows": len(tally.rates),
              "host_steal_s": None if steal0 is None else steal1 - steal0,
              "setup_samples_s": setup, "fail_frac": tally.fail_frac,
              "problems": tally.problems}
    return metrics, tally, detail


def traced_run(w, seed: int) -> tuple[dict, object, dict]:
    from measure import Tally, account, checked_call
    from probes import run_probes
    from tracing import EXACT_STATS, Tracer, layer_values, span_records

    pool = w.inputs()[:w.trace_items]

    def one_pass(tracer=None):
        records, outs = [], []
        start = perf_counter()
        for idx, inp in enumerate(pool):
            if tracer is not None:
                tracer.item = idx
            problems, secs, out = checked_call(w.run, inp, functools.partial(w.check, idx))
            records.append((idx, problems, secs))
            outs.append(out)
        return records, outs, perf_counter() - start

    plain, passes = [], []
    for _ in range(2):  # alternate so that a drift of the host hits both sides
        records, _, wall = one_pass()
        plain.append((records, wall))
        tracer = Tracer()
        with tracer:
            records, outs, wall = one_pass(tracer)
        passes.append((tracer, records, outs, wall))
    tallies = [account(r, w.units) for r in [p[0] for p in plain] + [p[1] for p in passes]]
    tally = Tally(attempted=sum(t.attempted for t in tallies),
                  failed=sum(t.failed for t in tallies),
                  problems=[p for t in tallies for p in t.problems][:5])

    tables = [p[0].by_function() for p in passes]
    exact = [{name: {k: v for k, v in agg.items() if k in EXACT_STATS}
              for name, agg in table.items()} for table in tables]
    counts_repeat = exact[0] == exact[1]
    if not counts_repeat:
        tally.problems.append("exact work counts differ between the two traced runs")
    absent = passes[0][0].absent
    values = [layer_values(t, absent) for t in tables]
    layer = {}
    for name, v in values[0].items():
        stat = name.rsplit(".", 1)[1]
        if stat == "self_s":
            layer[name] = _metric((v + values[1][name]) / 2, "s")
        elif stat == "success_per_tried":
            layer[name] = _metric(v, "ratio")
        else:
            layer[name] = _metric(v, "count")
    for name, v in w.layer_counts(passes[0][2]).items():
        layer[name] = _metric(v, "bytes")
    layer.setdefault("survey.csv_bytes", _metric(0, "bytes"))
    wall_plain = sum(p[1] for p in plain)
    wall_traced = sum(p[3] for p in passes)
    layer["trace.overhead_frac"] = _metric(wall_traced / wall_plain - 1.0, "ratio")
    probes = run_probes(seed)
    for p in probes:
        layer[p["name"]] = _metric(p["ms"], "ms")

    spans_path = OUT_DIR / f"spans-{w.name}.jsonl.gz"
    with gzip.open(spans_path, "wt") as fh:
        for rec in span_records(passes[0][0].spans):
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    detail = {"items": len(pool), "wall_untraced_s": [p[1] for p in plain],
              "wall_traced_s": [p[3] for p in passes], "counts_repeat": counts_repeat,
              "absent": absent, "functions": tables[0], "probes": probes,
              "spans_file": str(spans_path.relative_to(ROOT)),
              "problems": tally.problems}
    return layer, tally, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "trlab" / "__init__.py").is_file():
        print(f"no trlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)

    if args.setup_child:
        import trlab.cli  # noqa: F401  (the import a CLI user pays for)
        from workloads import WORKLOADS
        w = WORKLOADS[args.workload](args.seed, OUT_DIR)
        try:
            w.warm_up()
        finally:
            w.close()
        print("ready", flush=True)
        return 0

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup = [] if args.trace else setup_samples(args.workload, args.seed, SETUP_SAMPLES)
    import trlab.cli  # noqa: F401
    w = WORKLOADS[args.workload](args.seed, OUT_DIR)
    try:
        w.warm_up()
        if args.trace:
            metrics, tally, detail = traced_run(w, args.seed)
        else:
            metrics, tally, detail = end_to_end(w, args.seconds, setup)
    finally:
        w.close()

    prov = provenance(args.workload, args.seed)
    report = {"provenance": prov, "trace": args.trace, "seconds": args.seconds,
              "metrics": metrics, "attempted": tally.attempted, "failed": tally.failed,
              **detail}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        if not name.startswith("probe."):
            print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        for p in detail["probes"]:
            print(f"{p['name']:48s} {p['ms']:>14.6g} ms   (ROADMAP baseline {p['roadmap']})")
        if detail["absent"]:
            print("absent: " + ", ".join(detail["absent"]))
        print(f"exact counts repeat across two traced runs: {detail['counts_repeat']}")
    else:
        steal = detail["host_steal_s"]
        print(f"latency samples: {detail['latency_samples']}; throughput windows: "
              f"{detail['rate_windows']}; set-up samples: {len(detail['setup_samples_s'])}; "
              "host steal during the timed phase: "
              + ("n/a" if steal is None else f"{steal:.2f} s"))
    print(f"fail_frac {tally.fail_frac:.6g} ({tally.failed}/{tally.attempted})")
    for p in tally.problems:
        print("problem: " + p)
    correct = tally.failed == 0 and not tally.problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
