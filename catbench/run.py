"""catlogic benchmark: seeded verdict workloads, end-to-end and per layer.

Run from the repository root:

    python3 catbench/run.py --workload duality --seed 1 --seconds 22 --trace 0
    python3 catbench/run.py --workload all --seed 1 --seconds 22   # table of every workload
    python3 catbench/run.py --self-test                            # the oracles catch a wrong count

One process, one client, closed loop, no threads: items of the workload's
seeded stream are fed one at a time into catlogic's layer functions, and
only those calls are timed. Whole cycles of the stream run until the timed
total reaches --seconds (and the tail percentile has ten items beyond it).
The benchmark's oracles check each result after its timed call. The
pure-Python backend is forced (CATLOGIC_PURE=1) and checked, so a backend
switch cannot pass for a code change.

--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half with spans recorded around every layer's public
functions, and prints the per-layer metrics plus the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it carry the environment stamp and
every metric with its sample count. Full results, spans and generated brain
files go under catbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = OUT / "work"

WORKLOADS = ("duality", "adjoint", "equational", "brain")

# Tail percentile per workload, fixed so that parent and change report the
# same percentile. Each sits inside the band of one input class, not on the
# step between two classes. A run extends by whole cycles until at least
# MIN_BEYOND items lie beyond it.
TAIL_Q = {"duality": 0.99, "adjoint": 0.94, "equational": 0.95, "brain": 0.925}

MIN_BEYOND = 10

SETUP_RUNS = 9  # fresh interpreters per run for setup_s, after one warm-up

# per-layer self time, reported per traced item
SELF_TIMED = [
    "core.search_tables",
    "core.scan_tables",
    "models.enumerate_models",
    "models.homs_equal_nat_trans",
    "syncat.normalize",
    "core.reduce_word",
    "syncat.check_category_laws",
    "boolalg.lindenbaum_algebra",
    "stone.double_dual_iso",
    "core.hom_image_table",
    "core.check_hom_table",
    "adjunction.check_adjunction",
    "boolalg.enumerate_homs",
    "kernel.check_well_formed",
    "dsl.parse_file",
    "brain.load_brain",
    "brain.audit_adjunction",
    "brain.propagate",
    "cli.main",
]
# counts per traced item: (metric, source) where source is a span name
# (its call count) or a counter
PER_ITEM_COUNTS = [
    ("syncat.normalize.calls", "syncat.normalize"),
    ("dsl.parse_file.calls", "dsl.parse_file"),
    ("kernel.check_well_formed.calls_per_item", "kernel.check_well_formed"),
    ("models.models_found", "models.models_found"),
    ("core.reduce_word.letters", "core.reduce_word.letters"),
    ("core.hom_image_table.cells", "core.hom_image_table.cells"),
    ("boolalg.BoolHom.built", "boolalg.BoolHom.built"),
    ("brain.propagate.steps", "brain.propagate.steps"),
    ("cli.report_bytes", "cli.report_bytes"),
]
ADJUNCTION_CACHES = ("lang", "_lindenbaum", "canonical_iso")


def fail(message: str) -> None:
    sys.stderr.write(f"catbench: {message}\n")
    sys.exit(2)


def load_catlogic():
    """Import catlogic from this checkout's src/ on the pure backend."""
    if not (SRC / "catlogic" / "__init__.py").is_file():
        fail(f"no catlogic sources under {SRC}")
    os.environ["CATLOGIC_PURE"] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import catlogic
        import workloads
    except ImportError as exc:
        fail(f"cannot import catlogic: {exc}")
    if Path(catlogic.__file__).resolve().parent != SRC / "catlogic":
        fail(f"imported catlogic from {catlogic.__file__}, not {SRC}")
    if catlogic.BACKEND != "pure":
        fail(f"backend is {catlogic.BACKEND!r}, the benchmark measures 'pure'")
    return catlogic, workloads


# ---------------------------------------------------------------------------
# Measurement


class Stream:
    """The workload's cycles in order, hashed as they are handed out."""

    def __init__(self, workload: str, seed: int):
        import gen

        self.cycle_fn = gen.CYCLES[workload]
        self.seed = seed
        self.cycles = 0
        self.sha = hashlib.sha256()
        self.machine: list[float] = []  # machine_ms() before each cycle

    def next_cycle(self):
        items = self.cycle_fn(self.seed, self.cycles)
        self.cycles += 1
        for item in items:
            self.sha.update(item.kind.encode() + b"\0" + item.text.encode() + b"\0")
            self.sha.update(json.dumps(item.args, sort_keys=True).encode() + b"\0")
        return items


def brain_path(item) -> str | None:
    net = item.expect.get("net")
    if net is None:
        return None
    path = WORK / f"{net.name}.brain"
    if not path.exists():
        path.write_text(net.text)
    return str(path)


def judge(workloads, item, out) -> tuple[str | None, dict]:
    """Check one result with the oracles: (failure reason or None, summary)."""
    _, summarize, check = workloads.KINDS[item.kind]
    try:
        summary = summarize(item, out)
        reason = check(item, summary)
        if reason is None and item.kind in workloads.REPEATED:
            if workloads.repeat_cli(summary) != summary["stdout"]:
                reason = "repeated command gave different stdout"
    except Exception as exc:  # an oracle that cannot read the result fails the item
        return f"oracle raised {type(exc).__name__}: {exc}", {}
    return reason, summary


def machine_ms() -> float:
    """Median time of a fixed pure-Python loop (about 2 ms): how fast the
    machine runs right now. Stamped per cycle, outside the timed calls, so a
    result shows how much of its spread the machine explains."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def measure(workloads, stream: Stream, seconds: float, recorder=None, min_items: int = 0) -> list[dict]:
    """Feed whole cycles until the timed total reaches `seconds` and at
    least `min_items` items ran. Each result is checked right after its
    timed call, with the recorder paused."""
    clock = time.perf_counter
    records: list[dict] = []
    total = 0.0
    while total < seconds or len(records) < min_items:
        stream.machine.append(machine_ms())
        for item in stream.next_cycle():
            call = workloads.KINDS[item.kind][0]
            path = brain_path(item)
            if recorder is not None:
                recorder.item = len(records)
                recorder.paused = False
            t0 = clock()
            try:
                out = call(item, path)
            except Exception as exc:  # a raising request is a failed item
                elapsed = clock() - t0
                reason, summary = f"{type(exc).__name__}: {exc}", {}
            else:
                elapsed = clock() - t0
                if recorder is not None:
                    recorder.paused = True
                reason, summary = judge(workloads, item, out)
            total += elapsed
            records.append(
                {
                    "label": f"{item.kind} {item.label}",
                    "t": t0,
                    "seconds": elapsed,
                    "failure": reason,
                    "report_bytes": len(summary.get("stdout", "")),
                }
            )
    return records


def failures_of(records: list[dict]) -> list[str]:
    return [f"item {i} ({r['label']}): {r['failure']}" for i, r in enumerate(records) if r["failure"] is not None]


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def item_stats(records: list[dict], q: float) -> dict:
    times = sorted(r["seconds"] for r in records)
    n = len(times)
    tail = quantile(times, q)
    return {
        "items_per_s": {"value": n / sum(times), "unit": "1/s", "n": n},
        "item_ms.p50": {"value": 1000 * statistics.median(times), "unit": "ms", "n": n},
        "item_ms.tail": {
            "value": 1000 * tail,
            "unit": "ms",
            "n": n,
            "percentile": 100 * q,
            "beyond": sum(1 for t in times if t > tail),
        },
    }


def setup_seconds() -> dict:
    """Median wall time of a fresh interpreter importing catlogic.cli."""
    env = dict(os.environ, CATLOGIC_PURE="1", PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import catlogic.cli"]
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:  # the first run writes bytecode caches
            times.append(time.perf_counter() - t0)
    return {"value": statistics.median(times), "unit": "s", "n": SETUP_RUNS}


def peak_rss_mb() -> dict:
    # ru_maxrss is in KiB on Linux
    return {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB", "n": 1}


def per_class(records: list[dict]) -> dict:
    by: dict[str, list[float]] = {}
    for r in records:
        by.setdefault(r["label"], []).append(r["seconds"])
    return {k: {"n": len(v), "median_ms": 1000 * statistics.median(v)} for k, v in sorted(by.items())}


# ---------------------------------------------------------------------------
# Per-layer metrics


def cache_counts(adjunction) -> tuple[int, int] | None:
    """(hits, misses) summed over adjunction's lru caches, or None once the
    module has no cache_info to read."""
    infos = [getattr(getattr(adjunction, n, None), "cache_info", None) for n in ADJUNCTION_CACHES]
    infos = [f() for f in infos if f is not None]
    if not infos:
        return None
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def layer_metrics(recorder, records: list[dict], cache_delta, overhead: float) -> dict:
    n = len(records)
    totals = recorder.layer_totals()
    counters = dict(recorder.counters)
    counters["cli.report_bytes"] = sum(r["report_bytes"] for r in records)

    def calls(name):
        return totals.get(name, (0.0, 0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, dict] = {}
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = {"value": totals.get(name, (0.0, 0))[0] / n, "unit": "s/item"}
    for metric, source in PER_ITEM_COUNTS:
        value = calls(source) if source in totals else counters.get(source, 0)
        m[metric] = {"value": value / n, "unit": "count/item"}
    m["syncat.detect_group_presentation.calls_per_theory"] = {
        "value": ratio(calls("syncat.detect_group_presentation"), len(recorder.theories)),
        "unit": "calls/theory",
    }
    m["adjunction.transpose.calls_per_left"] = {
        "value": ratio(calls("adjunction.transpose"), counters.get("adjunction.left", 0)),
        "unit": "calls/left",
    }
    m["adjunction.naturality.checked_share"] = {
        "value": ratio(counters.get("adjunction.naturality.checked", 0), counters.get("adjunction.naturality.total", 0)),
        "unit": "share",
    }
    if cache_delta is not None:
        hits, misses = cache_delta
        m["adjunction.cache.hit_ratio"] = {"value": ratio(hits, hits + misses), "unit": "share"}
        m["adjunction.cache.hits"] = {"value": hits / n, "unit": "count/item"}
        m["adjunction.cache.misses"] = {"value": misses / n, "unit": "count/item"}
    m["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return m


# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return git.stdout.strip() if git.returncode == 0 else None


def stamp(catlogic, workload: str, seed: int, seconds: float, trace: int, stream: Stream) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "catlogic").rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backend": catlogic.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source.hexdigest(),
        "inputs_sha256": stream.sha.hexdigest(),
        "cycles": stream.cycles,
        "machine_ms": statistics.median(stream.machine),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    catlogic, workloads = load_catlogic()
    import spans

    OUT.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    stream = Stream(workload, seed)
    q = TAIL_Q[workload]
    try:
        if trace:
            plain = measure(workloads, stream, seconds / 2)
            recorder = spans.SpanRecorder()
            before = cache_counts(catlogic.adjunction)
            recorder.install()
            try:
                traced = measure(workloads, stream, seconds / 2, recorder)
            finally:
                recorder.uninstall()
            after = cache_counts(catlogic.adjunction)
            delta = None if before is None or after is None else (after[0] - before[0], after[1] - before[1])
            overhead = item_stats(traced, q)["items_per_s"]["value"] / item_stats(plain, q)["items_per_s"]["value"]
            metrics = layer_metrics(recorder, traced, delta, overhead)
            records = plain + traced
            span_file = OUT / f"spans-{workload}.bin"  # one file per workload bounds the disk used
            recorder.dump(span_file)
            extra = {
                "spans": recorder.span_count(),
                "span_file": str(span_file.relative_to(ROOT)),
                "hook_errors": recorder.hook_errors,
            }
        else:
            setup = setup_seconds()
            # enough items that MIN_BEYOND lie beyond the tail percentile
            records = measure(workloads, stream, seconds, min_items=math.ceil(1 + MIN_BEYOND / (1 - q)))
            rss = peak_rss_mb()
            metrics = item_stats(records, q)
            metrics["setup_s"] = setup
            metrics["peak_rss_mb"] = rss
            extra = {}
        failures = failures_of(records)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted, failed = len(records), len(failures)
    summary = dict(metrics)
    if not trace:
        summary["failed_share"] = {"value": failed / attempted, "unit": "share", "n": attempted}
    result = {
        "stamp": stamp(catlogic, workload, seed, seconds, trace, stream),
        "machine_ms_per_cycle": [round(m, 4) for m in stream.machine],
        "metrics": summary,
        "classes": per_class(records),
        "series": [[r["label"], round(r["t"], 4), round(r["seconds"], 6)] for r in records],
        "failures": failures[:50],
        **extra,
    }
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=2) + "\n")
    for line in failures[:10]:
        sys.stderr.write(f"FAILED {line}\n")
    print(json.dumps({"stamp": result["stamp"]}, sort_keys=True))
    print(json.dumps({"summary": summary}, sort_keys=True))
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(final))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """One process per workload (peak RSS is per process); print a table."""
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            fail(f"{workload} exited {proc.returncode}")
        summary = json.loads(lines[-2])["summary"]
        final = json.loads(lines[-1])
        rows.append((workload, summary, final))
    print(f"{'workload':<11} {'metric':<52} {'value':>12}  {'unit':<11} samples")
    for workload, summary, final in rows:
        for name, m in summary.items():
            n = m.get("n", "")
            if "percentile" in m:
                n = f"{n} (p{m['percentile']:g}, {m['beyond']} beyond)"
            print(f"{workload:<11} {name:<52} {m['value']:>12.6g}  {m['unit']:<11} {n}")
        print(f"{workload:<11} {'correct':<52} {str(final['correct']):>12}  "
              f"{'':<11} {final['attempted']} attempted, {final['failed']} failed")
    return 0 if all(final["correct"] for _, _, final in rows) else 1


def self_test() -> int:
    """A wrong expected count must surface as a failed item: 15 groups of
    order 4 instead of 16."""
    catlogic, workloads = load_catlogic()
    import gen

    item = next(i for i in gen.equational_cycle(0, 0) if i.kind == "search" and i.label == "group:4")
    wrong = item._replace(expect=dict(item.expect, count=15))
    out = workloads.KINDS[item.kind][0](item, None)
    failures = [reason for it in (item, wrong) if (reason := judge(workloads, it, out)[0])]
    share = len(failures) / 2
    print(json.dumps({"self_test": {"failed_share": share, "failures": failures}}))
    if len(failures) == 1 and "known labelled count 15" in failures[0]:
        return 0
    sys.stderr.write("catbench: self-test failed: the wrong count was not caught\n")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
