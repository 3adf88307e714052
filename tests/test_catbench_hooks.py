"""Contract between catlogic and the benchmark's hooks in catbench/.

The traced benchmark run wraps catlogic's layer functions by name and reads
the cache counts of `adjunction.lang`; a renamed function or a dropped
`cache_info` makes the traced run fail or lose metrics. The workloads read
fields off catlogic's results; a changed return type fails every item.
These tests import the benchmark's modules by path, or run them in a
subprocess, and check that contract here.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

from conftest import ROOT

LAYERS = ("_core", "dsl", "kernel", "boolalg", "stone", "syncat", "models", "adjunction", "brain", "cli")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"catbench_{name}", ROOT / "catbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(modules):
    return {m.__name__: dict(vars(m)) for m in modules}


def test_span_recorder_installs_and_restores_every_patched_attribute():
    modules = [importlib.import_module(f"catlogic.{layer}") for layer in LAYERS]
    from catlogic.boolalg import BoolHom

    before = _snapshot(modules)
    post_init = BoolHom.__post_init__
    spans = _load("spans")
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        patched = {(owner, attr) for owner, attr, _ in recorder._patched}
        for layer, functions in spans.TRACED.items():
            home = importlib.import_module(f"catlogic.{layer}")
            for fname in functions:
                assert (home, fname) in patched, f"catlogic.{layer}.{fname} was not wrapped"
        assert BoolHom.__post_init__ is not post_init
    finally:
        recorder.uninstall()
    after = _snapshot(modules)
    for name, attrs in before.items():
        changed = [a for a, v in attrs.items() if after[name].get(a) is not v]
        assert not changed, f"{name}: {changed} not restored"
    assert BoolHom.__post_init__ is post_init


def test_adjunction_cache_counts_are_readable():
    import catlogic.adjunction

    assert _load("run").cache_counts(catlogic.adjunction) is not None


# one cheap item (label) per request kind, from seed 1, cycle 0
CHEAP_ITEMS = {
    "duality": "atoms=0",
    "adjoint": "B=0,T=0",
    "search": "idempotent:3",
    "raw": "idempotent:2",
    "nat": "idempotent:2x3:d2",
    "laws": "idempotent:d2",
    "normalize": "group:x40",
    "brain-check": "neurons=3",
    "brain-run": "neurons=3",
    "brain-export": "neurons=3",
    "brain-check-bad": "neurons=3,false-composite",
    "brain-replay": "neurons=3,false-composite",
}

# Runs with catbench/ as its directory, so `import oracles` finds the
# benchmark's oracles and not tests/oracles.py. Prints {kind: [reason,
# seconds]}, timing only the call into catlogic as the harness does; brain
# files go to the directory named by the second argument.
_DRIVE_KINDS = """
import json, sys, time
from pathlib import Path
import gen, run
catlogic, workloads = run.load_catlogic()
cheap = json.loads(sys.argv[1])
work = Path(sys.argv[2])
items = {}
for cycle in gen.CYCLES.values():
    for item in cycle(1, 0):
        if cheap.get(item.kind) == item.label:
            items.setdefault(item.kind, item)
out = {"kinds": sorted(workloads.KINDS), "results": {}}
for kind, item in items.items():
    path = None
    if "net" in item.expect:
        path = str(work / (item.expect["net"].name + ".brain"))
        Path(path).write_text(item.expect["net"].text)
    t0 = time.perf_counter()
    try:
        result = workloads.KINDS[kind][0](item, path)
    except Exception as exc:
        reason = f"{type(exc).__name__}: {exc}"
    else:
        reason = None
    elapsed = time.perf_counter() - t0
    if reason is None:
        reason = run.judge(workloads, item, result)[0]
    out["results"][kind] = [reason, elapsed]
print(json.dumps(out))
"""


def test_one_item_of_every_kind_passes_the_benchmark_checks(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVE_KINDS, json.dumps(CHEAP_ITEMS), str(tmp_path)],
        cwd=ROOT / "catbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["kinds"] == sorted(CHEAP_ITEMS), "a request kind has no cheap item here"
    results = out["results"]
    assert sorted(results) == sorted(CHEAP_ITEMS), "a cheap item label is no longer generated"
    failures = {kind: reason for kind, (reason, _) in results.items() if reason is not None}
    assert not failures
    # the cheapest items take milliseconds each; seconds mean a runaway path
    assert sum(seconds for _, seconds in results.values()) < 5.0
