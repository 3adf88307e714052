"""Contract between catlogic and the benchmark's hooks in catbench/.

The traced benchmark run wraps catlogic's layer functions by name and reads
the cache counts of `adjunction.lang`; a renamed function or a dropped
`cache_info` makes the traced run fail or lose metrics. These tests import
the benchmark's modules by path and check that contract here.
"""

import importlib
import importlib.util

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
