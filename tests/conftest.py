import importlib.util
import os
import pathlib
import shutil
import sysconfig

import pytest

from catlogic.dsl import parse_file

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
NATIVE_SOURCE = ROOT / "src" / "catlogic" / "_core" / "_native.c"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


@pytest.fixture(scope="session")
def group_theory():
    return parse_file(fixture_text("group.thy"))[0]


@pytest.fixture(scope="session")
def group_alt_theory():
    return parse_file(fixture_text("group_alt.thy"))[0]


@pytest.fixture(scope="session")
def prop_theories():
    return {t.name: t for t in parse_file(fixture_text("props.thy"))}


@pytest.fixture(scope="session")
def xor_pair(prop_theories):
    return prop_theories["XOR_PAIR"]


@pytest.fixture(scope="session")
def native(tmp_path_factory):
    """The native kernels, built from source when the package has none.

    Uses the package's own extension when it imports; otherwise compiles
    `_native.c` into a temporary directory and loads it from there, without
    touching the source tree or the package's backend selection. Skips only
    when no C compiler is available.
    """
    try:
        from catlogic._core import _native
    except ImportError:
        pass
    else:
        return _native
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "").split()
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler to build the native kernels")

    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("native")
    ext = Extension("catlogic._core._native", [str(NATIVE_SOURCE)])
    cmd = build_ext(Distribution({"ext_modules": [ext]}))
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(ext.name, cmd.get_ext_fullpath(ext.name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
