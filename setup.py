"""Build script: compiles the optional native kernels.

`src/catlogic/_core/_native.c` is a hand-written C extension; any C compiler
builds it (`python setup.py build_ext --inplace`). The package works without
it (catlogic._core falls back to the pure-Python kernels), so a failed
compile only costs speed.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("catlogic._core._native", ["src/catlogic/_core/_native.c"], optional=True)
    ]
)
