"""Build script: compiles the optional fast kernels.

The package works without the extension (catlogic._core falls back to the
pure-Python kernels), so a failed compile only costs speed. With Cython the
extension is generated from `_native.pyx`; without it, the shipped
`_native.c` is compiled as a plain C extension.
"""

import warnings

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    # no Cython: compile the shipped generated C file, optional as above
    ext_modules = [
        Extension("catlogic._core._native", ["src/catlogic/_core/_native.c"], optional=True)
    ]
else:
    try:
        ext_modules = cythonize(
            [Extension("catlogic._core._native", ["src/catlogic/_core/_native.pyx"])],
            compiler_directives={"language_level": "3"},
        )
    except Exception as exc:  # pragma: no cover - build environment dependent
        warnings.warn(f"fast kernels not built ({exc}); using pure-Python fallback")
        ext_modules = []

setup(ext_modules=ext_modules)
