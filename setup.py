"""Build script for the optional compiled kernel extension.

The package works without the extension: pssim._kernels falls back to the
pure-Python implementations when the compiled module is absent.  With Cython
installed the extension is built from ``_core.pyx``; without it, from the
committed ``_core.c`` that Cython generated from it.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [
        Extension(
            "pssim._kernels._core",
            ["src/pssim/_kernels/_core.c"],
            optional=True,
        )
    ]
else:
    ext_modules = cythonize(
        [
            Extension(
                "pssim._kernels._core",
                ["src/pssim/_kernels/_core.pyx"],
                optional=True,
            )
        ],
        compiler_directives={"language_level": "3"},
    )

setup(ext_modules=ext_modules)
