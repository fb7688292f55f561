"""Build script for the optional compiled kernel extension.

The package works without the extension: pssim._kernels falls back to the
pure-Python implementations when the compiled module is absent.  The
extension is one hand-written C file, ``_assign.c``, that any C compiler
builds:

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("pssim._kernels._assign", ["src/pssim/_kernels/_assign.c"], optional=True)
    ]
)
