"""Package metadata for setuptools: ``pip install .`` installs the
``repro`` library from ``src/``.

Tests, benchmarks and examples run from a checkout with
``PYTHONPATH=src`` and need no install. The Python floor matches
``mypy.ini`` and the CI matrix.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
