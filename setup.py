"""Setuptools metadata for the ``repro`` package.

This file is the project's only packaging metadata (there is no
``pyproject.toml``).  ``pip install -e .`` or ``python setup.py develop``
installs the package from ``src/``; the tests also run straight from a
checkout with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    description='Reproduction of "On Utilization of Contributory Storage in Desktop Grids"',
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
