from setuptools import setup

# All metadata lives in pyproject.toml; this shim keeps
# ``python setup.py develop`` working where ``wheel`` is unavailable.
setup()
