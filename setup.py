"""Legacy setup shim so editable installs work without network access.

Without the ``wheel`` package, PEP 517 editable builds are unavailable;
``pip install -e . --no-build-isolation`` (or ``python setup.py
develop``) falls back to this ``setup.py``-based path. All metadata
lives in ``setup.cfg``.
"""

from setuptools import setup

setup()
