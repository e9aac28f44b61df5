"""Helpers shared by the test modules."""

import os

import phkit


def child_env():
    """The environment with phkit's absolute source root first on PYTHONPATH.

    CLI children run in a temporary directory, where a relative entry such
    as ``src`` no longer resolves.
    """
    package_dir = os.path.dirname(os.path.abspath(phkit.__file__))
    src_root = os.path.dirname(package_dir)
    path = os.pathsep.join(
        p for p in (src_root, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)
