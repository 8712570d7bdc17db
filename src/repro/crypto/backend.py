"""The name of the field arithmetic, for the pipeline benchmark's fingerprint.

There is one implementation of the field: the scalar MiMC permutation of
:mod:`repro.crypto.mimc` over plain CPython integers.  This module only
keeps :func:`active`, whose ``.name`` is ``"python-int"``, because
``benchmarks/pipeline/child.py`` writes ``backend.active().name`` into
every run record and that directory is frozen for comparisons against
older commits.  A change to the benchmark itself can drop that read and
delete this module.
"""

from __future__ import annotations

from types import SimpleNamespace

_PYTHON_INT = SimpleNamespace(name="python-int")


def active() -> SimpleNamespace:
    """The field arithmetic every operation uses; only ``.name`` is set."""
    return _PYTHON_INT
