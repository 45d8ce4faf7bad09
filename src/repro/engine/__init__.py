"""The ``pf`` / ``pelf`` commands and the cross-pass resynthesis cache.

The sequential operator sweeps visit nodes one at a time; the only speed
lever ELF adds on top is classifier pruning, and the exact screens of
:mod:`repro.opt.refactor` are the lossless one.  This subsystem holds:

* :func:`engine_refactor` (``pf`` / ``pelf``, :mod:`repro.engine.refactor`)
  runs the sequential refactor or ELF sweep at every worker count, so
  its output is byte-identical to ``rf`` / ``elf`` at any ``-w``.
  ``prw`` / ``prwz`` are registry aliases of ``rw`` / ``rwz`` that
  accept ``-w`` the same way.  No command runs a worker pool or commit
  waves: the measured concurrent designs lost to the sequential sweep
  (``docs/engine.md``).
* :class:`ResynthCache` (:mod:`repro.engine.cache`), the cross-pass
  memo every refactor-family step of one flow shares.
"""

from .cache import ResynthCache
from .refactor import EngineParams, EngineStats, engine_refactor

__all__ = [
    "EngineParams",
    "EngineStats",
    "ResynthCache",
    "engine_refactor",
]
