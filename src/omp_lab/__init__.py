"""omp-lab: sparse-recovery experimentation toolkit.

Greedy pursuit solver, disparity-based recovery-probability bounds, and
a deterministic Monte Carlo harness, with a CLI front end (``omp-lab``).
Import from the modules (``omp_lab.omp``, ``omp_lab.montecarlo``, ...);
the package itself exports only ``__version__``.
"""

from ._version import __version__

__all__ = ["__version__"]
