"""shvkernel: exact-arithmetic verification kernel for the N=1 super
Heisenberg-Virasoro algebra at level zero.

Subpackages:

* :mod:`shvkernel.scalars`     -- exact rationals / parameter polynomials
* :mod:`shvkernel.exact_linalg`-- fraction-free linear algebra, and the
                                  coordinate map of a graded piece
* :mod:`shvkernel.shv_algebra` -- the superalgebra: brackets, PBW rewriting
* :mod:`shvkernel.verma`       -- highest weight modules, Shapovalov forms,
                                  singular / subsingular vector certification
* :mod:`shvkernel.freefield`   -- lattice-fermion realization and screenings
* :mod:`shvkernel.qchar`       -- graded characters as truncated q-series
* :mod:`shvkernel.fock`        -- Fock states, vectors and free modes
* :mod:`shvkernel.cli`         -- command line front end
* :mod:`shvkernel.acceptance`  -- the pinned acceptance battery
"""

__version__ = "0.1.0"
