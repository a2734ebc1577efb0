"""Unified max/min/mixed fractional programming toolkit.

Modules:

* :mod:`mmfp.fp_core` -- scalar ratio transforms and the mixed problem type
* :mod:`mmfp.fp_matrix` -- matrix-ratio extension
* :mod:`mmfp.lagrangian_dual` -- log-ratio decoupling via dual auxiliaries
* :mod:`mmfp.solver` -- MM driver and projected-gradient subproblem solver
* :mod:`mmfp.aoi` -- update-rate control minimizing average age of information
* :mod:`mmfp.radar` -- multi-radar waveform design minimizing estimation bounds
* :mod:`mmfp.secure` -- power control maximizing weighted secure rates
* :mod:`mmfp.cli` -- experiment runner (``mmfp run | sweep | verify``)
"""

__version__ = "0.1.0"
