"""jetzeta: exact jet-space point counting, motivic zeta functions, and
monodromy Lefschetz numbers for hypersurface singularities.

The central identity checked by this package equates, for a polynomial f
vanishing at a point x, the Euler characteristic of the locus of order-m
jets on which f has valuation exactly m with the Lefschetz number of the
m-th power of the local monodromy.  The left side is computed by counting
points over finite fields and interpolating classes in the Lefschetz motive
L; the right side by A'Campo's formula on user-supplied resolution data.
"""

from __future__ import annotations

from .algebra import DaggerSeries, LaurentPoly, ds_fit, ds_hadamard, ds_limit
from .jets import (build_jet_system, class_of_jets, count_points,
                   lefschetz_via_jets, milnor_fiber_limit, multiplicity,
                   parse_poly, zeta_via_jets)
from .resolution import (LefschetzSequence, ResolutionData, acampo_lefschetz,
                         acampo_sequence, denef_loeser_zeta, load_resolution,
                         quasi_unipotent_period)

__all__ = [
    "LaurentPoly", "DaggerSeries",
    "ds_fit", "ds_hadamard", "ds_limit",
    "parse_poly", "build_jet_system", "multiplicity", "count_points",
    "class_of_jets", "lefschetz_via_jets", "zeta_via_jets",
    "milnor_fiber_limit",
    "ResolutionData", "LefschetzSequence", "acampo_lefschetz",
    "acampo_sequence", "denef_loeser_zeta", "load_resolution",
    "quasi_unipotent_period",
]

__version__ = "0.1.0"
