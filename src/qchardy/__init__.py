"""qchardy: a numerical laboratory for Hardy-space behaviour of quasiregular
mappings of the unit disc.

Building blocks: disc geometry (cone windows, hyperbolic balls), quasisymmetric
boundary maps with Beurling-Ahlfors extensions, analytic kernels and
quasiregular composites, integral functionals with convergence
classification, and Carleson-type measure testers.  The ``qchardy`` command
line maps each headline claim to a reproducible experiment.
"""

from .extension import make_disc_map
from .functionals import boundary_lp_norm, hardy_norm
from .functions import cauchy_kernel, compose

__version__ = "0.1.0"
