"""qchardy: a numerical laboratory for Hardy-space behaviour of quasiregular
mappings of the unit disc.

Building blocks: disc geometry (cone windows, hyperbolic balls), quasisymmetric
boundary maps with Beurling-Ahlfors extensions, analytic kernels and
quasiregular composites, integral functionals with convergence
classification, and Carleson-type measure testers.  The ``qchardy`` command
line maps each headline claim to a reproducible experiment.
"""

from .boundary import (
    BoundaryHomeo,
    MapCatalogEntry,
    lipschitz_modulus_inverse,
    make_map,
)
from .carleson import (
    DiscPushforward,
    bergman_carleson_constant,
    kernel_carleson,
    kernel_ratio,
    luecking_constant,
    operator_bound_proxy,
)
from .extension import (
    DiscQCMap,
    ba_extend,
    cone_image_aperture,
    make_disc_map,
)
from .functionals import (
    NormEstimate,
    area_integral,
    average_derivative,
    ball_average_derivative,
    boundary_lp,
    boundary_lp_norm,
    hardy_norm,
    integral_mean,
    maximal_lp,
    nt_maximal,
)
from .functions import (
    AnalyticFunction,
    QuasiregularMap,
    cauchy_kernel,
    compose,
    hardy_kernel,
)
from .geometry import HyperbolicBall

__version__ = "0.1.0"
