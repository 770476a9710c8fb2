"""Growth and remodeling toolkit for textile-reinforced engineered tissues.

Simulates collagen deposition inside a large-deformation anisotropic
hyperelastic composite (ground matrix + dispersed collagen + knitted
scaffold), from single material points up to hexahedral finite element
models, and calibrates the model constants against test data.
"""

from .errors import (ConfigError, DeformationError, FitError, MaturesimError,
                     MeshError, ParameterError, SolverError, StateError)
from .growth import (GrowthParams, GrowthState, bio_rate, weibull_alpha,
                     weibull_alpha_rate)
from .materials import (CollagenParams, MaterialParams, MatrixParams,
                        StressTangent, TextileParams, cauchy_stress,
                        total_response)
from .tensors import from_voigt, gen_structural_tensor, to_voigt, unit_vector

__version__ = "0.1.0"
