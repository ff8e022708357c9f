"""Equivariant convolution kernels and nonlinearities in the Fourier domain,
on the sphere under rotations and on the plane and 3-space under rigid
motions, plus the verification harness exercising their provable properties.
"""

__version__ = "0.1.0"

from .groups import QuadratureGrid, Rotation3, quadrature_grid
from .fields import (FieldType, GroupFunction, TensorField, induced_action,
                     lift, project, regular_action)
from .transforms import (ShtCoeffs, SpectralBlocks, fiber_dft, sht_forward,
                         sht_inverse, so3_ft_forward, so3_ft_inverse)
from .spectral_conv import (SparseKernelSpec, conv_field, conv_spectral,
                            conv_spatial_oracle, conv_vjp, kernel_to_spatial)
from .nonlin import ActivationSpec, nonlinearity, point_sphere_nonlin
from .se_kernels import (PointCloud, SE2KernelBasis, SE3KernelBasis,
                         se2_kernel_eval, se3_kernel_eval, se3_layer,
                         tfn_point_conv)
from .checks import CheckReport, run_suite
