"""Equivariant convolution kernels and nonlinearities in the Fourier domain,
on the sphere under rotations and on the plane and 3-space under rigid
motions, plus the verification harness exercising their provable properties.
"""

__version__ = "0.1.0"

# mallopt parameters of glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    """On glibc, serve blocks under 4 MiB from the heap and return its free
    top to the OS only past 16 MiB, so that the numpy temporaries of one op
    reuse the pages of the last instead of faulting them in again.  Does
    nothing on other C libraries, or when the environment already sets
    glibc's thresholds (MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_ or a
    glibc.malloc tunable)."""
    import ctypes
    import os
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):     # not glibc, or no confstr
        return
    env = os.environ
    if (not libc.startswith("glibc") or "MALLOC_MMAP_THRESHOLD_" in env
            or "MALLOC_TRIM_THRESHOLD_" in env
            or "glibc.malloc." in env.get("GLIBC_TUNABLES", "")):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


_keep_freed_heap()

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
