"""Variable-resolution multi-spectral MRI toolkit.

Simulates multi-spectral acquisitions near metal on synthetic phantoms,
reconstructs them with conventional and learned pipelines, and scores the
results (SSIM, PSNR, edge sharpness, rank tests).
"""

__version__ = "0.2.0"

from vrmsi.core import (
    MultiSpectralStack,
    save_stack,
    load_stack,
)

__all__ = [
    "MultiSpectralStack",
    "save_stack",
    "load_stack",
    "__version__",
]
