"""The kernel spectrum built the direct way, as a reference for the tests.

The min-image 1/r row over the full n^3 grid and its ``fftn``: slower and
larger than the package's octant, and independent of it.
"""

import numpy as np

from gravphase.noisefield import CUBE_SELF_CONSTANT


def kernel_row(n: int, dx: float) -> np.ndarray:
    """The min-image 1/r kernel row for unit coupling, K(0) from the cell average."""
    o = (np.arange(n) + n // 2) % n - n // 2
    ox, oy, oz = np.meshgrid(o, o, o, indexing="ij", sparse=True)
    r = np.sqrt((ox * ox + oy * oy + oz * oz).astype(float)) * dx
    r[0, 0, 0] = 1.0
    k_row = 1.0 / r
    k_row[0, 0, 0] = CUBE_SELF_CONSTANT / dx
    return k_row


def full_spectrum(n: int, dx: float) -> np.ndarray:
    """DFT of the kernel row over the full grid, P(n, dx); always > 0."""
    return np.fft.fftn(kernel_row(n, dx)).real
