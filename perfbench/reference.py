"""Closed-form spectra the benchmark checks the program's outputs against.

For a uniform field with no potential the strip Hamiltonian separates
into plane waves along the ring times sine modes across the width:

    E(k, m) = 2 tx (1 - cos(2 pi (k + f + s_m) / nx)) + 2 ty (1 - cos(pi m / (ny + 1)))

for k = 0..nx-1 and m = 1..ny.  The Moebius seam flips the row order,
under which the sine mode m has parity (-1)^(m+1): the y-odd modes (even
m) pick up an extra half twist, s_m = 1/2.  Every other mode, and every
mode on the annulus, has s_m = 0.  The even reflection sector holds the
odd m, the odd sector the even m.

This module depends on numpy only, never on the program under test.
"""

from __future__ import annotations

import math

import numpy as np

SOLVER_TOL = 1e-8  # k lowest eigenvalues of one spectrum (acceptance criterion 8)
ORACLE_TOL = 1e-10  # every column of a dense sweep (acceptance criterion 8)


def _mode_energies(nx, ny, moebius, f, tx, ty) -> np.ndarray:
    """E(k, m) as an (nx, ny) array, column m-1 holding sine mode m."""
    k = np.arange(nx)[:, None]
    m = np.arange(1, ny + 1)[None, :]
    shift = np.where(moebius & (m % 2 == 0), 0.5, 0.0)
    return (2.0 * tx * (1.0 - np.cos(2.0 * np.pi * (k + f + shift) / nx))
            + 2.0 * ty * (1.0 - np.cos(np.pi * m / (ny + 1))))


def exact_spectrum(nx: int, ny: int, moebius: bool, f: float, tx: float = 1.0,
                   ty: float = 1.0, sector: str = "full") -> np.ndarray:
    """All eigenvalues of one sector, ascending.

    ``moebius`` is true only for a band whose seam really flips the rows;
    a Moebius lattice with the flip disabled is an annulus here.
    """
    energies = _mode_energies(nx, ny, moebius, f, tx, ty)
    if sector == "even":
        energies = energies[:, 0::2]
    elif sector == "odd":
        energies = energies[:, 1::2]
    elif sector != "full":
        raise ValueError(f"unknown sector {sector!r}")
    return np.sort(energies.ravel())


def ground_node_amplitude(nx: int, ny: int, moebius: bool, f: float, tx: float = 1.0,
                          ty: float = 1.0) -> float:
    """Max |psi| on the center row of the full-lattice ground state.

    The ground state is one plane wave times one sine mode m, so its
    center-row amplitude is sqrt(2 / (nx (ny + 1))) |sin(pi m (c + 1) / (ny + 1))|
    with c = (ny - 1) / 2: the full value for odd m, zero for even m.
    Only meaningful when the ground state is not degenerate.
    """
    energies = _mode_energies(nx, ny, moebius, f, tx, ty)
    mode = int(np.unravel_index(np.argmin(energies), energies.shape)[1]) + 1
    c = (ny - 1) // 2
    return math.sqrt(2.0 / (nx * (ny + 1))) * abs(math.sin(math.pi * mode * (c + 1) / (ny + 1)))


def matches(values, reference, tol: float) -> bool:
    """Entrywise agreement of the leading ``len(values)`` reference values."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)[: len(values)]
    return len(values) == len(reference) and bool(np.all(np.abs(values - reference) <= tol))


def sound(values, spectrum, tol: float) -> bool:
    """The values ascend and each matches an eigenvalue of its own within ``tol``.

    The match respects multiplicity: a value repeated more often than
    its eigenvalue (a ghost copy) is unsound.  A sound but incomplete
    list holds true eigenvalues yet skips one below its last entry, the
    known failure of a single-vector Krylov solver at degenerate flux.
    ``spectrum`` must be ascending.
    """
    values = np.asarray(values, dtype=float)
    if np.any(np.diff(values) < -tol):
        return False
    j = 0  # the first eigenvalue not yet matched; matching the lowest fit is optimal
    for v in values:
        while j < len(spectrum) and spectrum[j] < v - tol:
            j += 1
        if j == len(spectrum) or spectrum[j] > v + tol:
            return False
        j += 1
    return True
