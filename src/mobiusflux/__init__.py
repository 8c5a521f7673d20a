"""Lattice laboratory for flux quantization on annulus and Moebius rings.

Builds the discrete magnetic Schrodinger operator of a charged particle
on a superconducting strip with either gluing, represents the vector
potential as a flat link-angle gauge field, and runs the flux-sweep
experiments that locate the quantization values: integers for the
ordinary ground state, half-odd integers for nodal states vanishing on
the center circle.
"""

from .eigensolver import (
    EigenResult,
    NoConvergenceError,
    SolverConfig,
    dense_eigh,
    lanczos_lowest,
    solve,
)
from .experiments import (
    QuantizationReport,
    SweepConfig,
    SweepRecord,
    annulus_equivalence_check,
    detect_minima,
    flux_sweep,
    ladder_periodicity_test,
    nodal_amplitude,
    persistent_current,
)
from .gauge import (
    GaugeError,
    GaugeField,
    GaugeTransform,
    WilsonResult,
    add_face_flux,
    apply_gauge_transform,
    face_curvature,
    lift_field,
    reduce_angle,
    stokes_defect,
    uniform_flux_field,
    wilson_loop,
)
from .hamiltonian import (
    EVEN,
    FULL,
    ODD,
    FluxPencil,
    HoppingParams,
    SectorIsometry,
    SparseHermitian,
    SymmetryViolationError,
    assemble,
    restrict,
    ring_spectrum_oracle,
    sector_isometry,
    sector_pencil,
)
from .lattice import (
    ANNULUS,
    MOEBIUS,
    CenterCut,
    LatticeError,
    LoopError,
    LoopPath,
    Site,
    StripLattice,
    build_lattice,
    center_loop,
    cut_complement_of_center,
    homology_class,
    offset_loop,
    walk_loop,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"
