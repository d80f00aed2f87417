"""Topological physics of lossy discrete-time quantum walks.

Momentum-space walk operators and their closed-form band structure,
winding/Chern invariants, parity-time symmetry diagnostics with
exceptional-point location, real-space edge-state spectra, and
deterministic parameter sweeps.
"""

from ._version import __version__
from .errors import (
    CheckpointMismatch,
    ConvergenceFailure,
    DegenerateCoin,
    GapClosed,
    GapClosure,
    InvalidRegion,
    NoBracket,
    OrthogonalLink,
)
from .linalg import (
    BlochDecomposition,
    eig_general,
    exp_bloch,
    hamiltonian_from_unitary,
    is_unitary,
    quasienergy,
)
from .walks import (
    CriticalGamma,
    CriticalKind,
    WalkParams1D,
    WalkParams2D,
    bloch_2d,
    bloch_ssqw,
    critical_gamma,
    min_positive_critical_gamma,
    momentum_grid,
    quasi_energy_2d,
    quasi_energy_ssqw,
    rotation_coin,
    scaling_op,
    u1d_dtqw_k,
    u1d_ssqw_k,
    u1d_ssqw_timesym_k,
    u2d_k,
    u2d_triangular_k,
)
from .invariants import (
    BandData1D,
    BandData2D,
    WindingResult,
    band_spectrum_1d,
    band_spectrum_2d,
    chern_number,
    pancharatnam_phase,
    winding_number,
)
from .symmetries import (
    SymmetryReport,
    check_cs,
    check_exact_pt,
    check_phs,
    check_pt_1d,
    find_exceptional_point,
)
from .lattice import (
    EdgeStateReport,
    RegionSpec,
    StripBands,
    build_chain_operator,
    build_strip_operator,
    chain_spectrum,
    detect_edge_states,
    strip_band_structure,
    strip_gap_states,
    strip_gap_states_grid,
)
from .sweeps import (
    SweepTable,
    sweep_chern_2d,
    sweep_chern_vs_gamma,
    sweep_phase_diagram_1d,
    sweep_winding_vs_gamma,
)
from .tables import emit_plot_script, read_table, write_table
