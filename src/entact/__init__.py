"""Discord-to-entanglement activation: state families, measurement circuit,
correlation measures, finite-net certification, and simulated tomography."""

from .qcore import (
    DensityMatrix,
    chi_q,
    fidelity,
    hermitian_eigen,
)
from .protocol import (
    NetSpec,
    WaveplateSetting,
    bloch_vector,
    dedup_bloch,
    default_net,
    premeasurement,
    setting_of,
    u_b,
)
from .measures import (
    MeasureResult,
    SearchReport,
    discord_numeric,
    discord_x_state,
    negativities,
    negativities_offdiag,
    negativities_theory,
    negativity,
    negativity_of_quantumness,
    negativity_offdiag,
)
from .epsnet import (
    NetRecords,
    cap_radius,
    lower_bounds,
    net_records,
    sphere_scan,
    verify_covering,
    verify_packing,
)
from .witnesses import expect, expectations, w2, w3
from .tomo import (
    E_MAX,
    MC_REPS_MAX,
    MC_REPS_MIN,
    ErrorBar,
    Tomography,
    mc_errorbar,
    project_psd,
    reconstruct,
    simulate_counts,
    tomography,
)

__version__ = "0.1.0"
