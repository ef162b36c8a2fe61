"""Floating-gate memory arrays operated as quantum annealers.

The package derives everything from cell geometry: the capacitance
network of a row of floating gates (:mod:`fgqa.cells`), the charging
energy and its two-level Ising reduction (:mod:`fgqa.charging`), the
gate-controlled tunnel amplitude through the bottom oxide
(:mod:`fgqa.tunneling`) and the phonon-limited coherence budget
(:mod:`fgqa.decoherence`).  :mod:`fgqa.annealing` runs exact
state-vector annealing on the derived (or any user-supplied)
transverse-field Ising model, with MAX-CUT as the native problem, and
:mod:`fgqa.cli` wraps it all for the command line.
"""

from .annealing import (
    EvolutionResult,
    GroundState,
    IsingModel,
    Schedule,
    apply_hamiltonian,
    brute_force_ground_state,
    chain_model,
    cut_value,
    device_parameters,
    evolve,
    fg_grid_model,
    grid_model,
    maxcut_to_ising,
    measure,
    success_probability,
)
from .cells import (
    BiasSet,
    CapacitanceNetwork,
    CellGeometry,
    MaterialStack,
    build_network,
    cell_from_coupling_ratio,
    control_oxide_thickness,
    coupling_ratio,
    single_electron_margin,
)
from .charging import (
    IsingParameters,
    ReducedChargingForm,
    charging_energy,
    effective_gate_charge,
    ising_parameters,
    minimize_charge_oracle,
    parabola_crossings,
    parabola_family,
    reduce_network,
)
from .constants import CONST, Constants, convert, fermi_energy
from .decoherence import (
    PhononEnvironment,
    ci,
    coherence_time,
    p_coherent,
    p_incoherent,
    renormalization_exponent,
    renormalized_tunneling,
    si,
    superohmic_rate,
)
from .tunneling import (
    BarrierCollapseError,
    DeviceClass,
    TunnelBarrier,
    classify,
    participants,
    tunnel_amplitude,
)

__version__ = "0.1.0"
