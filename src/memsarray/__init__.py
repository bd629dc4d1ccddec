"""Desk-scale simulation and analysis chain for a modular MEMS microphone array.

Pipeline stages: geometry generation and sub-array sampling, propagation
models, acquisition-chain simulation (PDM/decimation/packets), scene
synthesis, Welch cross-spectral estimation, beamforming with CLEAN-SC
deconvolution, and directivity / far-field analysis.
"""

__version__ = "0.1.0"

from .analysis import (
    DirectivitySurface,
    FarFieldComparison,
    RegionOfInterest,
    directivity,
    distance_normalize,
    farfield_compare,
    integrate_map,
    maps_to_spectrum,
    octave_polar,
)
from .acquisition import (
    DaqPacket,
    GapRecord,
    depacketize,
    packetize,
    pdm_decimate,
    pdm_modulate,
    phase_skew_budget,
    stream_data_rate,
)
from .beamforming import (
    BeamformingMap,
    FocusGrid,
    SteeringGeometry,
    SteeringSet,
    clean_sc,
    conventional_beamform,
    make_focus_grid,
    steering_geometry,
    steering_vectors,
)
from .errors import ConfigError, ConstraintError, NumericalError, ProtocolError
from .geometry import (
    ArrayGeometry,
    ObservationAngles,
    SubArray,
    assemble_full_array,
    fermat_spiral,
    generate_pcb_layout,
    observation_angles,
    pitch_subarray_series,
    sample_subarray,
    spiral_subarray,
    subarray_stats,
)
from .propagation import (
    MediumModel,
    ShearLayerPlane,
    atmospheric_absorption,
)
from .spectral import (
    CrossSpectralMatrix,
    Spectrum,
    band_power,
    welch_csm,
)
from .synthesis import Scene, Source, synthesize_csm, synthesize_timeseries
