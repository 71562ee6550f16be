"""Analog joint source-channel coding with the rectangular Shannon mapping.

Library layout:

- ``mapping``: the ideal 2:1 codec
- ``circuit``: behavioral model of the analog encoder and its power budget
- ``signal_chain``: tone-sum capture with seeded AWGN and the FFT receiver
  (per-band peaks of the diversity-combined spectrum, proved in closed form
  or read from the capture)
- ``multisensor``: the FDMA band layout, worked out from the sensor count,
  the codec's range and the guard, and the one cluster link (encode,
  receive, read back) over a (points, sensors, 2) array of truths
- ``metrics``: SDR
- ``experiments``: seeded Monte-Carlo sweeps, self checks, CSV/JSON output
"""
from .mapping import (
    DecodedPair,
    MappingConfig,
    Quantizer,
    decode,
    encode,
    quantize_level,
)
from .circuit import (
    PROTOTYPE_BUDGET,
    CircuitConfig,
    ComponentBudget,
    circuit_encode,
    equivalent_mapping,
    estimate_power,
)
from .signal_chain import (
    ChannelSpec,
    FmConfig,
    capture,
    transmit_receive,
)
from .multisensor import assign_channels, receive_clusters
from .metrics import SDR_CAP_DB, sdr
from .experiments import (
    DEFAULT_L_GRID,
    ExperimentConfig,
    ExperimentKind,
    SourceSpec,
    SweepResult,
    SweepRow,
    render_csv,
    render_json,
    run_cluster_demo,
    run_mse_vs_L,
    run_roundtrip_suite,
    run_sdr_vs_csnr,
)

__version__ = "0.1.0"
