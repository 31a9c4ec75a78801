"""scanlab: scan-statistic detection of anomalous node clusters in networks.

Library layout:

- network: node sets (lattices, uniform clouds), balls, even-spread check
- clusters: cluster family generators (balls, thick blobs, tubes, bands, animals)
- metric: the cluster dissimilarity, greedy epsilon-nets, cover verification
- models: exponential-family noise, signal planting, standardized sums
- detect: scan statistics (the eps-scan at the field's horizon is the space-time
  cylinder scan), multiscale/average/oracle tests, calibration, rates
- growth: spatio-temporal cluster sequences; scan_spacetime_cylinders is eps_scan
- sim: Monte Carlo risk estimation and phase-transition sweeps
- cli: the `scanlab` command line tool
"""

from .clusters import (
    BandParams,
    Cluster,
    ThickParams,
    ThinParams,
    enumerate_animals,
    enumerate_balls,
    enumerate_bands,
    enumerate_thick,
    enumerate_tubes,
)
from .detect import (
    Calibration,
    TestResult,
    average_test,
    calibrate,
    eps_scan,
    multiscale_test,
    oracle_test,
    rate,
    scan,
)
from .errors import CapacityError, ConfigError
from .growth import (
    ClusterSequence,
    make_cone,
    make_cylinder,
    make_holder_trajectory,
    richardson_grow,
    scan_spacetime_cylinders,
    verify_bounded_variation,
    verify_limit_shape,
)
from .metric import EpsNet, build_net, delta, verify_cover
from .models import (
    Field,
    NoiseModel,
    SignalSpec,
    mad_variance,
    noise_model,
    plant,
    sample_null,
    standardized_sum,
)
from .network import (
    NodeSet,
    SpreadCertificate,
    ball_nodes,
    check_spread,
    make_lattice,
    make_uniform_cloud,
    rescale_lattice,
)
from .sim import (
    AverageTest,
    EpsScanTest,
    ExperimentConfig,
    FixedTruths,
    MultiscaleScanTest,
    OracleTest,
    RiskEstimate,
    SampledTruths,
    estimate_risk,
)

__version__ = "0.1.0"
