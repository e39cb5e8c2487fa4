"""eprblab: a seedable lab for two-station polarization-correlation
experiments.

The pieces: disk constructions that embody joint distributions and show
when separated sampling preserves or loses them (`disks`), a semiclassical
source/analyzer/threshold-detector kernel (`optics`), scan and CHSH
protocols with calibration diagnostics and an exact zero-noise oracle
(`scan`), a time-tagged event-file pipeline with window matching
(`eventio`), and the shared closed forms and counting statistics
(`domain`). Everything is deterministic given its explicit seed.
"""

from .domain import (
    TWO_PI,
    CountTable,
    JointPmf,
    NoCoincidencesError,
    SingletKind,
    chsh,
    correlation,
    correlation_stderr,
    match_probability,
    qm_joint_prediction,
    wrap_angle,
)
from .disks import (
    AssumeFixed,
    AssumeRandom,
    AssumeZero,
    BothKnown,
    DiskPreparation,
    IntegrateOver,
    KnowledgePolicy,
    SamplingMode,
    Sector,
    SplitDisk,
    SplitSector,
    build_bell_special,
    build_param_disks,
    build_singlet_disk,
    disk_to_text,
    joint_pmf_from_splits,
    sample_param_setup,
    sample_separated,
    sample_split_many,
    split_disk,
    split_to_text,
)
from .optics import (
    FixedBasisSource,
    IsotropicSource,
    SourceModel,
    StationConfig,
    detect_many,
    detection_windows,
    emit_phis,
    malus_intensities,
    measure_many,
    singles_probability,
)
from .scan import (
    STANDARD_CHSH_ANGLES,
    ChshReport,
    PathologyReport,
    ScanConfig,
    ScanResult,
    ScanStep,
    analytic_coincidence_fraction,
    analytic_correlation,
    chsh_report_from_tables,
    coincidence_modulation,
    default_b_angles,
    default_chsh_configs,
    pathology_probe,
    run_chsh,
    run_scan,
    run_scan_step,
    scan_result_csv,
    scan_summary_text,
    singles_asymmetry,
    tabulate_codes,
    triangle_correlation,
)
from .eventio import (
    EventStream,
    GeneratedStreams,
    GeneratorConfig,
    MatchResult,
    UnsortedEventsError,
    generate_events,
    match_coincidences,
    read_events,
    write_events,
)

__version__ = "0.1.0"
