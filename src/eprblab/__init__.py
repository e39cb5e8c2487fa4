"""eprblab: a seedable lab for two-station polarization-correlation
experiments.

The pieces: disk constructions that embody joint distributions and show
when separated sampling preserves or loses them (`disks`), a semiclassical
source/analyzer/threshold-detector kernel (`optics`), scan and CHSH
protocols with calibration diagnostics and an exact zero-noise oracle
(`scan`), a time-tagged event-file pipeline with window matching
(`eventio`), and the shared closed forms and counting statistics
(`domain`). Everything is deterministic given its explicit seed.

Importing the package loads none of them: each name below is imported from
its module on first access (PEP 562), so a CLI launch compiles only the
modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

#: Module -> the names the package exports from it.
_EXPORTS = {
    "domain": """
        TWO_PI CountTable JointPmf NoCoincidencesError SingletKind chsh correlation
        correlation_stderr match_probability qm_joint_prediction wrap_angle
    """,
    "disks": """
        AssumeFixed AssumeRandom BothKnown DiskPreparation KnowledgePolicy SamplingMode Sector
        SplitDisk SplitSector build_bell_special build_param_disks build_singlet_disk
        joint_pmf_from_splits sample_param_setup sample_separated sample_split_many split_disk
    """,
    "optics": """
        FixedBasisSource IsotropicSource SourceModel StationConfig measure_pairs
    """,
    "scan": """
        STANDARD_CHSH_ANGLES ChshReport PathologyReport ScanConfig ScanResult ScanStep
        analytic_coincidence_fraction analytic_correlation chsh_report_from_tables
        coincidence_modulation default_b_angles default_chsh_configs pathology_probe run_chsh
        run_scan run_scan_step singles_asymmetry
    """,
    "eventio": """
        EventStream GeneratedStreams GeneratorConfig MatchResult UnsortedEventsError
        generate_events match_coincidences read_events write_events
    """,
}

#: Exported name -> the module that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

_SUBMODULES = frozenset(("cli", "intervals", *_EXPORTS))

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Not cached in this namespace: every access reads the module's current
    # attribute, so a name patched in its module is seen here too.
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
