"""Error hierarchy. Each family maps to a distinct CLI exit code."""


class ProfilerError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class SchemaError(ProfilerError):
    """Ingestion descriptor is malformed or inconsistent with the trace."""

    exit_code = 3


class TraceReadError(ProfilerError):
    """Trace file missing, unreadable, or structurally broken."""

    exit_code = 4


class NoValidRowsError(ProfilerError):
    """Every row of the trace failed validation."""

    exit_code = 5


class DuplicateIdError(ProfilerError):
    """Two accepted rows share a workload id."""

    exit_code = 6


class NoViableConfigError(ProfilerError):
    """Grid search exhausted without a single valid clustering."""

    exit_code = 7


class EmptyProfileSetError(ProfilerError):
    """Clustering labelled every workload an outlier."""

    exit_code = 8


class DegenerateDataError(ProfilerError):
    """Input too small or too degenerate for the requested statistic."""

    exit_code = 9


class MissingArtifactError(ProfilerError):
    """A command needs build artifacts that are not on disk or not valid JSON."""

    exit_code = 10


class EmptyHoldoutError(ProfilerError):
    """Evaluation holdout contains no workloads."""

    exit_code = 11


class ConfigError(ProfilerError):
    """Run configuration document is invalid."""

    exit_code = 12


class UndefinedSkewnessError(ProfilerError):
    """Skewness is undefined: fewer than 3 values or zero variance."""

