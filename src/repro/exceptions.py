"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so that callers can
catch everything coming out of this package with one ``except`` clause while
still being able to discriminate on the specific failure mode.
"""


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GeometryError(ReproError):
    """Invalid geometric construction (degenerate rectangle, bad window...)."""


class LayoutFormatError(ReproError):
    """Malformed layout text file or unsupported record."""


class FeatureError(ReproError):
    """Invalid feature-extraction configuration or input."""


class NetworkError(ReproError):
    """Invalid neural-network construction or shape mismatch."""


class TrainingError(ReproError):
    """Training could not proceed (empty dataset, bad labels...)."""


class QuantizationError(NetworkError):
    """Quantized-inference failure (unsupported layer, bad payload, or a
    precision the network cannot compile an inference plan for)."""


class ConfigError(TrainingError):
    """Invalid run configuration caught before any work starts.

    Subclasses :class:`TrainingError` so existing ``except TrainingError``
    call sites keep working while new code can discriminate configuration
    mistakes (e.g. an Algorithm-2 epsilon schedule that crosses 0.5) from
    runtime training failures.
    """


class CheckpointError(ReproError):
    """Checkpoint could not be written, read, or applied."""


class CheckpointCorruptError(CheckpointError):
    """Checkpoint file is damaged (torn write, bad magic, checksum)."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written by an incompatible schema version."""


class ScanJournalError(ReproError):
    """Scan journal is unusable (header mismatch with the resumed scan)."""


class ScanCacheError(ReproError):
    """Scan result cache is unusable (bad directory, schema mismatch)."""


class DatasetError(ReproError):
    """Dataset construction or consistency failure."""


class LithoError(ReproError):
    """Lithography-simulation configuration or input error."""


class BudgetExhaustedError(LithoError):
    """Label budget cannot pay for the requested lithography simulations.

    Raised by :class:`~repro.litho.budget.BudgetedOracle` when a labelling
    request costs more simulation seconds than the budget has left. The
    request is rejected *whole* — no partial labelling — so callers can
    shrink the batch to :meth:`~repro.litho.budget.LabelBudget.affordable_labels`
    and retry.
    """

    def __init__(self, message: str, requested: int = 0, affordable: int = 0):
        super().__init__(message)
        self.requested = int(requested)
        self.affordable = int(affordable)


class ObservabilityError(ReproError):
    """Invalid telemetry configuration, sink failure, or malformed run log."""


class ServeError(ReproError):
    """Inference-service failure (engine, registry, or HTTP layer)."""


class QueueFullError(ServeError):
    """Engine request queue at capacity — backpressure, retry later (503)."""


class EngineClosedError(ServeError):
    """Request submitted to an engine that is draining or shut down."""


class ModelNotFoundError(ServeError):
    """Registry has no model under the requested name/version."""


class ParityError(ServeError):
    """Quantized model failed (or never ran) the accuracy-parity gate.

    Raised when a caller tries to activate/serve a quantized precision
    whose stored parity report is missing or failing, or by
    :func:`repro.core.parity.check_parity` callers that require the gate
    to pass. Carries the report dict (when one exists) as
    :attr:`report`.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
