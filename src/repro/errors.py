"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class CodecError(ReproError):
    """Raised when encoding or decoding visual data fails."""


class CorruptBitstreamError(CodecError):
    """Raised when a compressed bitstream fails validation during decode."""


class UnsupportedFormatError(CodecError):
    """Raised when an operation is requested on a format that lacks it."""


class PreprocessingError(ReproError):
    """Raised for invalid preprocessing pipelines or operator arguments."""


class InvalidDAGError(PreprocessingError):
    """Raised when a preprocessing chain is malformed (no ops, a non-op
    entry, an unknown device, a device list of the wrong length)."""


class ModelError(ReproError):
    """Raised for invalid neural-network definitions or shape mismatches."""


class TrainingError(ModelError):
    """Raised when a training run is misconfigured or diverges."""


class PlanError(ReproError):
    """Raised when plan generation or selection fails."""


class InfeasibleConstraintError(PlanError):
    """Raised when no plan satisfies the user-supplied constraints."""


class EngineError(ReproError):
    """Raised by the runtime engine for pipeline execution failures."""


class HardwareError(ReproError):
    """Raised for unknown devices, instances, or invalid hardware configs."""


class DatasetError(ReproError):
    """Raised when a dataset is unknown or a requested rendition is absent."""


class QueryError(ReproError):
    """Raised by the analytics layer for invalid queries or failed bounds."""


class ServingError(ReproError):
    """Raised by the online serving layer for invalid requests or states."""


class AdmissionError(ServingError):
    """Raised when the serving queue rejects a request (backpressure)."""


class TenantError(ServingError):
    """Raised by the multi-tenant layer for invalid tenant configurations."""


class QuotaExceededError(AdmissionError):
    """Raised when a tenant's admission quota (rate or in-flight cap) is
    exhausted.  A subclass of :class:`AdmissionError` so load generators and
    retry loops that shed on admission failures handle throttling the same
    way they handle queue pressure."""


class ClusterError(ReproError):
    """Raised by the multi-worker cluster runtime for execution failures."""


class WorkerCrashedError(ClusterError):
    """Raised when a worker dies and its work cannot be recovered."""


class NoHealthyWorkerError(ClusterError):
    """Raised when no live worker with a closed circuit can accept work."""


class StoreError(ReproError):
    """Raised by the persistent rendition/score store for invalid requests."""


class StoreCorruptionError(StoreError):
    """Raised when on-disk store state fails validation (torn manifest,
    content-address mismatch, undecodable chunk)."""


class AdaptError(ReproError):
    """Raised by the online adaptation layer for invalid configurations."""
