"""Exception hierarchy shared by every subsystem of the reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subsystems define their own leaves here rather than in
scattered modules, which keeps ``except`` clauses discoverable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with invalid parameters."""


class ClockError(ReproError):
    """Raised on invalid simulated-time operations (e.g. moving backwards)."""


class GraphError(ReproError):
    """Raised on invalid social-graph operations."""


class UnknownAccountError(GraphError):
    """Raised when an account id or screen name cannot be resolved."""

    def __init__(self, identifier: object) -> None:
        super().__init__(f"unknown account: {identifier!r}")
        self.identifier = identifier


class DuplicateAccountError(GraphError):
    """Raised when registering an account whose id or name already exists."""


class ApiError(ReproError):
    """Base class for simulated Twitter API errors."""

    #: HTTP-like status code mirroring the real Twitter v1.1 API.
    status_code = 500


class RetryableApiError(ApiError):
    """Base class for transient API failures a client may retry.

    The fault-injection layer (``repro.faults``) raises only these, and
    :class:`repro.faults.RetryPolicy` retries only these — permanent
    failures (404, 401, malformed requests) propagate immediately.
    """


class RateLimitExceededError(RetryableApiError):
    """Raised when an endpoint's per-window request budget is exhausted.

    Mirrors HTTP 429 from the real API.  ``retry_after`` is the number of
    simulated seconds until the window can cover the request again, and
    ``reset_at`` (when known) is the absolute simulated instant of that
    reset — the token-bucket state retry tests assert end-to-end.
    """

    status_code = 429

    def __init__(self, resource: str, retry_after: float,
                 reset_at: "float | None" = None) -> None:
        message = (f"rate limit exceeded for {resource}; "
                   f"retry after {retry_after:.1f}s")
        if reset_at is not None:
            message += f" (window resets at t={reset_at:.1f})"
        super().__init__(message)
        self.resource = resource
        self.retry_after = retry_after
        self.reset_at = reset_at


class TransientServerError(RetryableApiError):
    """Raised when the simulated service answers HTTP 503 (over capacity).

    The real crawl behind the paper ran for weeks against exactly these
    storms; ``repro.faults`` injects them deterministically.
    """

    status_code = 503

    def __init__(self, resource: str) -> None:
        super().__init__(f"503 service unavailable for {resource}")
        self.resource = resource


class RequestTimeoutError(RetryableApiError):
    """Raised when a request hangs past the client's timeout (HTTP 504).

    Unlike a 503 the full timeout interval is charged to the simulated
    clock before the failure surfaces.
    """

    status_code = 504

    def __init__(self, resource: str, timeout_seconds: float) -> None:
        super().__init__(
            f"request to {resource} timed out after {timeout_seconds:.1f}s")
        self.resource = resource
        self.timeout_seconds = timeout_seconds


class NotFoundError(ApiError):
    """Raised when a requested user does not exist (HTTP 404)."""

    status_code = 404


class InvalidCursorError(ApiError):
    """Raised when a pagination cursor is malformed or stale (HTTP 400)."""

    status_code = 400


class StaleCursorError(InvalidCursorError, RetryableApiError):
    """Raised when a previously valid cursor expires mid-pagination.

    Long crawls against a churning follower list see these in practice
    ("Followers or Phantoms?" documents the churn); the injected variety
    is transient, so it is classified retryable.
    """

    def __init__(self, resource: str, cursor: int) -> None:
        super().__init__(
            f"stale pagination cursor {cursor!r} for {resource}")
        self.resource = resource
        self.cursor = cursor


class AnalyticsError(ReproError):
    """Base class for errors raised by the analytics engines."""


class QuotaExceededError(AnalyticsError):
    """Raised when a free analytics tool's daily usage quota is exhausted.

    Socialbakers' Fake Follower Check, for instance, allowed ten audits per
    day per user (paper, Section II-B).
    """


class SchedulerSaturatedError(AnalyticsError):
    """Raised when the batch audit scheduler refuses further admissions.

    Signals backpressure: the pending queue hit its ``max_pending``
    bound, or the projected batch makespan would exceed the configured
    budget.  Callers should drain the current batch (``run()``) before
    submitting more work.
    """


class TrainingError(ReproError):
    """Raised when a classifier cannot be trained (e.g. degenerate data)."""


class SamplingError(ReproError):
    """Raised on invalid sampling requests (e.g. sample larger than frame)."""
