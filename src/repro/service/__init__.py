"""Always-on quantile service: engine pool, admission control, lifecycle.

Runs the prepared-query engine as a long-lived process that many callers
share safely.  The package splits into small layers:

* :mod:`repro.service.pool` — named engines + byte-budgeted prepared LRU;
  requests with the same signature share one prepared query;
* :mod:`repro.service.admission` — bounded in-flight slots, queue-depth and
  queue-time limits, retry-after hints;
* :mod:`repro.service.records` — structured per-request records;
* :mod:`repro.service.server` — the asyncio HTTP front-end and lifecycle
  (health/readiness, graceful drain, cooperative cancellation);
* :mod:`repro.service.client` — a small stdlib client.

Everything is stdlib only, like the rest of the repository.
"""

from repro.service.admission import AdmissionController, ShedRequestError
from repro.service.client import ServiceClient, ServiceResponse
from repro.service.pool import (
    DEFAULT_PREPARED_BUDGET_BYTES,
    EnginePool,
    UnknownDatabaseError,
)
from repro.service.records import RecordLog, RequestRecord
from repro.service.server import (
    EXIT_DIRTY_DRAIN,
    EXIT_OK,
    QuantileService,
    ServiceConfig,
    ServiceThread,
)

__all__ = [
    "AdmissionController",
    "ShedRequestError",
    "ServiceClient",
    "ServiceResponse",
    "DEFAULT_PREPARED_BUDGET_BYTES",
    "EnginePool",
    "UnknownDatabaseError",
    "RecordLog",
    "RequestRecord",
    "EXIT_DIRTY_DRAIN",
    "EXIT_OK",
    "QuantileService",
    "ServiceConfig",
    "ServiceThread",
]
