"""One workload, one pass, in its own process: ``child.py JOB.json``.

``run.py`` starts this with ``PYTHONHASHSEED=0`` and ``PYTHONPATH=<repo>/src``
so that hash order and the import root are the same on every run, and so
that the oracle's memory (computed by the parent) never counts toward
``peak_rss_mb``.  The job file is rewritten in place with the result.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path


def main() -> int:
    job_file = Path(sys.argv[1])
    job = json.loads(job_file.read_text())
    from workloads import SPECS

    spec = replace(SPECS[job["workload"]], **job["sizes"])
    if spec.kind == "service":
        import service as runner
    else:
        import batch as runner
    from repro.kernels import backend_name

    result = runner.run(spec, job)
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    result["process"] = {
        "kernel_backend": backend_name(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
    job_file.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
