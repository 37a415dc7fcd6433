"""Fixture: every shape of no-environ-write fires.  Never imported — AST only."""

import os
import os as _os
from os import environ, putenv


def configure(jobs):
    os.environ["REPRO_JOBS"] = str(jobs)  # item assignment
    os.environ["REPRO_JOBS"] += "0"  # augmented assignment
    os.environ.update(REPRO_KERNEL="rebuild")
    os.environ.setdefault("REPRO_SCALE", "smoke")
    _os.environ["REPRO_SHARDS"] = "2"  # module alias
    environ["REPRO_OBS_LOG"] = "-"  # imported name
    putenv("REPRO_JOBS", "1")
    del os.environ["REPRO_JOBS"]
    os.environ.pop("REPRO_KERNEL", None)
    os.unsetenv("REPRO_SCALE")
