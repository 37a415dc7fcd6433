"""Fixture: reading or copying the environment is clean.  AST only."""

import os


def settings(overrides):
    jobs = os.environ.get("REPRO_JOBS", "1")
    kernel = os.environ["REPRO_KERNEL"] if "REPRO_KERNEL" in os.environ else None
    env = dict(os.environ, REPRO_JOBS=jobs)  # a copy for a child process
    env["REPRO_KERNEL"] = kernel or "columnar"
    child = os.environ.copy()
    child.update(overrides)
    return env, child
