"""Fixture: an entry point owns its process and may set its environment.
AST only."""

import os


def main():
    os.environ["REPRO_JOBS"] = "2"
    os.environ.setdefault("REPRO_KERNEL", "columnar")
