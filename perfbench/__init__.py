"""Whole-run mining benchmark (see ``perfbench/README.md``)."""
