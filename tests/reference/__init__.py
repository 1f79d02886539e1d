"""Executable specifications kept out of the production import path.

Each module here is the plain, readable version of an optimised
production routine; the tests assert the production code reproduces it
bit for bit:

* :mod:`.gridstate` — one-report ``ingest`` and the per-node scalar
  ``fold`` that :meth:`repro.core.gridstate.GridState.fold` vectorizes;
* :mod:`.accounting` — the validated generic activity adder that the
  :class:`repro.satin.accounting.TimeAccount` fast adders replace;
* :mod:`.barneshut` — the naive recursive octree fill that
  :func:`repro.apps.barneshut.build_octree` reproduces level by level.
"""
