"""`HAVE_NUMBA`, a constant kept for one reader.

Every op runs numpy; numba is not a dependency. The benchmark's
provenance record (`perfbench/run.py`) is the only reader of this flag,
and ROADMAP item 6 (benchmark v2) removes it together with that field.
"""

HAVE_NUMBA = False
