"""Exact computations for small Q-polynomial association schemes.

The library classifies partially metric Q-polynomial association schemes
whose first multiplicity is four.  It is organized as a pipeline:

- :mod:`schemeforge.exactnum` — exact arithmetic in Q and Q(sqrt(p))
- :mod:`schemeforge.graphs` — small graphs, generation, locally-H extension
- :mod:`schemeforge.schemes` — scheme axioms, spectra, cosines, Krein data
- :mod:`schemeforge.localclass` — feasible nearest-neighbourhood graphs
- :mod:`schemeforge.diagsearch` — relation-distribution diagram generation
- :mod:`schemeforge.catalogue` — the hash-checked golden scheme files and
  their format
- :mod:`schemeforge.cli` — command-line surface

Import each name from the module that defines it, for example
``from schemeforge.localclass import classify_local``.
"""

__version__ = "0.1.0"
