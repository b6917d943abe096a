"""Sparse-memory multi-object tracking toolkit.

A training-free memory layer for appearance-based trackers: each track
keeps a short bank of past embeddings, stores a new one only after the
object has moved far enough, prefers snapshots taken while the object
was unoccluded, and answers queries with a fused average of the current
embedding and the bank. The package bundles the memory itself, a
matching tracker, a synthetic benchmark with controllable appearance
drift, standard evaluation metrics, and a CLI that reproduces the
ablation and sweep tables.

Every public name is imported from its module (``from sasmot.tracker import Tracker``).
"""

# bench/tracer.py resolves its targets through sys.modules after `import sasmot`.
from . import geometry, memory, metrics, mot_io, rng, simulator, tracker  # noqa: F401

__version__ = "0.1.0"

__all__ = ["__version__"]
