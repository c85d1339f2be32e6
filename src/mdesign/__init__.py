"""Knowledge-base-driven iterative refinement of discrete architecture designs.

Workflow: load a design space and a benchmark knowledge store, initialize a
task-similarity view, then iteratively pick the one-hop modification with the
highest similarity-weighted benchmark gain, evaluate it, and update the
posterior.  Benchmarks whose weight stays persistently low are flagged and
served by a small learned gain regressor instead of raw retrieval.

Each public name is imported from the module that defines it and lists it in
its ``__all__`` (``from mdesign.store import load_store``); the package root
re-exports nothing, so importing one layer loads only that layer and those
beneath it.
"""

__version__ = "0.1.0"
