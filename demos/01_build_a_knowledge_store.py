"""
Build a knowledge store from benchmark CSVs
===========================================

A store holds, per task, the measured performance of complete designs from a
shared discrete design space.  Gains between neighboring designs are never
stored -- they are derived on demand from the performance table, which keeps
them automatically consistent (reversing a move exactly negates its gain).
"""

import tempfile
from pathlib import Path

from mdesign.graph import build_graph, edge_list_text
from mdesign.space import load_design_space
from mdesign.store import ingest_benchmark, load_store

# The design space is declared as one line per dimension: a name followed by
# the candidate choices for that dimension.
space = load_design_space(
    """
    # two dimensions, six architectures total
    layers:    [2, 4, 8]
    embedding: [64, 128]
    """
)
print(f"space has {space.size} designs across {len(space.dimensions)} dimensions")

# Benchmark records are plain CSV: task id, one column per dimension, and the
# measured performance.  Coverage may be partial; here mnli misses one design.
records = """task_id,layers,embedding,performance
sst2,2,64,0.842
sst2,2,128,0.861
sst2,4,64,0.858
sst2,4,128,0.884
sst2,8,64,0.855
sst2,8,128,0.879
mnli,2,64,0.701
mnli,2,128,0.733
mnli,4,64,0.744
mnli,4,128,0.772
mnli,8,128,0.781
"""

# Per-task statistics (anything numeric: dataset size, class count, ...) feed
# the rank-correlation initialization of task similarity later on.
stats = """task_id,n_train,n_classes
sst2,67349,2
mnli,392702,3
"""

store = ingest_benchmark(space, records, stats)
print(f"ingested tasks: {store.task_ids}")

# Point queries work on design tuples (choice indices per dimension).
print("sst2 @ (layers=4, embedding=128):", store.performance_of("sst2", (1, 1)))
best_arch, best_perf = store.best_architecture("mnli")
print(f"best recorded mnli design: {store.arch_tuple(best_arch)} at {best_perf}")

# Gains are derived differences along one-dimension moves.  The mnli gap at
# (8, 64) simply produces no edge rather than a NaN.
for rec in store.derive_gains("mnli")[:4]:
    frm, to = store.arch_tuple(rec.arch_from), store.arch_tuple(rec.arch_to)
    print(f"mnli gain {frm} -> {to}: {rec.gain:+.3f}")

# The same information viewed as a per-task graph, one node per measured
# design, signed edges in both directions.
graph = build_graph(store, "mnli")
print(edge_list_text(graph))

# Stores persist to a single file: one sorted-key JSON header line, then the
# ranks and performances as raw little-endian bytes.  Identical inputs give
# byte-identical files; reloading reproduces the store exactly.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "store.json"
    store.persist(path)
    assert load_store(path) == store
    print(f"persisted and reloaded {path.stat().st_size} bytes, stores equal")
