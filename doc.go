// Package pane is a from-scratch Go reproduction of PANE — "Scaling
// Attributed Network Embedding to Massive Graphs" (Yang et al., PVLDB
// 14(1), 2020). The implementation lives under internal/: see
// internal/core for the algorithm, internal/graph for the data model,
// internal/engine for the versioned model lifecycle (live updates,
// sharded per-version serving indexes, snapshot/restore) behind the HTTP
// service in internal/server, internal/index for the top-k table (one
// type over a {flat, inverted} layout × {float64, int8, binary16} codec
// grid, plus the shard fan-out/merge layer) those queries run on, and
// cmd/benchexp for the experiment
// harness that regenerates every table and figure of the paper's
// evaluation. README.md has the tour.
package pane
