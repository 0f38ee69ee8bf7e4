// Package tendax is a from-scratch reproduction of "TeNDaX, a Collaborative
// Database-Based Real-Time Editor System" (Leone, Hodel-Widmer, Boehlen,
// Dittrich — EDBT 2006): text stored natively in an embedded transactional
// database, with collaborative real-time editing, local/global undo,
// in-document business processes, dynamic folders, data lineage, visual and
// text mining, search, and fine-grained security.
//
// The public surface lives in the internal packages (this module is a
// self-contained reproduction, not a published library):
//
//   - internal/core — the TeNDaX engine (documents, editing transactions)
//   - internal/db, storage, wal, txn, btree — the embedded database
//   - internal/server, client, protocol, awareness — the collaborative layer
//   - internal/security, workflow, folders, lineage, mining, search — the
//     subsystems demonstrated in the paper
//
// See DESIGN.md for the architecture (including the group-commit pipeline,
// §3, the fuzzy-checkpoint/recovery protocol, §4, the MVCC snapshot read
// path, §5, and the ID-anchored batched editing protocol v3, §7) and
// EXPERIMENTS.md for the reproduction of every figure and demonstrated
// capability: cmd/tendax-bench runs the experiment registry (E1–E10, E17,
// E18), and keystroke-bench (benchmark/, BENCHMARK.json) measures
// performance per keystroke, end to end and per layer. The benchmarks in
// ablation_bench_test.go compare the design choices DESIGN.md calls out
// against their naive alternatives.
package tendax
