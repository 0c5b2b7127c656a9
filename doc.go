// Package repro is a from-scratch, stdlib-only Go reproduction of
// "Towards Deep Learning-based Occupancy Detection Via WiFi Sensing in
// Unconstrained Environments" (Turetta et al., DATE 2023).
//
// The module has no importable code at the root — it hosts the repository's
// integration tests and the benchmark harness (one benchmark per paper
// table/figure). The building blocks live under internal/:
//
//   - internal/csi, internal/agents, internal/envsim — the simulation
//     substrates standing in for the paper's unavailable hardware capture
//   - internal/nn, internal/rf, internal/linmodel — the model families
//   - internal/dataset — the Table I data pipeline and Table III folds
//   - internal/core — the public pipeline API and experiment runners
//   - internal/xai, internal/stats, internal/filter, internal/tensor,
//     internal/report — supporting machinery
//
// Entry points are the commands under cmd/. See README.md for the tour,
// DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for paper-vs-measured results.
//
// # Zero-allocation naming convention
//
// Two conventions mark the functions that write results into caller-provided
// storage instead of allocating:
//
//   - High-level APIs carry an "Into" suffix and take the destination as the
//     first parameter: nn.Network.PredictProbsInto, nn.Network.
//     PredictBinaryInto, nn.Arena.PredictProbsInto (one arena at every
//     precision), dataset.FeatureRowInto, tensor.RowMatMulInto,
//     tensor.SparseRowMatMulF32Into. Each is the allocation-free variant of
//     a same-named convenience API and must produce bit-identical results.
//
//   - BLAS-style kernels keep their classical names but still take dst
//     first: tensor.MatMul and variants (including the float32 MatMulF32),
//     tensor.Axpy and the nn.Loss.Grad method. Writing in place is their
//     entire point, so the suffix would be noise.
//
// Everything else that takes a dst must follow one of the two. The
// convention is enforced by TestIntoNamingConvention (naming_test.go), which
// parses every non-test source file and flags exported functions whose first
// parameter is named dst but whose name lacks the Into suffix and is not on
// the kernel allowlist.
package repro
