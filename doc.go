// Package repro reproduces "Using Interactive Video Technology for the
// Development of Game-Based Learning" (Chang, Hsu & Shih, ICPP Workshops
// 2007) as a complete Go system, then grows it toward campus-scale
// deployment: an interactive-video substrate (synthetic footage, TKV2
// codec, TKVC container, shot detection, playback), a headless UI
// toolkit, an event-scripting language, the VGBL document model, the
// authoring tool, the gaming platform runtime, simulated learners,
// analytics and baselines — delivered through a content-addressed chunk
// store with delta sync and adaptive multi-quality (ABR) streaming, a
// server-hosted play service with a binary wire protocol, live
// classroom fan-out, durable snapshots behind a consistent-hash cluster
// gateway, fault-injected resilience testing, a telemetry ingestion
// service, a learner-fleet load generator, and a dependency-free
// metrics/tracing core serving /metrics.
//
// See README.md for the quickstart, DESIGN.md for the system inventory,
// EXPERIMENTS.md for the figure/table reproductions, and bench_test.go
// (this package) for the benchmark harness — one benchmark per
// experiment.
package repro
