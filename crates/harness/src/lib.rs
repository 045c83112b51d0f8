//! Experiment harness regenerating every table and figure of the ALAE paper
//! (Section 7) on scaled synthetic workloads.
//!
//! The `alae-experiments` binary dispatches to one experiment per paper
//! artefact, plus the ablation and the gated benchmarks:
//!
//! | Command | Artefact |
//! |---------|----------------|
//! | `table2` | Table 2 — time / #results vs query length |
//! | `table3` | Table 3 — time / #results vs text length |
//! | `table4` | Table 4 — calculated entries and computation cost |
//! | `table5` | Table 5 — reused / accessed / calculated entries per scheme |
//! | `fig7`   | Figure 7 — filtering and reusing ratios vs m and n |
//! | `fig8`   | Figure 8 — effect of E-values |
//! | `fig9`   | Figure 9 — effect of scoring schemes on time |
//! | `fig10`  | Figure 10 — filtering / reusing ratios per scheme |
//! | `fig11`  | Figure 11 — index sizes (the BWT index; Lemma 1 needs no dominate index) |
//! | `bounds` | Section 6 — analytic entry bounds |
//! | `sw-anchor` | Section 7.1 — Smith-Waterman vs ALAE anchor point |
//! | `ablation` | Sections 3–4 — what each filter and score reuse buys; exits 1 if any changes the hits |
//! | `rank`   | Occurrence layer — `extend_all` vs the `extend_left` loop (`BENCH_rank.json`) |
//! | `search` | Facade queries/sec per engine, hit-dense and sparse-hit (`BENCH_search.json`) |
//! | `store`  | Opening a persisted index vs rebuilding it |
//!
//! Sizes are scaled down from the paper's (gigabase texts, megabase queries)
//! to laptop-sized instances; the `--scale <factor>` flag grows or shrinks
//! every length proportionally.  `rank` and `search` write committed
//! snapshots and gate fresh runs against them through [`snapshot`].
#![forbid(unsafe_code)]

pub mod experiments;
pub mod rank_bench;
pub mod runners;
pub mod search_bench;
pub mod setup;
pub mod snapshot;

pub use experiments::{run_experiment, ExperimentOptions, EXPERIMENT_NAMES};
