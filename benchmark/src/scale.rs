//! What the four workloads run: fabrics, horizons, cell counts. `FULL`
//! is what BENCHMARK.json measures; `SMOKE` is the same code on the
//! 8-node fat tree over sub-100 µs windows, for the smoke test.

use ibsim_topo::FatTreeSpec;

/// The default `--seed`: the simulator's own default root seed, so the
/// default run is the configuration `NetConfig::paper()` ships.
pub const DEFAULT_SEED: u64 = 0x1B51_C0DE;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale {
    pub name: &'static str,
    /// Fabric of the three 648-node workloads.
    pub big: FatTreeSpec,
    pub big_hotspots: usize,
    /// `silent648`: placements per repetition (each its own seed,
    /// derived from `--seed`), and the window of one placement's cell.
    pub silent_placements: u64,
    pub silent_warmup_us: u64,
    pub silent_measure_us: u64,
    /// `uniform648` / `uniform648_s2`: simulated horizon.
    pub uniform_us: u64,
    /// Fabric of `quick72_session`.
    pub small: FatTreeSpec,
    pub small_hotspots: usize,
    /// sweep stage: one windy x = 100 cell per p, CC off and on.
    pub sweep_p: [u32; 4],
    pub sweep_warmup_us: u64,
    pub sweep_measure_us: u64,
    /// ckpt / observed stages: one silent cell.
    pub cell_warmup_us: u64,
    pub cell_measure_us: u64,
    /// observed stage: events between audit passes.
    pub audit_every: u64,
    /// replay stage: records in the synthesised IBTR trace.
    pub trace_records: u64,
    /// Set-ups timed per run for `setup_s`: this many, or as many as
    /// fit in `setup_budget_s` host seconds (one at the least).
    pub setup_samples: usize,
    pub setup_budget_s: f64,
    /// Upper limit on the operations one layer kernel replays.
    pub kernel_ops: u64,
}

pub const FULL: Scale = Scale {
    name: "full",
    big: FatTreeSpec::PAPER_648,
    big_hotspots: 8,
    silent_placements: 3,
    silent_warmup_us: 4_000,
    silent_measure_us: 8_000,
    uniform_us: 1_000,
    small: FatTreeSpec::QUICK_72,
    small_hotspots: 2,
    sweep_p: [0, 30, 60, 100],
    sweep_warmup_us: 700,
    sweep_measure_us: 1_700,
    cell_warmup_us: 4_000,
    cell_measure_us: 8_000,
    audit_every: 50_000,
    trace_records: 160_000,
    setup_samples: 100,
    setup_budget_s: 1.0,
    kernel_ops: 2_000_000,
};

pub const SMOKE: Scale = Scale {
    name: "smoke",
    big: FatTreeSpec::TEST_8,
    big_hotspots: 1,
    silent_placements: 2,
    silent_warmup_us: 30,
    silent_measure_us: 60,
    uniform_us: 80,
    small: FatTreeSpec::TEST_8,
    small_hotspots: 1,
    sweep_p: [0, 30, 60, 100],
    sweep_warmup_us: 20,
    sweep_measure_us: 40,
    cell_warmup_us: 30,
    cell_measure_us: 60,
    audit_every: 500,
    trace_records: 200,
    setup_samples: 3,
    setup_budget_s: 1.0,
    kernel_ops: 20_000,
};
