//! The "ideal requestor" of the paper's parameter-sensitivity study
//! (§III-E): a traffic generator that drives the AXI-Pack controller
//! directly with continuous packed read bursts of length 256, so the
//! measured R utilization isolates controller and bank behaviour from the
//! vector processor.

use axi_proto::{ArBeat, AxiChannels, BusConfig, ElemSize, IdxSize};
use banked_mem::{BankConfig, Storage};
use pack_ctrl::{Adapter, CtrlConfig, StagePolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of one sensitivity measurement.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Bus width in bits (paper: 256).
    pub bus_bits: u32,
    /// Bank count; ignored when `conflict_free`.
    pub banks: usize,
    /// `true` models the paper's "ideal" conflict-free memory.
    pub conflict_free: bool,
    /// Decoupling-queue depth (paper uses 32 here, not the system's 4,
    /// "to avoid bottlenecks unrelated to our analysis").
    pub queue_depth: usize,
    /// Number of length-256 bursts to stream.
    pub bursts: usize,
    /// Index/element stage arbitration policy (ablation; paper uses
    /// round-robin).
    pub stage_policy: StagePolicy,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            bus_bits: 256,
            banks: 17,
            conflict_free: false,
            queue_depth: 32,
            bursts: 4,
            stage_policy: StagePolicy::default(),
        }
    }
}

/// Beats per burst used by the study.
const BURST_BEATS: u32 = 256;
/// Cycle budget per burst before the measurement is declared hung.
const CYCLE_CAP_PER_BURST: u64 = 256 * 64;

fn adapter(cfg: &SweepConfig, storage_bytes: usize) -> (Adapter, AxiChannels) {
    let bank = BankConfig {
        banks: cfg.banks,
        word_bytes: 4,
        latency: 1,
        ports: 0,
        conflict_free: cfg.conflict_free,
        commit_writes: true,
        row_words: 0,
        row_miss_penalty: 0,
    };
    let mut ctrl = CtrlConfig::new(BusConfig::new(cfg.bus_bits), bank, cfg.queue_depth);
    ctrl.stage_policy = cfg.stage_policy;
    let mut storage = Storage::new(storage_bytes);
    // Nonzero fill so reads demonstrably move data; one pass over the raw
    // bytes, not 64Ki bounds-checked word writes per sweep point.
    let words = (storage_bytes / 4).min(1 << 16);
    for (w, chunk) in storage.as_bytes_mut()[..4 * words]
        .chunks_exact_mut(4)
        .enumerate()
    {
        chunk.copy_from_slice(&(w as u32).to_le_bytes());
    }
    (Adapter::new(ctrl, storage), AxiChannels::new())
}

/// Streams the prepared bursts and returns the R-channel busy fraction
/// (beats per cycle — with full-width packed beats this equals the paper's
/// bus utilization).
fn measure(mut adapter: Adapter, mut ch: AxiChannels, mut requests: Vec<ArBeat>) -> f64 {
    requests.reverse(); // pop from the back
    let total: u64 = requests.iter().map(|r| r.beats as u64).sum();
    let cap = CYCLE_CAP_PER_BURST * requests.len() as u64;
    let mut beats = 0u64;
    let mut cycles = 0u64;
    while beats < total {
        if ch.ar.can_push() {
            if let Some(ar) = requests.pop() {
                ch.ar.push(ar);
            }
        }
        if ch.r.pop().is_some() {
            beats += 1;
        }
        adapter.tick(&mut ch);
        adapter.end_cycle();
        ch.end_cycle();
        cycles += 1;
        assert!(cycles < cap, "sensitivity measurement hung");
    }
    beats as f64 / cycles as f64
}

/// R utilization of continuous strided reads at one element size and
/// stride (one point of Fig. 5b before stride averaging).
pub fn strided_read_util(cfg: &SweepConfig, elem: ElemSize, stride: i32) -> f64 {
    let bus = BusConfig::new(cfg.bus_bits);
    let epb = bus.elems_per_beat(elem) as u32;
    let n_elems = BURST_BEATS * epb;
    // Span of one burst plus slack; bursts reuse the same base.
    let span = (n_elems as usize) * (stride.unsigned_abs() as usize).max(1) * elem.bytes();
    let (adapter, ch) = adapter(cfg, span + (1 << 16));
    let reqs = (0..cfg.bursts)
        .map(|i| ArBeat::packed_strided(i as u8, 0, n_elems, elem, stride, &bus))
        .collect();
    measure(adapter, ch, reqs)
}

/// R utilization of strided reads averaged across strides 0–63, as
/// Fig. 5b reports.
pub fn strided_read_util_avg(cfg: &SweepConfig, elem: ElemSize) -> f64 {
    let total: f64 = (0..64).map(|s| strided_read_util(cfg, elem, s)).sum();
    total / 64.0
}

/// R utilization of continuous indirect reads with random indices at one
/// element/index size pair (one point of Fig. 5a). `seed` drives the
/// random index stream, so each point is deterministic.
pub fn indirect_read_util(cfg: &SweepConfig, elem: ElemSize, idx: IdxSize, seed: u64) -> f64 {
    let bus = BusConfig::new(cfg.bus_bits);
    let epb = bus.elems_per_beat(elem) as u32;
    let n_elems = BURST_BEATS * epb;
    // Element pool: whatever the index width can address, capped to a
    // few MiB of backing store.
    let pool_elems = (idx.max_index() + 1).min(1 << 18);
    let elem_base: u64 = 1 << 22;
    let storage_bytes = elem_base as usize + (pool_elems as usize) * elem.bytes() + (1 << 16);
    let (mut adapter, ch) = adapter(cfg, storage_bytes);
    // Plant one index array per burst.
    let mut rng = StdRng::seed_from_u64(seed);
    let idx_array_stride = (n_elems as usize * idx.bytes() + 63) & !63;
    let mut reqs = Vec::with_capacity(cfg.bursts);
    for b in 0..cfg.bursts {
        let idx_addr = (b * idx_array_stride) as u64;
        let mut bytes = vec![0u8; n_elems as usize * idx.bytes()];
        for k in 0..n_elems as usize {
            let v = rng.gen_range(0..pool_elems);
            idx.write_le(v, &mut bytes[k * idx.bytes()..]);
        }
        adapter.storage_mut().write(idx_addr, &bytes);
        reqs.push(ArBeat::packed_indirect(
            b as u8, idx_addr, n_elems, elem, idx, elem_base, &bus,
        ));
    }
    measure(adapter, ch, reqs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SweepConfig {
        SweepConfig {
            bursts: 2,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn unit_stride_on_prime_banks_is_near_ideal() {
        let u = strided_read_util(&quick(), ElemSize::B4, 1);
        assert!(u > 0.85, "unit stride should stream: {u:.2}");
    }

    #[test]
    fn pathological_stride_on_pow2_banks_collapses() {
        let cfg = SweepConfig {
            banks: 8,
            ..quick()
        };
        let u = strided_read_util(&cfg, ElemSize::B4, 8);
        assert!(u < 0.25, "stride 8 on 8 banks must serialize: {u:.2}");
        let prime = strided_read_util(&quick(), ElemSize::B4, 8);
        assert!(prime > 2.0 * u, "17 banks must rescue stride 8: {prime:.2}");
    }

    #[test]
    fn more_banks_help_indirect_reads() {
        let few = indirect_read_util(
            &SweepConfig {
                banks: 8,
                bursts: 2,
                ..SweepConfig::default()
            },
            ElemSize::B4,
            IdxSize::B4,
            1,
        );
        let many = indirect_read_util(
            &SweepConfig {
                banks: 32,
                bursts: 2,
                ..SweepConfig::default()
            },
            ElemSize::B4,
            IdxSize::B4,
            1,
        );
        assert!(many > few, "bank count must help: {few:.2} vs {many:.2}");
    }

    #[test]
    fn index_ratio_bound_holds() {
        // 32-bit elements, 32-bit indices, conflict-free memory: the
        // r/(r+1) = 1/2 bound caps utilization.
        let cfg = SweepConfig {
            conflict_free: true,
            bursts: 2,
            ..SweepConfig::default()
        };
        let u11 = indirect_read_util(&cfg, ElemSize::B4, IdxSize::B4, 2);
        assert!((0.35..=0.55).contains(&u11), "r/(r+1)=0.5 bound: {u11:.2}");
        // 8-bit indices: bound rises to 0.8.
        let u41 = indirect_read_util(&cfg, ElemSize::B4, IdxSize::B1, 2);
        assert!(u41 > u11 + 0.1, "smaller indices must raise util: {u41:.2}");
    }
}
