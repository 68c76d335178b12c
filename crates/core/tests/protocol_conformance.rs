//! Protocol conformance: the AXI-Pack controller's bus behaviour upholds
//! AXI4's burst invariants, checked by the axi-proto Monitor, and the
//! user-field encoding round-trips for arbitrary parameters.

use axi_proto::checker::Monitor;
use axi_proto::{element_addresses, ArBeat, AxiChannels, BusConfig, ElemSize, IdxSize, PackMode};
use banked_mem::{BankConfig, Storage};
use pack_ctrl::{Adapter, CtrlConfig};
use proptest::prelude::*;

fn system() -> (Adapter, AxiChannels, Monitor) {
    let bus = BusConfig::new(256);
    let mut storage = Storage::new(1 << 18);
    for w in 0..(1 << 16) {
        storage.write_u32(4 * w, w as u32);
    }
    storage.write_u32_slice(
        0x10000,
        &(0..2048u32).map(|i| (i * 97) % 4096).collect::<Vec<_>>(),
    );
    let cfg = CtrlConfig::new(bus, BankConfig::default(), 4);
    (
        Adapter::new(cfg, storage),
        AxiChannels::new(),
        Monitor::new(bus),
    )
}

/// Runs a request list through the adapter under the protocol monitor.
fn run_monitored(requests: Vec<ArBeat>) -> Monitor {
    let (mut adapter, mut ch, mut monitor) = system();
    let mut pending = requests;
    pending.reverse();
    for _ in 0..200_000 {
        if ch.ar.can_push() {
            if let Some(ar) = pending.pop() {
                monitor.observe_ar(&ar);
                ch.ar.push(ar);
            }
        }
        if let Some(r) = ch.r.pop() {
            monitor.observe_r(&r);
        }
        adapter.tick(&mut ch);
        adapter.end_cycle();
        ch.end_cycle();
        if pending.is_empty() && adapter.quiescent() && ch.is_empty() {
            return monitor;
        }
    }
    panic!("monitored run did not quiesce");
}

#[test]
fn mixed_burst_traffic_is_protocol_clean() {
    let bus = BusConfig::new(256);
    let reqs = vec![
        ArBeat::incr(0, 0x0, 8, &bus),
        ArBeat::packed_strided(1, 0x40, 64, ElemSize::B4, 3, &bus),
        ArBeat::narrow(2, 0x1234 & !3, ElemSize::B4),
        ArBeat::packed_indirect(3, 0x10000, 48, ElemSize::B4, IdxSize::B4, 0x0, &bus),
        ArBeat::packed_strided(4, 0x2000, 17, ElemSize::B8, -2i32, &bus),
    ];
    let monitor = run_monitored(reqs);
    assert!(
        monitor.violations().is_empty(),
        "protocol violations: {:?}",
        monitor.violations()
    );
    assert!(monitor.quiescent());
    // 8 incr + 8 strided (64 B4 elems) + 1 narrow + 6 indirect (48 elems)
    // + 5 strided (17 B8 elems at 4 per beat).
    assert_eq!(monitor.r_beats(), 8 + 8 + 1 + 6 + 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_mode_encoding_roundtrips(stride in i32::MIN..i32::MAX) {
        let m = PackMode::Strided { stride };
        prop_assert_eq!(PackMode::decode(m.encode()), Some(m));
    }

    #[test]
    fn indirect_encoding_roundtrips(base in 0u64..(1 << 48), idx in 0usize..4) {
        let m = PackMode::Indirect {
            idx_size: IdxSize::ALL[idx],
            elem_base: base,
        };
        prop_assert_eq!(PackMode::decode(m.encode()), Some(m));
    }

    #[test]
    fn strided_bursts_stay_protocol_clean(
        n_elems in 1u32..256,
        stride in 0i32..32,
        base_words in 0u64..256,
    ) {
        let bus = BusConfig::new(256);
        let ar = ArBeat::packed_strided(1, base_words * 4, n_elems, ElemSize::B4, stride, &bus);
        let expected_beats = ar.beats() as u64;
        let monitor = run_monitored(vec![ar]);
        prop_assert!(monitor.violations().is_empty(), "{:?}", monitor.violations());
        prop_assert_eq!(monitor.r_beats(), expected_beats);
    }

    #[test]
    fn strided_expansion_matches_converter_order(
        n_elems in 1u32..64,
        stride in 1i32..16,
    ) {
        // The reference expansion and the wire protocol agree on which
        // elements a burst names.
        let bus = BusConfig::new(256);
        let ar = ArBeat::packed_strided(0, 0x400, n_elems, ElemSize::B4, stride, &bus);
        let addrs = element_addresses(&ar, None, &bus);
        prop_assert_eq!(addrs.len() as u32, n_elems);
        for (k, a) in addrs.iter().enumerate() {
            prop_assert_eq!(*a, 0x400 + (k as u64) * (stride as u64) * 4);
        }
    }
}

#[test]
fn two_requestors_share_one_packed_endpoint() {
    // The paper's multi-requestor claim: two managers — one issuing
    // strided bursts, one issuing indirect bursts — share a single
    // AXI-Pack controller through an ID-remapping mux, and both get
    // exactly their own data back.
    use axi_proto::{AxiMux, LOCAL_ID_BITS};
    let bus = BusConfig::new(256);
    let (mut adapter, mut down, _) = system();
    let mut mux = AxiMux::cascade(2, LOCAL_ID_BITS);
    let mut mgrs = vec![AxiChannels::new(), AxiChannels::new()];
    // Manager 0: every 3rd word from 0x400. Manager 1: gather through the
    // index array at 0x10000.
    let mut pending0 = vec![ArBeat::packed_strided(1, 0x400, 32, ElemSize::B4, 3, &bus)];
    let mut pending1 = vec![ArBeat::packed_indirect(
        2,
        0x10000,
        32,
        ElemSize::B4,
        IdxSize::B4,
        0x0,
        &bus,
    )];
    let mut got: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..2000 {
        if mgrs[0].ar.can_push() {
            if let Some(ar) = pending0.pop() {
                mgrs[0].ar.push(ar);
            }
        }
        if mgrs[1].ar.can_push() {
            if let Some(ar) = pending1.pop() {
                mgrs[1].ar.push(ar);
            }
        }
        for (p, m) in mgrs.iter_mut().enumerate() {
            if let Some(r) = m.r.pop() {
                for k in 0..8 {
                    got[p].push(u32::from_le_bytes(
                        r.data[4 * k..4 * k + 4].try_into().expect("4 bytes"),
                    ));
                }
            }
        }
        mux.tick(&mut mgrs, &mut down);
        adapter.tick(&mut down);
        adapter.end_cycle();
        down.end_cycle();
        for m in mgrs.iter_mut() {
            m.end_cycle();
        }
        if got[0].len() == 32 && got[1].len() == 32 {
            break;
        }
    }
    // Manager 0 sees words 0x100 + 3k (the image stores word index w at
    // word address 4w).
    for (k, v) in got[0].iter().enumerate() {
        assert_eq!(*v, 0x100 + 3 * k as u32, "manager 0 element {k}");
    }
    // Manager 1 sees the gathered values named by the planted indices.
    for (k, v) in got[1].iter().enumerate() {
        assert_eq!(*v, (k as u32 * 97) % 4096, "manager 1 element {k}");
    }
    assert!(mux.quiescent());
}
