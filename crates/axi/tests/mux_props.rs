//! Property tests of the multi-manager mux: ID remapping round-trips
//! through random traffic, no beat is lost or duplicated, and every R/B
//! response routes back to the manager that issued the request — under
//! random request schedules, random subordinate interleavings and random
//! stalls, with protocol monitors attached on both sides of the mux.

use std::collections::VecDeque;

use axi_proto::checker::Monitor;
use axi_proto::{ArBeat, AxiChannels, AxiId, AxiMux, BusConfig, RBeat, Resp, WBeat, LOCAL_ID_BITS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bus() -> BusConfig {
    BusConfig::new(64)
}

/// One read burst a manager will issue: (local id, beats).
type ReadReq = (u8, u32);

/// A subordinate-side open read burst.
struct OpenRead {
    id: AxiId,
    beats_left: u32,
}

/// Drives `n` managers with the given read schedules through a mux into a
/// model subordinate that serves open bursts in random interleavings with
/// random stalls. Returns, per manager, the received beats as
/// `(local id, downstream id, last)` in arrival order.
fn run_read_traffic(schedules: &[Vec<ReadReq>], seed: u64) -> Vec<Vec<(u16, u8, bool)>> {
    let n = schedules.len();
    let bus = bus();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mux = AxiMux::cascade(n, LOCAL_ID_BITS);
    let mut mgrs: Vec<AxiChannels> = (0..n).map(|_| AxiChannels::new()).collect();
    let mut down = AxiChannels::new();
    let mut mgr_mons: Vec<Monitor> = (0..n)
        .map(|_| Monitor::with_id_bits(bus, LOCAL_ID_BITS))
        .collect();
    let mut down_mon = Monitor::new(bus);

    let mut pending: Vec<VecDeque<ReadReq>> = schedules
        .iter()
        .map(|s| s.iter().copied().collect())
        .collect();
    let expected: Vec<u64> = schedules
        .iter()
        .map(|s| s.iter().map(|(_, b)| *b as u64).sum())
        .collect();
    let mut open: Vec<OpenRead> = Vec::new();
    let mut received: Vec<Vec<(u16, u8, bool)>> = vec![Vec::new(); n];

    for cycle in 0..20_000u64 {
        // Managers issue their next request and drain responses.
        for (p, m) in mgrs.iter_mut().enumerate() {
            if m.ar.can_push() {
                if let Some((id, beats)) = pending[p].pop_front() {
                    let ar = ArBeat::incr(id, 0x40 * cycle, beats, &bus);
                    mgr_mons[p].observe_ar(&ar);
                    m.ar.push(ar);
                }
            }
            if let Some(r) = m.r.pop() {
                mgr_mons[p].observe_r(&r);
                received[p].push((r.id.0, r.data[0], r.last));
            }
        }
        // Subordinate: accept requests, serve a random open burst, stall
        // randomly.
        if let Some(ar) = down.ar.pop() {
            down_mon.observe_ar(&ar);
            open.push(OpenRead {
                id: ar.id,
                beats_left: ar.beats,
            });
        }
        if !open.is_empty() && down.r.can_push() && rng.gen_range(0..4u32) != 0 {
            // AXI same-ID ordering: only the oldest burst of each ID may
            // emit; different IDs interleave freely.
            let eligible: Vec<usize> = (0..open.len())
                .filter(|&i| open[..i].iter().all(|o| o.id != open[i].id))
                .collect();
            let i = eligible[rng.gen_range(0..eligible.len())];
            open[i].beats_left -= 1;
            let beat = RBeat {
                id: open[i].id,
                // Tag the payload with the downstream ID so routing is
                // provable end to end.
                data: vec![open[i].id.0 as u8; bus.data_bytes()].into(),
                payload_bytes: bus.data_bytes(),
                last: open[i].beats_left == 0,
                resp: Resp::Okay,
            };
            down_mon.observe_r(&beat);
            down.r.push(beat);
            if open[i].beats_left == 0 {
                open.remove(i);
            }
        }
        mux.tick(&mut mgrs, &mut down);
        for m in mgrs.iter_mut() {
            m.end_cycle();
        }
        down.end_cycle();
        let all_served = received
            .iter()
            .zip(&expected)
            .all(|(got, want)| got.len() as u64 == *want);
        if all_served && mux.quiescent() {
            break;
        }
    }
    for (p, (got, want)) in received.iter().zip(&expected).enumerate() {
        assert_eq!(got.len() as u64, *want, "manager {p} lost or gained beats");
        assert!(mux.manager_quiescent(p), "manager {p} never drained");
        assert!(
            mgr_mons[p].violations().is_empty(),
            "manager {p} monitor: {:?}",
            mgr_mons[p].violations()
        );
        assert!(mgr_mons[p].quiescent(), "manager {p} monitor not quiescent");
    }
    assert!(
        down_mon.violations().is_empty(),
        "downstream monitor: {:?}",
        down_mon.violations()
    );
    assert!(down_mon.quiescent());
    received
}

fn local_ids() -> impl Strategy<Value = u8> {
    0u8..(1 << LOCAL_ID_BITS)
}

proptest! {
    /// The manager-index prefix survives any round trip: the downstream ID
    /// decomposes back into exactly the issuing manager and its local ID.
    #[test]
    fn remapped_ids_roundtrip_through_live_traffic(
        seed in 0u64..1_000_000,
        ids in proptest::collection::vec(local_ids(), 2..8),
    ) {
        // Two managers issuing the same local IDs: responses must still
        // separate cleanly by manager.
        let sched: Vec<ReadReq> = ids.iter().map(|&id| (id, 1)).collect();
        let received = run_read_traffic(&[sched.clone(), sched], seed);
        for (p, beats) in received.iter().enumerate() {
            for &(local, down_id, _) in beats {
                prop_assert_eq!(
                    u16::from(down_id),
                    (p as u16) << LOCAL_ID_BITS | local,
                    "manager {} received a beat issued by another manager",
                    p
                );
            }
        }
    }

    /// Under random schedules, interleavings and stalls: every burst's
    /// beats arrive at the issuing manager, in order per ID, with `last`
    /// on — and only on — the final beat; nothing is lost or duplicated.
    #[test]
    fn no_beat_loss_duplication_or_misroute(
        seed in 0u64..1_000_000,
        schedules in proptest::collection::vec(
            proptest::collection::vec((local_ids(), 1u32..5), 1..7),
            2..5,
        ),
    ) {
        let received = run_read_traffic(&schedules, seed);
        for (p, beats) in received.iter().enumerate() {
            // Per-ID in-order completion with correct burst lengths.
            let mut per_id: Vec<VecDeque<u32>> = vec![VecDeque::new(); 1 << LOCAL_ID_BITS];
            for &(id, beats_in_burst) in &schedules[p] {
                per_id[id as usize].push_back(beats_in_burst);
            }
            let mut progress = vec![0u32; 1 << LOCAL_ID_BITS];
            for &(local, down_id, last) in beats {
                prop_assert_eq!(down_id >> LOCAL_ID_BITS, p as u8, "misrouted beat");
                let want = per_id[local as usize]
                    .front()
                    .copied()
                    .ok_or_else(|| TestCaseError::fail(format!(
                        "manager {p}: extra beat on id {local}"
                    )))?;
                progress[local as usize] += 1;
                prop_assert_eq!(last, progress[local as usize] == want, "bad last flag");
                if last {
                    per_id[local as usize].pop_front();
                    progress[local as usize] = 0;
                }
            }
            prop_assert!(
                per_id.iter().all(VecDeque::is_empty),
                "manager {} has unfinished bursts",
                p
            );
        }
    }

    /// Writes: W beats reach the subordinate grouped per accepted AW and
    /// tagged with the right manager, and every B response routes back to
    /// the issuing manager.
    #[test]
    fn writes_route_and_respond_per_manager(
        seed in 0u64..1_000_000,
        schedules in proptest::collection::vec(
            proptest::collection::vec((local_ids(), 1u32..4), 1..5),
            2..5,
        ),
    ) {
        let n = schedules.len();
        let bus = bus();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mux = AxiMux::cascade(n, LOCAL_ID_BITS);
        let mut mgrs: Vec<AxiChannels> = (0..n).map(|_| AxiChannels::new()).collect();
        let mut down = AxiChannels::new();
        let mut aw_pending: Vec<VecDeque<ReadReq>> = schedules
            .iter()
            .map(|s| s.iter().copied().collect())
            .collect();
        // Each manager's W stream, in its own AW order.
        let mut w_pending: Vec<VecDeque<WBeat>> = schedules
            .iter()
            .enumerate()
            .map(|(p, s)| {
                s.iter()
                    .flat_map(|&(_, beats)| {
                        (0..beats).map(move |k| {
                            WBeat::full(vec![p as u8; bus.data_bytes()], k + 1 == beats)
                        })
                    })
                    .collect()
            })
            .collect();
        let expected_b: Vec<usize> = schedules.iter().map(Vec::len).collect();
        let mut got_b = vec![0usize; n];
        // Subordinate state: accepted AWs in order, beats outstanding.
        let mut w_route: VecDeque<(u16, u32)> = VecDeque::new();
        let mut b_queue: VecDeque<AxiId> = VecDeque::new();
        for cycle in 0..20_000u64 {
            for (p, m) in mgrs.iter_mut().enumerate() {
                if m.aw.can_push() {
                    if let Some((id, beats)) = aw_pending[p].pop_front() {
                        m.aw.push(ArBeat::incr(id, 0x40 * cycle, beats, &bus));
                    }
                }
                if m.w.can_push() {
                    if let Some(w) = w_pending[p].pop_front() {
                        m.w.push(w);
                    }
                }
                if let Some(_b) = m.b.pop() {
                    got_b[p] += 1;
                }
            }
            if let Some(aw) = down.aw.pop() {
                w_route.push_back((aw.id.0, aw.beats));
            }
            if let Some(w) = down.w.pop() {
                let (down_id, beats_left) = w_route
                    .front_mut()
                    .ok_or_else(|| TestCaseError::fail("W beat before any AW"))?;
                // The beat's manager tag must match the front AW's prefix.
                prop_assert_eq!(u16::from(w.data[0]), *down_id >> LOCAL_ID_BITS, "W beat misrouted");
                *beats_left -= 1;
                prop_assert_eq!(w.last, *beats_left == 0, "bad W last flag");
                if *beats_left == 0 {
                    b_queue.push_back(AxiId(*down_id));
                    w_route.pop_front();
                }
            }
            if down.b.can_push() && rng.gen_range(0..3u32) != 0 {
                if let Some(id) = b_queue.pop_front() {
                    down.b.push(axi_proto::BBeat { id, resp: Resp::Okay });
                }
            }
            mux.tick(&mut mgrs, &mut down);
            for m in mgrs.iter_mut() {
                m.end_cycle();
            }
            down.end_cycle();
            if got_b.iter().zip(&expected_b).all(|(g, e)| g == e) && mux.quiescent() {
                break;
            }
        }
        prop_assert_eq!(&got_b, &expected_b, "B responses lost or misrouted");
        prop_assert!(mux.quiescent(), "mux never drained");
    }
}
