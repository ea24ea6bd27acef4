//! Span assembly and export for the causal tracer.
//!
//! Turns the flat [`TraceRecord`] stream into three artifacts:
//!
//! 1. **Chrome trace-event JSON** (Perfetto-viewable): an async
//!    lifecycle span per traced packet, per-hop `X` slices on one
//!    track per device (ingress → grant, carrying VL / VoQ depth /
//!    credit args), and `s`/`t`/`f` flow arrows stitching each causal
//!    FECN mark → CNP queued → CNP inject → CNP deliver → CCTI raise →
//!    throttle chain.
//! 2. **Flat CSV**: one row per record, stable column order, for
//!    grep/pandas consumption.
//! 3. **[`causal_chains`]**: the paired chain structures themselves,
//!    which the committed windy test asserts on and the JSON exporter
//!    reuses.
//!
//! Pairing rules (all order-preserving, so they hold under the
//! deterministic event order): a `CnpQueued` record carries the marked
//! data packet's key, so mark ↔ CNP-queued pairing is exact; the nth
//! `CnpQueued` of a flow pairs with the nth CNP `Inject` (the per-HCA
//! CNP queue is FIFO and its per-destination subsequence preserves
//! order); the nth CNP `Deliver` pairs with the nth `CctiRaise` (they
//! are recorded by the same drain event). Chains are truncated at the
//! first missing link (e.g. a CNP the trace never saw delivered).

use crate::trace::{TracePoint, TraceRecord};
use crate::types::NodeId;
use serde::Serialize;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};

/// One FECN→BECN→CCTI→throttle causal chain, paired from the record
/// stream. `flow` is the *data* flow (src, dst); the CNP legs travel
/// the reverse direction.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CausalChain {
    pub flow: (NodeId, NodeId),
    /// Seq of the data packet whose FECN mark started the chain.
    pub data_seq: u32,
    /// FECN mark at a switch arbiter: (time ps, switch index).
    pub mark: Option<(u64, u32)>,
    /// CNP queued at the destination (time ps).
    pub cnp_queued_at: u64,
    /// CNP first flit left the destination HCA.
    pub cnp_inject_at: Option<u64>,
    /// CNP drained at the flow source.
    pub cnp_deliver_at: Option<u64>,
    /// CCTI raise at the source: (time ps, before, after).
    pub ccti_raise: Option<(u64, u16, u16)>,
    /// Injection-rate throttle the raise armed: (time ps, delay ps).
    pub throttle: Option<(u64, u64)>,
}

impl CausalChain {
    /// A chain with every link present: mark → queued → inject →
    /// deliver → raise → throttle.
    pub fn complete(&self) -> bool {
        self.mark.is_some()
            && self.cnp_inject_at.is_some()
            && self.cnp_deliver_at.is_some()
            && self.ccti_raise.is_some()
            && self.throttle.is_some()
    }
}

/// Pair the causal CC chains out of a record stream (capture order).
pub fn causal_chains(records: impl IntoIterator<Item = TraceRecord>) -> Vec<CausalChain> {
    // First FECN-marked Forward per data packet key.
    let mut marks: HashMap<(NodeId, NodeId, u32), (u64, u32)> = HashMap::new();
    // Per data flow (s, d): CnpQueued records, CNP injects/delivers,
    // raises and throttles, each in capture order.
    #[derive(Default)]
    struct FlowLegs {
        queued: Vec<(u64, u32)>, // (at, data_seq)
        injects: Vec<u64>,
        delivers: Vec<u64>,
        raises: Vec<(u64, u16, u16)>,
        throttles: Vec<(u64, u64)>,
    }
    let mut legs: HashMap<(NodeId, NodeId), FlowLegs> = HashMap::new();

    for r in records {
        match r.point {
            TracePoint::Forward {
                switch, fecn: true, ..
            } if !r.cnp => {
                marks.entry(r.key()).or_insert((r.at_ps, switch));
            }
            TracePoint::CnpQueued => {
                legs.entry((r.src, r.dst))
                    .or_default()
                    .queued
                    .push((r.at_ps, r.seq));
            }
            TracePoint::Inject if r.cnp => {
                // CNP travels d→s: the data flow is (dst, src).
                legs.entry((r.dst, r.src))
                    .or_default()
                    .injects
                    .push(r.at_ps);
            }
            TracePoint::Deliver if r.cnp => {
                legs.entry((r.dst, r.src))
                    .or_default()
                    .delivers
                    .push(r.at_ps);
            }
            TracePoint::CctiRaise { before, after } => {
                legs.entry((r.dst, r.src))
                    .or_default()
                    .raises
                    .push((r.at_ps, before, after));
            }
            TracePoint::Throttle { delay_ps } => {
                legs.entry((r.dst, r.src))
                    .or_default()
                    .throttles
                    .push((r.at_ps, delay_ps));
            }
            _ => {}
        }
    }

    let mut flows: Vec<(NodeId, NodeId)> = legs.keys().copied().collect();
    flows.sort_unstable();
    let mut chains = Vec::new();
    for flow in flows {
        let l = &legs[&flow];
        // A throttle record always immediately follows its raise (same
        // timestamp, same drain event), so nth raise ↔ nth throttle —
        // but only while the timestamps agree (a raise below threshold
        // arms no throttle and consumes no throttle record).
        let mut throttles = l.throttles.iter().copied().peekable();
        let mut raise_throttle: Vec<Option<(u64, u64)>> = Vec::new();
        for &(at, _, _) in &l.raises {
            if throttles.peek().is_some_and(|&(tat, _)| tat == at) {
                raise_throttle.push(throttles.next());
            } else {
                raise_throttle.push(None);
            }
        }
        for (i, &(queued_at, data_seq)) in l.queued.iter().enumerate() {
            chains.push(CausalChain {
                flow,
                data_seq,
                mark: marks.get(&(flow.0, flow.1, data_seq)).copied(),
                cnp_queued_at: queued_at,
                cnp_inject_at: l.injects.get(i).copied(),
                cnp_deliver_at: l.delivers.get(i).copied(),
                ccti_raise: l.raises.get(i).copied(),
                throttle: raise_throttle.get(i).copied().flatten(),
            });
        }
    }
    chains
}

/// Perfetto/Chrome track ids: HCAs keep their node id, switches live
/// at a fixed offset so both fit one process.
fn switch_tid(switch: u32) -> u64 {
    1_000_000 + switch as u64
}

fn hca_tid(hca: NodeId) -> u64 {
    hca as u64
}

fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

fn pkt_name(r: &TraceRecord) -> String {
    if r.cnp {
        format!("cnp {}→{}", r.src, r.dst)
    } else {
        format!("pkt {}→{} #{}", r.src, r.dst, r.seq)
    }
}

/// Writes a Chrome trace-event document one event at a time, in the
/// bytes `serde_json::to_string_pretty` gives for the whole document:
/// only the events not yet flushed to `w` are ever held.
struct EventSink<W: Write> {
    w: W,
    buf: String,
    events: usize,
}

impl<W: Write> EventSink<W> {
    fn new(w: W) -> Self {
        let buf = String::from("{\n  \"traceEvents\": [");
        EventSink { w, buf, events: 0 }
    }

    /// Append one element of `traceEvents`.
    fn push(&mut self, event: Value) -> io::Result<()> {
        self.buf.push_str(if self.events == 0 {
            "\n    "
        } else {
            ",\n    "
        });
        serde_json::push_pretty(&event, 2, &mut self.buf);
        self.events += 1;
        if self.buf.len() >= 1 << 16 {
            self.w.write_all(self.buf.as_bytes())?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Close `traceEvents` and write the document's tail.
    fn finish(mut self) -> io::Result<()> {
        self.buf
            .push_str(if self.events == 0 { "]," } else { "\n  ]," });
        self.buf.push_str(concat!(
            "\n  \"displayTimeUnit\": \"ns\",",
            "\n  \"metadata\": {",
            "\n    \"tool\": \"ibsim causal tracer\",",
            "\n    \"time_unit\": \"us (from ps)\"",
            "\n  }\n}",
        ));
        self.w.write_all(self.buf.as_bytes())?;
        self.w.flush()
    }
}

/// Write records as a pretty-printed Chrome trace-event JSON document
/// (`{"traceEvents": [...]}`), viewable in Perfetto / chrome://tracing.
/// Events are printed as they are built, so the document never exists
/// in memory as a whole.
pub fn chrome_trace_json(records: &[TraceRecord], w: impl Write) -> io::Result<()> {
    let mut events = EventSink::new(w);
    let pid = 1u64;

    // Track naming metadata. Collect every tid we will emit on.
    let mut tracks: HashMap<u64, String> = HashMap::new();
    for r in records {
        match r.point {
            TracePoint::SwitchArrive { switch, .. } | TracePoint::Forward { switch, .. } => {
                tracks.insert(switch_tid(switch), format!("switch {switch}"));
            }
            _ => {
                tracks.insert(hca_tid(r.src), format!("hca {}", r.src));
                tracks.insert(hca_tid(r.dst), format!("hca {}", r.dst));
            }
        }
    }
    let mut track_list: Vec<(u64, String)> = tracks.into_iter().collect();
    track_list.sort();
    for (tid, name) in &track_list {
        events.push(json!({
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": name},
        }))?;
    }

    // Group records by key, preserving capture order.
    let mut order: Vec<(NodeId, NodeId, u32, bool)> = Vec::new();
    let mut groups: HashMap<(NodeId, NodeId, u32, bool), Vec<&TraceRecord>> = HashMap::new();
    for r in records {
        let k = (r.src, r.dst, r.seq, r.cnp);
        groups.entry(k).or_insert_with(|| {
            order.push(k);
            Vec::new()
        });
        groups.get_mut(&k).unwrap().push(r);
    }

    for (span_id, k) in order.iter().enumerate() {
        let recs = &groups[k];
        let name = pkt_name(recs[0]);
        let first = recs[0];
        let last = recs[recs.len() - 1];
        // Async lifecycle span on the source HCA's track.
        events.push(json!({
            "ph": "b", "cat": "packet", "id": span_id, "pid": pid,
            "tid": hca_tid(first.src), "ts": us(first.at_ps), "name": name,
            "args": {"vl": first.vl, "seq": first.seq, "cnp": first.cnp},
        }))?;
        events.push(json!({
            "ph": "e", "cat": "packet", "id": span_id, "pid": pid,
            "tid": hca_tid(first.src), "ts": us(last.at_ps), "name": name,
        }))?;
        // Per-hop child slices: switch ingress → arbiter grant.
        let mut pending_arrive: HashMap<u32, &TraceRecord> = HashMap::new();
        for r in recs.iter() {
            match r.point {
                TracePoint::SwitchArrive { switch, .. } => {
                    pending_arrive.insert(switch, r);
                }
                TracePoint::Forward {
                    switch,
                    out_port,
                    fecn,
                } => {
                    if let Some(a) = pending_arrive.remove(&switch) {
                        let (in_port, voq_at_arrive) = match a.point {
                            TracePoint::SwitchArrive { in_port, .. } => (in_port, a.voq),
                            _ => unreachable!(),
                        };
                        events.push(json!({
                            "ph": "X", "cat": "hop", "pid": pid,
                            "tid": switch_tid(switch),
                            "ts": us(a.at_ps),
                            "dur": us(r.at_ps.saturating_sub(a.at_ps)),
                            "name": format!("{name} @sw{switch}"),
                            "args": {
                                "vl": r.vl, "in_port": in_port,
                                "out_port": out_port, "fecn": fecn,
                                "voq_at_arrive": voq_at_arrive,
                                "voq_at_grant": r.voq,
                                "credit_at_grant": r.credit,
                            },
                        }))?;
                    }
                }
                TracePoint::Inject => {
                    events.push(json!({
                        "ph": "X", "cat": "hop", "pid": pid,
                        "tid": hca_tid(r.src), "ts": us(r.at_ps), "dur": 0.001,
                        "name": format!("inject {name}"),
                        "args": {"vl": r.vl, "queue": r.voq, "credit": r.credit},
                    }))?;
                }
                TracePoint::Arrive | TracePoint::Deliver => {
                    events.push(json!({
                        "ph": "X", "cat": "hop", "pid": pid,
                        "tid": hca_tid(r.dst), "ts": us(r.at_ps), "dur": 0.001,
                        "name": format!(
                            "{} {name}",
                            if r.point == TracePoint::Arrive { "arrive" } else { "deliver" }
                        ),
                        "args": {"vl": r.vl, "queue": r.voq},
                    }))?;
                }
                _ => {}
            }
        }
    }

    // Causal chain slices + flow arrows.
    for (ci, ch) in causal_chains(records.iter().copied()).iter().enumerate() {
        let (s, d) = ch.flow;
        let flow_id = format!("cc{ci}");
        let mut step = |ph: &str, ts_ps: u64, tid: u64, name: String, args: Value| {
            // A visible slice for the step, plus the flow-arrow event
            // bound to it (same ts/tid binds the arrow to the slice).
            events.push(json!({
                "ph": "X", "cat": "cc", "pid": pid, "tid": tid,
                "ts": us(ts_ps), "dur": 0.001, "name": name, "args": args,
            }))?;
            events.push(json!({
                "ph": ph, "cat": "cc-causal", "pid": pid, "tid": tid,
                "ts": us(ts_ps), "id": flow_id, "name": format!("chain {s}→{d}"),
            }))
        };
        let mut first = true;
        if let Some((at, sw)) = ch.mark {
            step(
                "s",
                at,
                switch_tid(sw),
                format!("FECN mark {s}→{d} #{}", ch.data_seq),
                json!({"switch": sw}),
            )?;
            first = false;
        }
        step(
            if first { "s" } else { "t" },
            ch.cnp_queued_at,
            hca_tid(d),
            format!("CNP queued {d}→{s}"),
            json!({"data_seq": ch.data_seq}),
        )?;
        if let Some(at) = ch.cnp_inject_at {
            step(
                "t",
                at,
                hca_tid(d),
                format!("CNP inject {d}→{s}"),
                json!({}),
            )?;
        }
        if let Some(at) = ch.cnp_deliver_at {
            step(
                "t",
                at,
                hca_tid(s),
                format!("CNP deliver @hca{s}"),
                json!({}),
            )?;
        }
        if let Some((at, before, after)) = ch.ccti_raise {
            let ph = if ch.throttle.is_some() { "t" } else { "f" };
            step(
                ph,
                at,
                hca_tid(s),
                format!("CCTI raise {before}→{after}"),
                json!({"before": before, "after": after}),
            )?;
        }
        if let Some((at, delay_ps)) = ch.throttle {
            step(
                "f",
                at,
                hca_tid(s),
                format!("throttle {delay_ps} ps"),
                json!({"delay_ps": delay_ps}),
            )?;
        }
    }

    events.finish()
}

/// Write records as a flat CSV: one row per record, capture order,
/// stable columns.
pub fn records_csv(
    records: impl IntoIterator<Item = TraceRecord>,
    w: impl Write,
) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(b"at_ps,src,dst,seq,cnp,point,vl,voq,credit,detail\n")?;
    for r in records {
        let point = match r.point {
            TracePoint::Inject => "inject",
            TracePoint::SwitchArrive { .. } => "switch_arrive",
            TracePoint::Forward { .. } => "forward",
            TracePoint::Arrive => "arrive",
            TracePoint::Deliver => "deliver",
            TracePoint::CnpQueued => "cnp_queued",
            TracePoint::CctiRaise { .. } => "ccti_raise",
            TracePoint::Throttle { .. } => "throttle",
        };
        write!(
            w,
            "{},{},{},{},{},{point},{},{},{},",
            r.at_ps, r.src, r.dst, r.seq, r.cnp as u8, r.vl, r.voq, r.credit
        )?;
        match r.point {
            TracePoint::SwitchArrive { switch, in_port } => {
                writeln!(w, "sw={switch};in={in_port}")
            }
            TracePoint::Forward {
                switch,
                out_port,
                fecn,
            } => writeln!(w, "sw={switch};out={out_port};fecn={}", fecn as u8),
            TracePoint::CctiRaise { before, after } => {
                writeln!(w, "before={before};after={after}")
            }
            TracePoint::Throttle { delay_ps } => writeln!(w, "delay_ps={delay_ps}"),
            _ => writeln!(w),
        }?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceCtx;
    use crate::trace::Tracer;
    use ibsim_engine::time::Time;

    fn ctx() -> TraceCtx {
        TraceCtx {
            vl: 0,
            voq: 1,
            credit: 4,
        }
    }

    /// A synthetic but shape-correct chain: data packet 0→5 marked at
    /// switch 2, CNP queued/injected at 5, delivered at 0, raise +
    /// throttle.
    fn chain_records() -> Vec<TraceRecord> {
        let mut t = Tracer::for_flows([(0, 5)]);
        t.record(Time(10), 0, 5, 3, false, TracePoint::Inject, ctx());
        t.record(
            Time(20),
            0,
            5,
            3,
            false,
            TracePoint::SwitchArrive {
                switch: 2,
                in_port: 1,
            },
            ctx(),
        );
        t.record(
            Time(30),
            0,
            5,
            3,
            false,
            TracePoint::Forward {
                switch: 2,
                out_port: 4,
                fecn: true,
            },
            ctx(),
        );
        t.record(Time(40), 0, 5, 3, false, TracePoint::Arrive, ctx());
        t.record(Time(45), 0, 5, 3, false, TracePoint::CnpQueued, ctx());
        t.record(Time(50), 5, 0, 0, true, TracePoint::Inject, ctx());
        t.record(Time(70), 5, 0, 0, true, TracePoint::Deliver, ctx());
        t.record(
            Time(70),
            5,
            0,
            0,
            true,
            TracePoint::CctiRaise {
                before: 0,
                after: 1,
            },
            ctx(),
        );
        t.record(
            Time(70),
            5,
            0,
            0,
            true,
            TracePoint::Throttle { delay_ps: 900 },
            ctx(),
        );
        t.records().collect()
    }

    /// The Chrome document `chrome_trace_json` writes, read back.
    fn chrome_doc(records: &[TraceRecord]) -> Value {
        let mut bytes = Vec::new();
        chrome_trace_json(records, &mut bytes).unwrap();
        serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap()
    }

    fn csv_text(records: &[TraceRecord]) -> String {
        let mut bytes = Vec::new();
        records_csv(records.iter().copied(), &mut bytes).unwrap();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn chains_pair_every_link() {
        let chains = causal_chains(chain_records());
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert_eq!(c.flow, (0, 5));
        assert_eq!(c.data_seq, 3);
        assert_eq!(c.mark, Some((30, 2)));
        assert_eq!(c.cnp_queued_at, 45);
        assert_eq!(c.cnp_inject_at, Some(50));
        assert_eq!(c.cnp_deliver_at, Some(70));
        assert_eq!(c.ccti_raise, Some((70, 0, 1)));
        assert_eq!(c.throttle, Some((70, 900)));
        assert!(c.complete());
    }

    #[test]
    fn lost_cnp_truncates_the_chain() {
        let mut recs = chain_records();
        // Drop the CNP deliver + raise + throttle (a lost CNP).
        recs.truncate(6);
        let chains = causal_chains(recs);
        assert_eq!(chains.len(), 1);
        assert!(chains[0].cnp_inject_at.is_some());
        assert!(chains[0].cnp_deliver_at.is_none());
        assert!(!chains[0].complete());
    }

    #[test]
    fn raise_below_threshold_consumes_no_throttle() {
        // Two raises, only the second armed a throttle: the pairing
        // must not attach the throttle to the first raise.
        let mut t = Tracer::for_flows([(0, 5)]);
        for at in [100u64, 200] {
            t.record(Time(at - 5), 0, 5, 1, false, TracePoint::CnpQueued, ctx());
            t.record(
                Time(at),
                5,
                0,
                0,
                true,
                TracePoint::CctiRaise {
                    before: 0,
                    after: 1,
                },
                ctx(),
            );
        }
        t.record(
            Time(200),
            5,
            0,
            0,
            true,
            TracePoint::Throttle { delay_ps: 7 },
            ctx(),
        );
        let chains = causal_chains(t.records());
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].throttle, None);
        assert_eq!(chains[1].throttle, Some((200, 7)));
    }

    #[test]
    fn chrome_json_has_spans_slices_and_flow_arrows() {
        let doc = chrome_doc(&chain_records());
        let events = doc["traceEvents"].as_array().unwrap();
        let count = |ph: &str| events.iter().filter(|e| e["ph"] == ph).count();
        assert!(count("b") >= 2, "lifecycle spans for data pkt + cnp");
        assert_eq!(count("b"), count("e"));
        assert!(count("X") >= 5, "hop + causal step slices");
        assert_eq!(count("s"), 1, "one chain start");
        assert_eq!(count("f"), 1, "one chain finish");
        assert!(count("t") >= 3, "intermediate chain steps");
    }

    #[test]
    fn chrome_json_is_the_pretty_printed_document() {
        // Written event by event, the document is byte for byte what
        // the pretty printer gives for it as a whole, empty or not.
        for records in [Vec::new(), chain_records()] {
            let mut bytes = Vec::new();
            chrome_trace_json(&records, &mut bytes).unwrap();
            let doc = chrome_doc(&records);
            assert_eq!(
                String::from_utf8(bytes).unwrap(),
                serde_json::to_string_pretty(&doc).unwrap()
            );
        }
    }

    #[test]
    fn csv_is_rectangular_and_in_capture_order() {
        let csv = csv_text(&chain_records());
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows.len(), 1 + 9);
        let width = rows[0].split(',').count();
        assert!(rows.iter().all(|r| r.split(',').count() == width));
        let times: Vec<u64> = rows[1..]
            .iter()
            .map(|r| r.split(',').next().unwrap().parse().unwrap())
            .collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }
}
