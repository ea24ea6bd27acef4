//! Traffic generation at an HCA: classes, budgets, destinations.
//!
//! An HCA carries one or more **traffic classes**, each an independent
//! virtual injector with its own byte budget — the Frame I semantics of
//! the paper. A *B node* with p = 50 is two classes: a hotspot class
//! allowed up to 50 % of `t × injection capacity` bytes by time `t`, and
//! a uniform class allowed the other 50 %. The two are independent: a
//! throttled hotspot class never head-of-line blocks the uniform class,
//! and the uniform class never exceeds its own fraction even when the
//! hotspot class idles.

use crate::types::NodeId;
use ibsim_engine::rng::Rng;
use ibsim_engine::time::{Bandwidth, Time, PS_PER_S};
use serde::{Deserialize, Serialize};

/// How a class picks the destination of its next message.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DestPattern {
    /// Always the same destination (hotspot traffic; retargetable for
    /// moving-hotspot scenarios).
    Fixed(NodeId),
    /// Uniform over all `n` end nodes except the sender itself.
    UniformExceptSelf,
    /// Cycle through an explicit list (deterministic tests, permutation
    /// workloads).
    Sequence(Vec<NodeId>),
    /// Replay an explicit schedule of timed, per-message-sized sends —
    /// the substrate of the workload generators (trace replay,
    /// event-builder shifts, collective phases). A script class ignores
    /// the byte budget and the random stream: its timestamps *are* the
    /// offered load.
    Script(Script),
}

/// One timed send of a workload [`Script`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptSend {
    /// Release time: the message becomes sendable once the clock
    /// reaches this instant (injection shaping still applies).
    pub at: Time,
    pub dst: NodeId,
    pub bytes: u32,
}

/// The replay cursor of a [`DestPattern::Script`] class.
///
/// `sends[next..]` are the messages not yet started, in release order.
/// Streaming feeders append in chunks while the simulation runs and
/// [`close`](TrafficClass::close_script) when the source is exhausted;
/// `fed` counts every send ever appended, which is exactly the file
/// cursor a resumed trace replay needs — the whole struct travels in
/// [`ClassState`] (and through `ibsim-net::state`) so checkpoints taken
/// mid-shift or mid-phase restore bit-exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Script {
    pub sends: Vec<ScriptSend>,
    /// Index of the next unstarted send. The consumed prefix is
    /// compacted away on an append once it is half the vector, so
    /// steady-state replay reuses one allocation.
    #[serde(default)]
    pub next: usize,
    /// Total sends ever appended (streaming-resume cursor).
    #[serde(default)]
    pub fed: u64,
    /// No further appends will come; the class finishes when drained.
    #[serde(default)]
    pub closed: bool,
}

impl Script {
    /// The script with the consumed prefix dropped — the canonical form
    /// checkpoints carry, so two captures of the same logical state are
    /// byte-identical regardless of compaction timing.
    fn canonical(&self) -> Script {
        Script {
            sends: self.sends[self.next..].to_vec(),
            next: 0,
            fed: self.fed,
            closed: self.closed,
        }
    }

    /// Sends not yet started.
    pub fn remaining(&self) -> usize {
        self.sends.len() - self.next
    }
}

impl DestPattern {
    fn choose(&mut self, me: NodeId, num_nodes: u32, rng: &mut Rng) -> NodeId {
        match self {
            DestPattern::Fixed(d) => *d,
            DestPattern::UniformExceptSelf => {
                debug_assert!(num_nodes >= 2);
                // Draw from n-1 slots and skip over `me`.
                let r = rng.next_below(num_nodes as u64 - 1) as u32;
                if r >= me {
                    r + 1
                } else {
                    r
                }
            }
            DestPattern::Sequence(seq) => {
                let d = seq[0];
                seq.rotate_left(1);
                d
            }
            // Scripts carry their own destinations and release times;
            // `peek` serves them before the budgeted path ever asks.
            DestPattern::Script(_) => unreachable!("choose() on a script class"),
        }
    }
}

/// A message the class has committed to and is currently sending.
#[derive(Clone, Copy, Debug)]
struct Committed {
    dst: NodeId,
    bytes_left: u32,
}

/// One independent virtual injector at an HCA.
#[derive(Clone, Debug)]
pub struct TrafficClass {
    /// Share of the node's injection capacity this class may consume,
    /// in percent (the paper's `p` / `1 − p`).
    pub percent: u32,
    /// Destination selection for each new message.
    pub dest: DestPattern,
    /// Message size in bytes (the paper: 4096 = two MTU packets).
    pub msg_bytes: u32,
    /// Virtual lane and service level of the class's packets.
    pub vl: u8,
    pub sl: u8,
    /// Stop after this many messages (None = unbounded).
    pub max_messages: Option<u64>,
    // ---- state ---------------------------------------------------------
    sent_bytes: u64,
    messages_started: u64,
    committed: Option<Committed>,
    budget_from: Time,
    /// Private random stream — giving each class its own stream keeps
    /// destination sequences identical between CC-on and CC-off runs of
    /// the same scenario (common random numbers).
    rng: Rng,
}

impl TrafficClass {
    pub fn new(percent: u32, dest: DestPattern, msg_bytes: u32) -> Self {
        assert!(percent <= 100, "budget percent > 100");
        assert!(msg_bytes > 0, "empty messages");
        TrafficClass {
            percent,
            dest,
            msg_bytes,
            vl: 0,
            sl: 0,
            max_messages: None,
            sent_bytes: 0,
            messages_started: 0,
            committed: None,
            budget_from: Time::ZERO,
            rng: Rng::new(0),
        }
    }

    /// Install the class's private random stream (done at registration
    /// by the network, derived from the root seed, node id and class
    /// index).
    pub fn set_rng(&mut self, rng: Rng) {
        self.rng = rng;
    }

    pub fn with_max_messages(mut self, n: u64) -> Self {
        self.max_messages = Some(n);
        self
    }

    /// Delay the class's first message: budget accrual starts at `at`
    /// instead of time zero (incast request staggering). A zero `at` is
    /// byte-identical to not calling this at all.
    pub fn with_start(mut self, at: Time) -> Self {
        self.budget_from = at;
        self
    }

    /// An open, empty script class: sends arrive via
    /// [`append_script`](Self::append_script) and the class finishes
    /// once it is [closed](Self::close_script) and drained. The percent
    /// and message size are nominal — a script ignores the byte budget.
    pub fn script() -> Self {
        TrafficClass::new(100, DestPattern::Script(Script::default()), 1)
    }

    /// A closed script class over a fixed schedule (event-builder
    /// shifts, collective phases). `sends` must be sorted by release
    /// time and never target the class's own node.
    pub fn scripted(sends: Vec<ScriptSend>) -> Self {
        let mut c = Self::script();
        c.append_script(&sends);
        c.close_script();
        c
    }

    /// Append sends to a script class (streaming trace feeders; safe
    /// while the simulation runs — nudge the owning HCA afterwards).
    /// Release times must be monotone across the whole script.
    pub fn append_script(&mut self, sends: &[ScriptSend]) {
        let DestPattern::Script(s) = &mut self.dest else {
            panic!("append_script on a non-script class");
        };
        assert!(!s.closed, "append to a closed script");
        debug_assert!(
            sends.windows(2).all(|w| w[0].at <= w[1].at),
            "script sends out of order"
        );
        debug_assert!(
            match (s.sends.last(), sends.first()) {
                (Some(last), Some(first)) => last.at <= first.at,
                _ => true,
            },
            "script sends released before the already-queued tail"
        );
        debug_assert!(sends.iter().all(|sd| sd.bytes > 0), "empty script send");
        // Steady-state streaming reuses one allocation: once the cursor
        // has passed half the vector, drop the consumed prefix before
        // growing. A feeder keeps a segment queued ahead of the cursor,
        // so waiting for a full drain would keep every record it fed.
        if s.next > 0 && s.next >= s.sends.len() / 2 {
            s.sends.drain(..s.next);
            s.next = 0;
        }
        s.sends.extend_from_slice(sends);
        s.fed += sends.len() as u64;
    }

    /// Declare a script complete: no further appends, the class
    /// finishes when the queued sends drain.
    pub fn close_script(&mut self) {
        let DestPattern::Script(s) = &mut self.dest else {
            panic!("close_script on a non-script class");
        };
        s.closed = true;
    }

    /// The script cursor, when this is a script class.
    pub fn script_state(&self) -> Option<&Script> {
        match &self.dest {
            DestPattern::Script(s) => Some(s),
            _ => None,
        }
    }

    /// Bytes this class was allowed to have sent by `now` at injection
    /// capacity `rate`.
    fn budget_bytes(&self, now: Time, rate: Bandwidth) -> u64 {
        let dt = now.saturating_since(self.budget_from).as_ps() as u128;
        let bits = rate.bits_per_sec() as u128 * dt * self.percent as u128 / 100;
        (bits / (8 * PS_PER_S as u128)) as u64
    }

    /// Earliest time the budget reaches `target` bytes (for wakeups).
    /// Returns `Time::MAX` for a zero-percent class.
    fn budget_ready_at(&self, target: u64, rate: Bandwidth) -> Time {
        if self.percent == 0 || rate.is_zero() {
            return Time::MAX;
        }
        let bits = target as u128 * 8;
        let ps = (bits * PS_PER_S as u128 * 100)
            .div_ceil(rate.bits_per_sec() as u128 * self.percent as u128);
        let ps64 = u64::try_from(ps).unwrap_or(u64::MAX);
        Time(self.budget_from.as_ps().saturating_add(ps64))
    }

    /// Has this class exhausted a message cap (or, for a script class,
    /// drained a closed script)?
    pub fn finished(&self) -> bool {
        if self.committed.is_some() {
            return false;
        }
        if let DestPattern::Script(s) = &self.dest {
            return s.closed && s.remaining() == 0;
        }
        self.max_messages
            .is_some_and(|m| self.messages_started >= m)
    }

    /// What the class would send next, without consuming it.
    ///
    /// Returns the destination and packet size of the head packet, or
    /// `Err(wakeup)` with the earliest time the class could become ready
    /// (`Time::MAX` if only an external event such as new budget from a
    /// recommit can unblock it).
    pub fn peek(
        &mut self,
        now: Time,
        me: NodeId,
        num_nodes: u32,
        rate: Bandwidth,
        mtu: u32,
    ) -> Result<(NodeId, u32), Time> {
        if self.finished() {
            return Err(Time::MAX);
        }
        if self.committed.is_none() {
            if let DestPattern::Script(s) = &mut self.dest {
                // Scripted sends release at their own timestamps; the
                // budget and the random stream stay untouched, so a
                // script class never perturbs its neighbours' draws.
                let Some(&ScriptSend { at, dst, bytes }) = s.sends.get(s.next) else {
                    // Drained but not closed: only an append (which
                    // nudges the injector) can unblock the class.
                    return Err(Time::MAX);
                };
                if now < at {
                    return Err(at);
                }
                debug_assert!(dst != me, "script send targets its own node");
                s.next += 1;
                self.committed = Some(Committed {
                    dst,
                    bytes_left: bytes,
                });
                self.messages_started += 1;
                let c = self.committed.as_ref().unwrap();
                return Ok((c.dst, c.bytes_left.min(mtu)));
            }
            // A new message begins only once the budget covers it beyond
            // what was already sent.
            let need = self.sent_bytes + self.msg_bytes as u64;
            if self.budget_bytes(now, rate) < need {
                return Err(self.budget_ready_at(need, rate));
            }
            let dst = self.dest.choose(me, num_nodes, &mut self.rng);
            debug_assert!(dst != me, "class targets its own node");
            self.committed = Some(Committed {
                dst,
                bytes_left: self.msg_bytes,
            });
            self.messages_started += 1;
        }
        let c = self.committed.as_ref().unwrap();
        Ok((c.dst, c.bytes_left.min(mtu)))
    }

    /// Consume the head packet previously returned by [`peek`](Self::peek).
    pub fn take(&mut self, pkt_bytes: u32) {
        let c = self.committed.as_mut().expect("take without peek");
        debug_assert!(pkt_bytes <= c.bytes_left);
        c.bytes_left -= pkt_bytes;
        self.sent_bytes += pkt_bytes as u64;
        if c.bytes_left == 0 {
            self.committed = None;
        }
    }

    /// Retarget a `Fixed` destination (moving hotspots). A message
    /// already committed to the old destination completes there.
    pub fn retarget(&mut self, new_dst: NodeId) {
        match &mut self.dest {
            DestPattern::Fixed(d) => *d = new_dst,
            _ => panic!("retarget on a non-Fixed class"),
        }
    }

    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }
    pub fn messages_started(&self) -> u64 {
        self.messages_started
    }
    /// True when a message is half-sent.
    pub fn mid_message(&self) -> bool {
        self.committed.is_some()
    }

    /// Export the class's mutable state (checkpoint). The destination
    /// pattern travels too: `Fixed` targets retarget under moving
    /// hotspots and `Sequence` rotates as it serves.
    pub fn state(&self) -> ClassState {
        ClassState {
            dest: match &self.dest {
                // Canonical form: drop the consumed prefix so captures
                // of the same logical state are byte-identical whatever
                // the compaction timing was.
                DestPattern::Script(s) => DestPattern::Script(s.canonical()),
                d => d.clone(),
            },
            sent_bytes: self.sent_bytes,
            messages_started: self.messages_started,
            committed: self.committed.map(|c| (c.dst, c.bytes_left)),
            budget_from: self.budget_from,
            rng: {
                let s = self.rng.state();
                (s[0], s[1], s[2], s[3])
            },
        }
    }

    /// Overwrite the class's mutable state (checkpoint restore). The
    /// configuration fields (percent, message size, VL/SL, caps) come
    /// from the scenario that rebuilt this class.
    pub fn restore_state(&mut self, s: &ClassState) {
        self.dest = s.dest.clone();
        self.sent_bytes = s.sent_bytes;
        self.messages_started = s.messages_started;
        self.committed = s
            .committed
            .map(|(dst, bytes_left)| Committed { dst, bytes_left });
        self.budget_from = s.budget_from;
        self.rng = Rng::from_state([s.rng.0, s.rng.1, s.rng.2, s.rng.3]);
    }
}

/// Serializable image of a [`TrafficClass`]'s mutable state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClassState {
    pub dest: DestPattern,
    pub sent_bytes: u64,
    pub messages_started: u64,
    /// `(dst, bytes_left)` of a half-sent message.
    pub committed: Option<(NodeId, u32)>,
    pub budget_from: Time,
    /// The class's private xoshiro256** stream, mid-sequence.
    pub rng: (u64, u64, u64, u64),
}

/// Convenience: the paper's standard 4096-byte message (2 MTU packets).
pub const PAPER_MSG_BYTES: u32 = 4096;

/// Earliest-of helper for wakeup times.
pub fn earliest(a: Time, b: Time) -> Time {
    if a <= b {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: Bandwidth = Bandwidth::from_gbps(8); // 1 byte per ns

    fn rng() -> Rng {
        Rng::new(1)
    }

    #[test]
    fn fixed_pattern_always_same() {
        let mut c = TrafficClass::new(100, DestPattern::Fixed(7), 4096);
        let (d, b) = c.peek(Time::from_ns(1_000_000), 0, 16, R, 2048).unwrap();
        assert_eq!(d, 7);
        assert_eq!(b, 2048);
    }

    #[test]
    fn uniform_never_picks_self() {
        let mut pat = DestPattern::UniformExceptSelf;
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let d = pat.choose(3, 8, &mut r);
            assert_ne!(d, 3);
            assert!(d < 8);
            seen.insert(d);
        }
        assert_eq!(seen.len(), 7, "all other nodes reachable");
    }

    #[test]
    fn sequence_cycles() {
        let mut pat = DestPattern::Sequence(vec![1, 2, 3]);
        let mut r = rng();
        let picks: Vec<NodeId> = (0..5).map(|_| pat.choose(0, 8, &mut r)).collect();
        assert_eq!(picks, [1, 2, 3, 1, 2]);
    }

    #[test]
    fn budget_gates_message_start() {
        // 50 % of 1 byte/ns; first 4096-byte message needs 8192 ns.
        let mut c = TrafficClass::new(50, DestPattern::Fixed(1), 4096);
        let err = c.peek(Time::from_ns(100), 0, 4, R, 2048).unwrap_err();
        assert_eq!(err, Time::from_ns(8192), "wakeup at exact budget time");
        assert!(c.peek(Time::from_ns(8192), 0, 4, R, 2048).is_ok());
    }

    #[test]
    fn committed_message_survives_budget_dip() {
        let mut c = TrafficClass::new(100, DestPattern::Fixed(1), 4096);
        // Commit at a generous time.
        let (_, b) = c.peek(Time::from_ms(1), 0, 4, R, 2048).unwrap();
        c.take(b);
        assert!(c.mid_message());
        // Second packet of the committed message needs no budget check.
        let (_, b2) = c.peek(Time::from_ms(1), 0, 4, R, 2048).unwrap();
        assert_eq!(b2, 2048);
        c.take(b2);
        assert!(!c.mid_message());
        assert_eq!(c.sent_bytes(), 4096);
        assert_eq!(c.messages_started(), 1);
    }

    #[test]
    fn odd_message_sizes_fragment_to_mtu() {
        let mut c = TrafficClass::new(100, DestPattern::Fixed(1), 5000);
        let mut sizes = vec![];
        loop {
            match c.peek(Time::from_ms(1), 0, 4, R, 2048) {
                Ok((_, b)) => {
                    sizes.push(b);
                    c.take(b);
                    if !c.mid_message() {
                        break;
                    }
                }
                Err(_) => panic!("budget should allow"),
            }
        }
        assert_eq!(sizes, [2048, 2048, 904]);
    }

    #[test]
    fn max_messages_stops_class() {
        let mut c = TrafficClass::new(100, DestPattern::Fixed(1), 2048).with_max_messages(2);
        for _ in 0..2 {
            let (_, b) = c.peek(Time::from_ms(10), 0, 4, R, 2048).unwrap();
            c.take(b);
        }
        assert_eq!(c.peek(Time::from_ms(10), 0, 4, R, 2048), Err(Time::MAX));
    }

    #[test]
    fn zero_percent_class_never_ready() {
        let mut c = TrafficClass::new(0, DestPattern::Fixed(1), 2048);
        assert_eq!(c.peek(Time::from_ms(10), 0, 4, R, 2048), Err(Time::MAX));
    }

    #[test]
    fn budget_fraction_enforced_over_time() {
        // 25 % of 1 byte/ns over 1 ms = 250_000 bytes ⇒ ~61 messages.
        let mut c = TrafficClass::new(25, DestPattern::Fixed(1), 4096);
        let now = Time::from_ms(1);
        let mut sent = 0u64;
        while let Ok((_, b)) = c.peek(now, 0, 4, R, 2048) {
            c.take(b);
            sent += b as u64;
        }
        let budget = 250_000u64;
        assert!(sent <= budget, "{sent} > {budget}");
        assert!(sent >= budget - 4096, "{sent} far below {budget}");
    }

    #[test]
    fn retarget_changes_future_messages() {
        let mut c = TrafficClass::new(100, DestPattern::Fixed(1), 2048);
        let (d, b) = c.peek(Time::from_ms(1), 0, 8, R, 2048).unwrap();
        assert_eq!(d, 1);
        c.take(b);
        c.retarget(5);
        let (d, _) = c.peek(Time::from_ms(1), 0, 8, R, 2048).unwrap();
        assert_eq!(d, 5);
    }

    fn send(at_ns: u64, dst: NodeId, bytes: u32) -> ScriptSend {
        ScriptSend {
            at: Time::from_ns(at_ns),
            dst,
            bytes,
        }
    }

    #[test]
    fn script_releases_at_timestamps() {
        let mut c = TrafficClass::scripted(vec![send(100, 1, 2048), send(500, 2, 4096)]);
        // Before the first release: woken exactly at it.
        assert_eq!(
            c.peek(Time::from_ns(10), 0, 8, R, 2048),
            Err(Time::from_ns(100))
        );
        let (d, b) = c.peek(Time::from_ns(100), 0, 8, R, 2048).unwrap();
        assert_eq!((d, b), (1, 2048));
        c.take(b);
        // Second message: 4096 bytes fragment to two MTU packets.
        assert_eq!(
            c.peek(Time::from_ns(200), 0, 8, R, 2048),
            Err(Time::from_ns(500))
        );
        let (d, b) = c.peek(Time::from_ns(500), 0, 8, R, 2048).unwrap();
        assert_eq!((d, b), (2, 2048));
        c.take(b);
        assert!(c.mid_message());
        let (d, b) = c.peek(Time::from_ns(500), 0, 8, R, 2048).unwrap();
        assert_eq!((d, b), (2, 2048));
        c.take(b);
        assert!(c.finished());
        assert_eq!(c.peek(Time::from_ms(1), 0, 8, R, 2048), Err(Time::MAX));
        assert_eq!(c.messages_started(), 2);
        assert_eq!(c.sent_bytes(), 2048 + 4096);
    }

    #[test]
    fn open_script_waits_for_appends() {
        let mut c = TrafficClass::script();
        // Empty and open: parked until an append nudges the injector.
        assert_eq!(c.peek(Time::from_ns(1), 0, 8, R, 2048), Err(Time::MAX));
        assert!(!c.finished(), "open script is not finished");
        c.append_script(&[send(0, 3, 1024)]);
        let (d, b) = c.peek(Time::from_ns(1), 0, 8, R, 2048).unwrap();
        assert_eq!((d, b), (3, 1024));
        c.take(b);
        c.close_script();
        assert!(c.finished());
        assert_eq!(c.script_state().unwrap().fed, 1);
    }

    #[test]
    fn script_compacts_but_keeps_fed_cursor() {
        let mut c = TrafficClass::script();
        c.append_script(&[send(0, 1, 512), send(0, 2, 512)]);
        for _ in 0..2 {
            let (_, b) = c.peek(Time::ZERO, 0, 8, R, 2048).unwrap();
            c.take(b);
        }
        c.append_script(&[send(10, 3, 512)]);
        let s = c.script_state().unwrap();
        assert_eq!(s.fed, 3, "fed counts every send ever appended");
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.next, 0, "consumed prefix compacted on append");
    }

    #[test]
    fn streamed_script_holds_only_its_look_ahead() {
        // A feeder appends a chunk while the previous one is still
        // queued: the cursor never drains the vector at an append, and
        // the consumed prefix must go anyway.
        const CHUNK: u64 = 10;
        let mut c = TrafficClass::script();
        for k in 0..100 {
            let chunk: Vec<ScriptSend> = (0..CHUNK).map(|i| send(k * CHUNK + i, 1, 512)).collect();
            c.append_script(&chunk);
            let lagging = if k == 0 { 0 } else { CHUNK };
            for _ in 0..lagging {
                let (_, b) = c.peek(Time::from_ms(1), 0, 8, R, 2048).unwrap();
                c.take(b);
            }
            let s = c.script_state().unwrap();
            assert_eq!(s.remaining() as u64, CHUNK);
            assert!(
                s.sends.capacity() as u64 <= 4 * CHUNK,
                "chunk {k}: {} sends held for {} unstarted",
                s.sends.capacity(),
                s.remaining()
            );
        }
        assert_eq!(c.script_state().unwrap().fed, 100 * CHUNK);
    }

    #[test]
    fn script_state_roundtrip_is_canonical() {
        let mut c = TrafficClass::scripted(vec![send(0, 1, 512), send(10, 2, 512)]);
        let (_, b) = c.peek(Time::ZERO, 0, 8, R, 2048).unwrap();
        c.take(b);
        let st = c.state();
        // The capture drops the consumed prefix.
        let DestPattern::Script(s) = &st.dest else {
            panic!("script dest expected")
        };
        assert_eq!(s.next, 0);
        assert_eq!(s.sends, vec![send(10, 2, 512)]);
        assert_eq!(s.fed, 2);
        assert!(s.closed);
        // Restoring onto a freshly configured class resumes mid-script.
        let mut fresh = TrafficClass::scripted(vec![send(0, 1, 512), send(10, 2, 512)]);
        fresh.restore_state(&st);
        assert_eq!(fresh.messages_started(), 1);
        let (d, _) = fresh.peek(Time::from_ns(10), 0, 8, R, 2048).unwrap();
        assert_eq!(d, 2);
    }

    #[test]
    fn staggered_start_delays_first_message() {
        let mut c =
            TrafficClass::new(100, DestPattern::Fixed(1), 2048).with_start(Time::from_us(5));
        let err = c.peek(Time::from_ns(100), 0, 4, R, 2048).unwrap_err();
        // Budget accrues from the stagger point: first message once
        // 2048 bytes fit, i.e. 2048 ns past the 5 µs start.
        assert_eq!(
            err,
            Time::from_us(5) + ibsim_engine::time::TimeDelta::from_ns(2048)
        );
    }

    #[test]
    #[should_panic(expected = "append to a closed script")]
    fn append_after_close_panics() {
        let mut c = TrafficClass::scripted(vec![send(0, 1, 512)]);
        c.append_script(&[send(1, 2, 512)]);
    }
}
