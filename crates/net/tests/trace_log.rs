//! The tracer's compact record log against a plain `Vec<TraceRecord>`
//! kept beside it: whatever sequence of records goes in through
//! `push`, the decoding side (`records`, `len`, `packet`, `path_of`)
//! answers exactly what the vector does.

use ibsim_engine::rng::Rng;
use ibsim_net::{TracePoint, TraceRecord, Tracer};
use proptest::prelude::*;

/// A field value up to `max`: an extreme, a small value or anything.
fn pick(rng: &mut Rng, max: u64) -> u64 {
    match rng.next_below(4) {
        0 => 0,
        1 => max,
        2 => rng.next_below(200).min(max),
        _ => rng.next_u64() & max,
    }
}

/// One record drawn from `seed`, after a record at `prev_at`: every
/// point kind, every field at its extremes, and
/// time that may stand still, step forward or go backwards.
fn record(seed: u64, prev_at: u64) -> TraceRecord {
    let mut rng = Rng::new(seed);
    let node = |rng: &mut Rng| match rng.next_below(4) {
        0 => u32::MAX,
        1 => rng.next_below(4) as u32,
        _ => pick(rng, u32::MAX.into()) as u32,
    };
    let at_ps = match rng.next_below(4) {
        0 => prev_at,
        1 => prev_at.wrapping_add(pick(&mut rng, u64::MAX)),
        2 => prev_at.wrapping_sub(pick(&mut rng, u64::MAX)),
        _ => pick(&mut rng, u64::MAX),
    };
    let (src, dst) = (node(&mut rng), node(&mut rng));
    let u32_ = |rng: &mut Rng| pick(rng, u32::MAX.into()) as u32;
    let (seq, voq, credit) = (u32_(&mut rng), u32_(&mut rng), u32_(&mut rng));
    let (sw, port) = (u32_(&mut rng), pick(&mut rng, u16::MAX.into()) as u16);
    let bit = |rng: &mut Rng| rng.next_below(2) == 1;
    let point = match rng.next_below(8) {
        0 => TracePoint::Inject,
        1 => TracePoint::SwitchArrive {
            switch: sw,
            in_port: port,
        },
        2 => TracePoint::Forward {
            switch: sw,
            out_port: port,
            fecn: bit(&mut rng),
        },
        3 => TracePoint::Arrive,
        4 => TracePoint::Deliver,
        5 => TracePoint::CnpQueued,
        6 => TracePoint::CctiRaise {
            before: port,
            after: pick(&mut rng, u16::MAX.into()) as u16,
        },
        _ => TracePoint::Throttle {
            delay_ps: pick(&mut rng, u64::MAX),
        },
    };
    TraceRecord {
        at_ps,
        src,
        dst,
        seq,
        cnp: bit(&mut rng),
        vl: pick(&mut rng, u8::MAX.into()) as u8,
        voq,
        credit,
        point,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_log_answers_what_a_vector_of_records_does(
        seeds in prop::collection::vec(any::<u64>(), 0..48)
    ) {
        let mut want: Vec<TraceRecord> = Vec::new();
        let mut log = Tracer::default();
        for seed in seeds {
            let rec = record(seed, want.last().map_or(0, |r| r.at_ps));
            log.push(rec);
            want.push(rec);
        }
        prop_assert_eq!(log.len(), want.len());
        prop_assert_eq!(log.is_empty(), want.is_empty());
        prop_assert_eq!(log.records().len(), want.len());
        prop_assert_eq!(&log.records().collect::<Vec<_>>(), &want);
        // Every key the records carry, and one none of them does.
        let keys = want.iter().map(TraceRecord::key).chain([(u32::MAX, 7, 7)]);
        for (src, dst, seq) in keys {
            let packet: Vec<TraceRecord> = want
                .iter()
                .filter(|r| r.key() == (src, dst, seq))
                .copied()
                .collect();
            let path: Vec<u32> = packet
                .iter()
                .filter_map(|r| match r.point {
                    TracePoint::Forward { switch, .. } => Some(switch),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(log.packet(src, dst, seq), packet);
            prop_assert_eq!(log.path_of(src, dst, seq), path);
        }
    }
}
