//! The `--faults` spec-string grammar.
//!
//! A spec is a `;`-separated list of faults; each fault is a kind tag,
//! a `:`, and `,`-separated `key=value` pairs:
//!
//! ```text
//! spec    := fault (';' fault)*
//! fault   := kind ':' kv (',' kv)*
//! kind    := 'flap' | 'becnloss' | 'drift' | 'pause'
//! kv      := key '=' value
//! time    := <integer> ('ns' | 'us' | 'ms' | 's')
//! link    := 'hca:' <id>     both directions of that HCA's cable
//!          | 'ch:' <id>      one raw unidirectional channel index
//!          | 'hcas'          every channel delivering into an HCA
//! ```
//!
//! Keys per kind:
//!
//! | kind | keys |
//! |---|---|
//! | `flap` | `link`, `at`, `dur`, `factor` (rate divisor; `0` = full stall) |
//! | `becnloss` | `link`, `p` (probability) or `every` (drop 1-in-N), optional `from`/`until` (default: whole run) |
//! | `drift` | `hca`, `at`, and at least one of `ccti_timer`, `ccti_increase` |
//! | `pause` | `hca`, `at`, `dur` |
//!
//! Worked examples:
//!
//! ```text
//! flap:link=hca:0,at=2ms,dur=1ms,factor=4
//! becnloss:link=hcas,p=0.5,from=1ms,until=6ms;pause:hca=3,at=2ms,dur=500us
//! ```

use ibsim_engine::time::{Time, TimeDelta};
use serde::Serialize;

/// Which link(s) a link-scoped fault applies to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum LinkSel {
    /// Both unidirectional channels of the cable attached to this HCA.
    Hca(u32),
    /// One raw unidirectional channel by index.
    Channel(u32),
    /// Every channel whose receiving end is an HCA (all "victim links").
    AllHcaLinks,
}

/// One parsed fault declaration (times absolute from simulation start).
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub enum FaultDecl {
    /// Link degradation: the effective rate of `link` divides by
    /// `factor` over `[at, at + dur)`; `factor == 0` stalls the link
    /// entirely for the window.
    Flap {
        link: LinkSel,
        at: Time,
        dur: TimeDelta,
        factor: u32,
    },
    /// BECN/CNP delivery loss on `link` over `[from, until)`: each CNP
    /// is dropped with probability `p`, or — when `every` is set —
    /// deterministically every `every`-th CNP.
    BecnLoss {
        link: LinkSel,
        p: f64,
        every: Option<u32>,
        from: Time,
        until: Time,
    },
    /// CC parameter drift at one CA from `at` onward.
    Drift {
        hca: u32,
        at: Time,
        ccti_timer: Option<u16>,
        ccti_increase: Option<u16>,
    },
    /// HCA `hca` stops sinking over `[at, at + dur)`.
    Pause { hca: u32, at: Time, dur: TimeDelta },
}

fn parse_time(s: &str, key: &str) -> Result<Time, String> {
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1_000u64)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1_000_000)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000_000_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000_000_000)
    } else {
        return Err(format!("{key}={s:?}: time wants a unit (ns|us|ms|s)"));
    };
    let v: u64 = num
        .parse()
        .map_err(|_| format!("{key}={s:?}: bad number {num:?}"))?;
    v.checked_mul(mult)
        .map(Time)
        .ok_or_else(|| format!("{key}={s:?}: overflows picoseconds"))
}

fn parse_link(s: &str) -> Result<LinkSel, String> {
    if s == "hcas" || s == "all" {
        return Ok(LinkSel::AllHcaLinks);
    }
    if let Some(id) = s.strip_prefix("hca:") {
        return id
            .parse()
            .map(LinkSel::Hca)
            .map_err(|_| format!("link={s:?}: bad HCA id"));
    }
    if let Some(id) = s.strip_prefix("ch:") {
        return id
            .parse()
            .map(LinkSel::Channel)
            .map_err(|_| format!("link={s:?}: bad channel id"));
    }
    Err(format!("link={s:?}: want hca:<id>, ch:<id> or hcas"))
}

/// Split one fault clause into its `key=value` map, rejecting unknown
/// or duplicate keys against `allowed`.
fn parse_kvs<'a>(
    body: &'a str,
    kind: &str,
    allowed: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut kvs = Vec::new();
    for part in body.split(',') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("{kind}: expected key=value, got {part:?}"))?;
        let (k, v) = (k.trim(), v.trim());
        if !allowed.contains(&k) {
            return Err(format!("{kind}: unknown key {k:?} (allowed: {allowed:?})"));
        }
        if kvs.iter().any(|&(seen, _)| seen == k) {
            return Err(format!("{kind}: duplicate key {k:?}"));
        }
        kvs.push((k, v));
    }
    Ok(kvs)
}

fn get<'a>(kvs: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    kvs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
}

fn require<'a>(kvs: &[(&'a str, &'a str)], kind: &str, key: &str) -> Result<&'a str, String> {
    get(kvs, key).ok_or_else(|| format!("{kind}: missing required key {key:?}"))
}

/// Parse a full `--faults` spec string into declarations. An empty (or
/// all-whitespace) spec is valid and yields no faults.
pub fn parse_spec(spec: &str) -> Result<Vec<FaultDecl>, String> {
    let mut decls = Vec::new();
    for clause in spec.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (kind, body) = clause
            .split_once(':')
            .ok_or_else(|| format!("fault {clause:?}: expected kind:key=value,..."))?;
        let decl = match kind.trim() {
            "flap" => {
                let kvs = parse_kvs(body, "flap", &["link", "at", "dur", "factor"])?;
                let dur = parse_time(require(&kvs, "flap", "dur")?, "dur")?;
                if dur == Time::ZERO {
                    return Err("flap: dur must be positive".into());
                }
                FaultDecl::Flap {
                    link: parse_link(require(&kvs, "flap", "link")?)?,
                    at: parse_time(require(&kvs, "flap", "at")?, "at")?,
                    dur: TimeDelta(dur.as_ps()),
                    factor: match get(&kvs, "factor").unwrap_or("0") {
                        "stall" => 0,
                        f => f.parse().map_err(|_| format!("flap: bad factor {f:?}"))?,
                    },
                }
            }
            "becnloss" => {
                let kvs = parse_kvs(body, "becnloss", &["link", "p", "every", "from", "until"])?;
                let p: f64 = match get(&kvs, "p") {
                    Some(s) => s
                        .parse()
                        .map_err(|_| format!("becnloss: bad probability {s:?}"))?,
                    None => 1.0,
                };
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("becnloss: p={p} outside [0, 1]"));
                }
                let every = match get(&kvs, "every") {
                    Some(s) => {
                        let n: u32 = s
                            .parse()
                            .map_err(|_| format!("becnloss: bad every {s:?}"))?;
                        if n == 0 {
                            return Err("becnloss: every must be >= 1".into());
                        }
                        Some(n)
                    }
                    None => None,
                };
                let from = match get(&kvs, "from") {
                    Some(s) => parse_time(s, "from")?,
                    None => Time::ZERO,
                };
                let until = match get(&kvs, "until") {
                    Some(s) => parse_time(s, "until")?,
                    None => Time::MAX,
                };
                if until <= from {
                    return Err(format!("becnloss: until {until:?} <= from {from:?}"));
                }
                FaultDecl::BecnLoss {
                    link: parse_link(require(&kvs, "becnloss", "link")?)?,
                    p,
                    every,
                    from,
                    until,
                }
            }
            "drift" => {
                let kvs = parse_kvs(body, "drift", &["hca", "at", "ccti_timer", "ccti_increase"])?;
                let parse_u16 = |key: &str| -> Result<Option<u16>, String> {
                    get(&kvs, key)
                        .map(|s| s.parse().map_err(|_| format!("drift: bad {key} {s:?}")))
                        .transpose()
                };
                let ccti_timer = parse_u16("ccti_timer")?;
                if ccti_timer == Some(0) {
                    return Err("drift: ccti_timer must be > 0".into());
                }
                let ccti_increase = parse_u16("ccti_increase")?;
                if ccti_timer.is_none() && ccti_increase.is_none() {
                    return Err("drift: wants ccti_timer and/or ccti_increase".into());
                }
                FaultDecl::Drift {
                    hca: require(&kvs, "drift", "hca")?
                        .parse()
                        .map_err(|_| "drift: bad hca id".to_string())?,
                    at: parse_time(require(&kvs, "drift", "at")?, "at")?,
                    ccti_timer,
                    ccti_increase,
                }
            }
            "pause" => {
                let kvs = parse_kvs(body, "pause", &["hca", "at", "dur"])?;
                let dur = parse_time(require(&kvs, "pause", "dur")?, "dur")?;
                if dur == Time::ZERO {
                    return Err("pause: dur must be positive".into());
                }
                FaultDecl::Pause {
                    hca: require(&kvs, "pause", "hca")?
                        .parse()
                        .map_err(|_| "pause: bad hca id".to_string())?,
                    at: parse_time(require(&kvs, "pause", "at")?, "at")?,
                    dur: TimeDelta(dur.as_ps()),
                }
            }
            other => return Err(format!("unknown fault kind {other:?}")),
        };
        decls.push(decl);
    }
    Ok(decls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_no_faults() {
        assert_eq!(parse_spec("").unwrap(), vec![]);
        assert_eq!(parse_spec("  ;  ").unwrap(), vec![]);
    }

    #[test]
    fn flap_round_trip() {
        let d = parse_spec("flap:link=hca:3,at=2ms,dur=500us,factor=4").unwrap();
        assert_eq!(
            d,
            vec![FaultDecl::Flap {
                link: LinkSel::Hca(3),
                at: Time::from_ms(2),
                dur: TimeDelta::from_us(500),
                factor: 4,
            }]
        );
        // factor omitted or "stall" means a full stall.
        let d = parse_spec("flap:link=ch:7,at=1us,dur=1us,factor=stall").unwrap();
        assert!(matches!(d[0], FaultDecl::Flap { factor: 0, .. }));
    }

    #[test]
    fn becnloss_defaults_to_whole_run_certain_drop() {
        let d = parse_spec("becnloss:link=hcas").unwrap();
        assert_eq!(
            d,
            vec![FaultDecl::BecnLoss {
                link: LinkSel::AllHcaLinks,
                p: 1.0,
                every: None,
                from: Time::ZERO,
                until: Time::MAX,
            }]
        );
    }

    #[test]
    fn multiple_faults_split_on_semicolon() {
        let d = parse_spec(
            "becnloss:link=hca:1,p=0.25,from=1ms,until=2ms;\
             pause:hca=5,at=1ms,dur=300us;\
             drift:hca=2,at=2ms,ccti_timer=15,ccti_increase=4",
        )
        .unwrap();
        assert_eq!(d.len(), 3);
        assert!(matches!(d[1], FaultDecl::Pause { hca: 5, .. }));
        assert!(matches!(
            d[2],
            FaultDecl::Drift {
                ccti_timer: Some(15),
                ccti_increase: Some(4),
                ..
            }
        ));
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "flap:link=hca:0,at=1ms",                // missing dur
            "flap:link=hca:0,at=1ms,dur=0ms",        // zero window
            "flap:link=hca:0,at=1,dur=1ms",          // unitless time
            "flap:link=nowhere,at=1ms,dur=1ms",      // bad selector
            "becnloss:link=hcas,p=1.5",              // p out of range
            "becnloss:link=hcas,every=0",            // zero spacing
            "becnloss:link=hcas,from=2ms,until=1ms", // inverted window
            "drift:hca=1,at=1ms",                    // nothing to drift
            "drift:hca=1,at=1ms,ccti_timer=0",       // timer would spin
            "pause:hca=1,at=1ms,dur=1ms,extra=2",    // unknown key
            "pause:hca=1,at=1ms,at=2ms,dur=1ms",     // duplicate key
            "meteor:hca=1",                          // unknown kind
            "flap",                                  // no body
        ] {
            assert!(parse_spec(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn time_units_parse() {
        let t = |s: &str| parse_time(s, "t").unwrap();
        assert_eq!(t("5ns"), Time::from_ns(5));
        assert_eq!(t("5us"), Time::from_us(5));
        assert_eq!(t("5ms"), Time::from_ms(5));
        assert_eq!(t("1s"), Time(1_000_000_000_000));
    }
}
