//! The one argument layer: a command line split against its command's
//! declared flags, and typed getters that return a named [`ArgError`]
//! for every value they cannot use.

use super::Command;
use crate::options::{OptionsError, RunOptions};
use crate::preset::Preset;
use ibsim_topo::{FatTree3Spec, FatTreeSpec, Topology};
use ibsim_traffic::WorkloadSpec;
use std::collections::HashMap;
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;

/// A command line the program refuses, before anything runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A flag, operand or command name with a value the command cannot
    /// use: which one, the value it was given, and why.
    Arg {
        arg: String,
        value: String,
        reason: String,
    },
    /// A run option, from a flag, `IBSIM_<KEY>` or a spec's `options`.
    RunOption(OptionsError),
}

impl ArgError {
    /// The error naming `arg`, the `value` it was given, and why.
    pub fn new(arg: impl Into<String>, value: impl Into<String>, reason: impl Display) -> Self {
        let (arg, value, reason) = (arg.into(), value.into(), reason.to_string());
        ArgError::Arg { arg, value, reason }
    }
}

impl Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Arg { arg, value, reason } => write!(f, "{arg}: {reason}, got {value:?}"),
            ArgError::RunOption(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ArgError {}

impl From<OptionsError> for ArgError {
    fn from(e: OptionsError) -> Self {
        ArgError::RunOption(e)
    }
}

/// One command's arguments. `--key value`, `--key=value` and a bare
/// `--key` (= `true`) are the three spellings; a flag the command does
/// not declare is an error, and so is a positional argument beyond the
/// command's operand.
pub struct Args {
    cmd: &'static Command,
    given: HashMap<String, String>,
    operand: Option<String>,
}

impl Args {
    pub fn parse(cmd: &'static Command, tokens: &[String]) -> Result<Args, ArgError> {
        let mut args = Args {
            cmd,
            given: HashMap::new(),
            operand: None,
        };
        let mut it = tokens.iter().peekable();
        while let Some(token) = it.next() {
            let Some(key) = token.strip_prefix("--") else {
                if cmd.operand.is_empty() || args.operand.is_some() {
                    let why = "takes no further positional argument";
                    return Err(ArgError::new(format!("ibsim {}", cmd.name), token, why));
                }
                args.operand = Some(token.clone());
                continue;
            };
            let (key, value) = match key.split_once('=') {
                Some((k, v)) => (k, v.to_string()),
                None => match it.next_if(|next| !next.starts_with("--")) {
                    Some(v) => (key, v.clone()),
                    None => (key, "true".to_string()),
                },
            };
            if !cmd.declares(key) {
                let why = format!("is not a flag of `{0}` (`ibsim {0} --help`)", cmd.name);
                return Err(ArgError::new(format!("--{key}"), value, why));
            }
            args.given.insert(key.to_string(), value);
        }
        Ok(args)
    }

    /// Whether the command line spelt `--flag` out.
    pub fn given(&self, flag: &str) -> bool {
        self.given.contains_key(flag)
    }

    /// `--flag` as given, else its declared default (`None` when the
    /// command declares none).
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.given.get(flag).map(String::as_str).or_else(|| {
            let declared = self.cmd.flags.iter().find(|f| f.name == flag)?;
            Some(declared.default).filter(|d| !d.is_empty())
        })
    }

    /// The error naming `--flag`, the value it holds, and `reason`.
    pub fn bad(&self, flag: &str, reason: impl Display) -> ArgError {
        ArgError::new(
            format!("--{flag}"),
            self.text(flag).unwrap_or_default(),
            reason,
        )
    }

    /// The command's operand (`<spec.json>`, `<out.ibtr>`).
    pub fn operand(&self) -> Result<&str, ArgError> {
        let (name, operand) = (self.cmd.name, self.cmd.operand);
        let why = format!("is required: ibsim {name} {operand}");
        self.operand
            .as_deref()
            .ok_or_else(|| ArgError::new(operand, "", why))
    }

    /// `--flag` as a number in `range`; out of range is refused, never
    /// truncated.
    pub fn num<T>(&self, flag: &str, range: RangeInclusive<T>) -> Result<T, ArgError>
    where
        T: FromStr + PartialOrd + Display,
    {
        let n = self.text(flag).and_then(|v| v.parse().ok());
        n.filter(|n| range.contains(n)).ok_or_else(|| {
            self.bad(
                flag,
                format_args!("wants a number in {}..={}", range.start(), range.end()),
            )
        })
    }

    /// `--flag` as a switch: absent or `false` is off, bare or `true`
    /// is on.
    pub fn switch(&self, flag: &str) -> Result<bool, ArgError> {
        match self.text(flag) {
            None | Some("false") => Ok(false),
            Some("true") => Ok(true),
            Some(_) => Err(self.bad(flag, "is a switch: wants true|false")),
        }
    }

    /// `--preset {quick|medium|paper}`.
    pub fn preset(&self) -> Result<Preset, ArgError> {
        self.text("preset")
            .and_then(Preset::parse)
            .ok_or_else(|| self.bad("preset", "wants quick|medium|paper"))
    }

    /// `--fabric`: the workload fabrics, 2- and 3-level Clos.
    pub fn fabric(&self) -> Result<Topology, ArgError> {
        Ok(match self.text("fabric").unwrap_or_default() {
            "fat8" => FatTreeSpec::TEST_8.build(),
            "fat72" => FatTreeSpec::QUICK_72.build(),
            "fat648" => FatTreeSpec::PAPER_648.build(),
            "fat3-8" => FatTree3Spec::TEST_8.build(),
            "fat3-54" => FatTree3Spec::QUICK_54.build(),
            _ => return Err(self.bad("fabric", "wants fat8|fat72|fat648|fat3-8|fat3-54")),
        })
    }

    /// `--workload SPEC` (`WorkloadSpec::parse` has the grammar) for
    /// `topo`, checked by [`crate::workload::check`]; `None` when
    /// absent.
    pub fn workload(&self, topo: &Topology) -> Result<Option<WorkloadSpec>, ArgError> {
        let Some(text) = self.text("workload") else {
            return Ok(None);
        };
        let bad = |why: String| self.bad("workload", why);
        let spec = WorkloadSpec::parse(text).map_err(bad)?;
        crate::workload::check(&spec, topo).map_err(bad)?;
        Ok(Some(spec))
    }

    /// The run options layered over `base`: `IBSIM_<KEY>`, then the
    /// `--<key>` flags.
    pub fn run_options(&self, base: RunOptions) -> Result<RunOptions, ArgError> {
        let flags = |key: &str| self.given.get(&key.replace('_', "-")).cloned();
        Ok(base.overlay_env()?.overlay(flags)?)
    }
}
