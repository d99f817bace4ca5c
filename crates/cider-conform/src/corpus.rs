//! The regression corpus format: self-contained text files that pin a
//! shrunk program together with the expected observation of every
//! configuration, replayable without the generator.
//!
//! Format (one entry per `.conform` file):
//!
//! ```text
//! cider-conform corpus v1
//! name div_7_12_0
//! class divergence
//! seed 7
//! index 12
//! plan none                      (or: plan seed=9 vfs_read=150 ...)
//! note outcome|xnu|xnu-native|kern:4|kern:0
//! program
//! diag n=1
//! end
//! expect xnu kern:4 ; vfs=... fds=0:con,1:con,2:con cwd=/ ports=0
//! expect xnu-native kern:0 ; vfs=... fds=0:con,1:con,2:con cwd=/ ports=0
//! expect linux skip ; vfs=... fds=0:con,1:con,2:con cwd=/ ports=-
//! ```
//!
//! Everything after `expect <config> ` is the exact
//! [`Observation::to_line`] payload; replay re-executes and compares
//! byte-for-byte.

use cider_fault::{FaultPlan, FaultSite};

use crate::bisect::bisect_pairs;
use crate::exec::{execute, ConfigId};
use crate::grammar::Program;

const HEADER: &str = "cider-conform corpus v1";

/// The curated IPC-heavy program behind `tests/regress/div_ipc_ring`:
/// an out-of-line message, a ring submission and a ring flush drive
/// the v2 surface before the known `diag` outcome divergence between
/// the translated and the native XNU personality.
const IPC_HEAVY: &str = "port_allocate\n\
                         insert_right slot=0\n\
                         mach_msg_ool slot=1 kb=2\n\
                         ring_submit slot=0 len=4\n\
                         ring_flush\n\
                         diag n=1\n";

/// Captures the hand-pinned `div_ipc_ring` regression entry: the
/// IPC-heavy program above, observed under every configuration.
pub fn div_ipc_ring() -> CorpusEntry {
    CorpusEntry::capture(
        "div_ipc_ring".into(),
        EntryClass::Divergence,
        7,
        0,
        None,
        "outcome|xnu|xnu-native|kern:4|kern:0".into(),
        Program::parse(IPC_HEAVY).expect("IPC_HEAVY parses"),
    )
}

/// Why an entry is in the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryClass {
    /// Shrunk reproducer of a cross-configuration divergence.
    Divergence,
    /// Minimal witness that reaches one dispatch-table entry.
    Coverage,
}

impl EntryClass {
    fn label(self) -> &'static str {
        match self {
            EntryClass::Divergence => "divergence",
            EntryClass::Coverage => "coverage",
        }
    }

    fn from_label(s: &str) -> Option<EntryClass> {
        match s {
            "divergence" => Some(EntryClass::Divergence),
            "coverage" => Some(EntryClass::Coverage),
            _ => None,
        }
    }
}

/// One replayable corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Stable entry name (also the file stem).
    pub name: String,
    /// Divergence reproducer or coverage witness.
    pub class: EntryClass,
    /// Generator seed the program came from.
    pub seed: u64,
    /// Program index within that seed's stream.
    pub index: u64,
    /// Fault plan the program ran under, if any.
    pub plan: Option<FaultPlan>,
    /// Human-readable note: divergence signature or covered site.
    pub note: String,
    /// The shrunk program.
    pub program: Program,
    /// Expected observation line per configuration, in
    /// [`ConfigId::ALL`] order.
    pub expects: Vec<(ConfigId, String)>,
}

impl CorpusEntry {
    /// Builds an entry by executing `program` and recording what every
    /// configuration observes right now.
    pub fn capture(
        name: String,
        class: EntryClass,
        seed: u64,
        index: u64,
        plan: Option<&FaultPlan>,
        note: String,
        program: Program,
    ) -> CorpusEntry {
        let out = execute(&program, plan);
        let expects = out
            .per_config
            .iter()
            .map(|(c, obs)| (*c, obs.to_line()))
            .collect();
        CorpusEntry {
            name,
            class,
            seed,
            index,
            plan: plan.cloned(),
            note,
            program,
            expects,
        }
    }

    /// Serializes to the corpus text form.
    pub fn serialize(&self) -> String {
        let mut s = String::new();
        s.push_str(HEADER);
        s.push('\n');
        s.push_str(&format!("name {}\n", self.name));
        s.push_str(&format!("class {}\n", self.class.label()));
        s.push_str(&format!("seed {}\n", self.seed));
        s.push_str(&format!("index {}\n", self.index));
        match &self.plan {
            None => s.push_str("plan none\n"),
            Some(p) => {
                s.push_str(&format!("plan seed={}", p.seed));
                for (site, cfg) in p.sites() {
                    s.push_str(&format!(
                        " {}={}",
                        site.name(),
                        cfg.prob_per_mille
                    ));
                }
                s.push('\n');
            }
        }
        s.push_str(&format!("note {}\n", self.note));
        s.push_str("program\n");
        s.push_str(&self.program.to_text());
        s.push_str("end\n");
        for (c, line) in &self.expects {
            s.push_str(&format!("expect {} {line}\n", c.label()));
        }
        s
    }

    /// Parses the corpus text form.
    ///
    /// # Errors
    ///
    /// A description of the first malformed line.
    pub fn parse(text: &str) -> Result<CorpusEntry, String> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(HEADER) {
            return Err("missing corpus header".into());
        }
        let mut name = None;
        let mut class = None;
        let mut seed = None;
        let mut index = None;
        let mut plan: Option<FaultPlan> = None;
        let mut note = String::new();
        let mut program = None;
        let mut expects = Vec::new();
        while let Some(line) = lines.next() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "name" => name = Some(rest.to_string()),
                "class" => {
                    class = Some(
                        EntryClass::from_label(rest)
                            .ok_or_else(|| format!("bad class: {rest}"))?,
                    )
                }
                "seed" => {
                    seed = Some(
                        rest.parse()
                            .map_err(|_| format!("bad seed: {rest}"))?,
                    )
                }
                "index" => {
                    index = Some(
                        rest.parse()
                            .map_err(|_| format!("bad index: {rest}"))?,
                    )
                }
                "plan" => {
                    if rest != "none" {
                        plan = Some(parse_plan(rest)?);
                    }
                }
                "note" => note = rest.to_string(),
                "program" => {
                    let mut body = String::new();
                    for l in lines.by_ref() {
                        if l.trim() == "end" {
                            break;
                        }
                        body.push_str(l);
                        body.push('\n');
                    }
                    program = Some(Program::parse(&body)?);
                }
                "expect" => {
                    let (cfg, payload) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad expect: {rest}"))?;
                    let cfg = ConfigId::from_label(cfg)
                        .ok_or_else(|| format!("bad config: {cfg}"))?;
                    expects.push((cfg, payload.to_string()));
                }
                _ => return Err(format!("unknown key: {key}")),
            }
        }
        Ok(CorpusEntry {
            name: name.ok_or("missing name")?,
            class: class.ok_or("missing class")?,
            seed: seed.ok_or("missing seed")?,
            index: index.ok_or("missing index")?,
            plan,
            note,
            program: program.ok_or("missing program")?,
            expects,
        })
    }

    /// Re-executes the program and checks every configuration's
    /// observation against the stored expectation.
    ///
    /// # Errors
    ///
    /// A description of the first mismatching configuration.
    pub fn replay(&self) -> Result<(), String> {
        let out = execute(&self.program, self.plan.as_ref());
        for (cfg, want) in &self.expects {
            let got = out.observation(*cfg).to_line();
            if got != *want {
                return Err(format!(
                    "{}: {} mismatch\n  want: {want}\n  got:  {got}",
                    self.name,
                    cfg.label()
                ));
            }
        }
        Ok(())
    }

    /// Bisects both canonical diff pairs at checkpoint `interval` and
    /// renders the result: one summary line per pair, each followed
    /// by its state delta.
    pub fn bisect_report(&self, interval: usize) -> String {
        let mut s = format!(
            "bisecting {} ({} ops, interval {interval})\n",
            self.name,
            self.program.ops.len()
        );
        for b in bisect_pairs(&self.program, self.plan.as_ref(), interval) {
            s.push_str(&b.summary());
            s.push('\n');
            for delta in &b.delta {
                s.push_str(&delta.to_string());
            }
        }
        s
    }
}

fn parse_plan(rest: &str) -> Result<FaultPlan, String> {
    let mut parts = rest.split_whitespace();
    let seed_kv = parts.next().ok_or("empty plan")?;
    let seed = seed_kv
        .strip_prefix("seed=")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad plan seed: {seed_kv}"))?;
    let mut plan = FaultPlan::new(seed);
    for kv in parts {
        let (site_name, prob) = kv
            .split_once('=')
            .ok_or_else(|| format!("bad plan kv: {kv}"))?;
        let site = FaultSite::ALL
            .into_iter()
            .find(|s| s.name() == site_name)
            .ok_or_else(|| format!("unknown fault site: {site_name}"))?;
        let prob = prob
            .parse()
            .map_err(|_| format!("bad probability: {prob}"))?;
        plan = plan.with(site, prob);
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_fault::FaultSite;

    fn diag_entry() -> CorpusEntry {
        CorpusEntry::capture(
            "div_test_0".into(),
            EntryClass::Divergence,
            7,
            0,
            None,
            "outcome|xnu|xnu-native|kern:4|kern:0".into(),
            Program::parse("diag n=1\n").unwrap(),
        )
    }

    #[test]
    fn entry_round_trips_and_replays() {
        let e = diag_entry();
        let text = e.serialize();
        let parsed = CorpusEntry::parse(&text).unwrap();
        assert_eq!(parsed.serialize(), text);
        parsed.replay().unwrap();
    }

    #[test]
    fn entry_with_fault_plan_round_trips() {
        let plan = FaultPlan::new(3)
            .with(FaultSite::VfsRead, 500)
            .with(FaultSite::MachPortAllocate, 200);
        let e = CorpusEntry::capture(
            "div_fault".into(),
            EntryClass::Coverage,
            9,
            4,
            Some(&plan),
            "unix/read".into(),
            Program::parse("open path=5 flags=0\nread fd=3 len=4\n").unwrap(),
        );
        let parsed = CorpusEntry::parse(&e.serialize()).unwrap();
        assert_eq!(parsed.serialize(), e.serialize());
        parsed.replay().unwrap();
    }

    #[test]
    fn replay_detects_tampering() {
        let mut e = diag_entry();
        e.expects[0].1 = "kern:999 ; tampered".into();
        let err = e.replay().unwrap_err();
        assert!(err.contains("xnu mismatch"), "{err}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CorpusEntry::parse("not a corpus file").is_err());
        let missing = format!("{HEADER}\nname x\n");
        assert!(CorpusEntry::parse(&missing).is_err());
    }
}
