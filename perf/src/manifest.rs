//! What a generated workload contains and what the monitor must say about
//! it: datagram counts by class, capture length and hash, the expected
//! alert multiset from the reference pass, and the live probes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use vids_core::Alert;

use crate::gen::{Class, Dgram};

/// Alerts as a multiset of [`alert_key`]s. A `BTreeMap` so that printing
/// and comparing never depend on hash order.
pub type AlertSet = BTreeMap<String, u64>;

/// The identity of a verdict: everything but its time and free-text detail,
/// which legitimately differ between the packet-at-a-time reference engine,
/// the batched wire path and a live run on the wall clock.
pub fn alert_key(a: &Alert) -> String {
    format!(
        "{}|{}|{}|{}",
        a.kind,
        a.label.replace(['\n', '|'], " "),
        a.machine,
        a.call_id.as_deref().unwrap_or("-")
    )
}

pub fn alert_set<'a>(alerts: impl IntoIterator<Item = &'a Alert>) -> AlertSet {
    let mut set = AlertSet::new();
    for a in alerts {
        *set.entry(alert_key(a)).or_insert(0) += 1;
    }
    set
}

/// `(missing, unexpected)`: expected alerts the run did not raise, and
/// alerts it raised that the manifest does not list.
pub fn diff_alerts(expected: &AlertSet, got: &AlertSet) -> (u64, u64) {
    let missing = expected
        .iter()
        .map(|(k, &n)| n.saturating_sub(got.get(k).copied().unwrap_or(0)))
        .sum();
    let unexpected = got
        .iter()
        .map(|(k, &n)| n.saturating_sub(expected.get(k).copied().unwrap_or(0)))
        .sum();
    (missing, unexpected)
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    pub workload: String,
    pub seed: u64,
    pub datagrams: u64,
    pub sip: u64,
    pub rtp: u64,
    pub malformed: u64,
    pub capture_bytes: u64,
    pub capture_fnv: u64,
    pub alerts: AlertSet,
    /// `(datagram index, Call-ID)` of every live probe.
    pub probes: Vec<(u64, String)>,
}

impl Manifest {
    pub fn new(workload: &str, seed: u64) -> Manifest {
        Manifest {
            workload: workload.to_owned(),
            seed,
            ..Manifest::default()
        }
    }

    /// Counts one generated datagram.
    pub fn note(&mut self, d: &Dgram<'_>) {
        match d.class {
            Class::Sip => self.sip += 1,
            Class::Rtp => self.rtp += 1,
            Class::Malformed => self.malformed += 1,
        }
        if d.probe {
            let call_id = crate::gen::call_id_of(d.payload).expect("a probe is a SIP BYE");
            self.probes.push((self.datagrams, call_id.to_owned()));
        }
        self.datagrams += 1;
    }

    pub fn expected_alerts(&self) -> u64 {
        self.alerts.values().sum()
    }

    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "workload {}", self.workload);
        let _ = writeln!(s, "seed {}", self.seed);
        let _ = writeln!(s, "datagrams {}", self.datagrams);
        let _ = writeln!(s, "sip {}", self.sip);
        let _ = writeln!(s, "rtp {}", self.rtp);
        let _ = writeln!(s, "malformed {}", self.malformed);
        let _ = writeln!(s, "capture_bytes {}", self.capture_bytes);
        let _ = writeln!(s, "capture_fnv {:016x}", self.capture_fnv);
        for (key, n) in &self.alerts {
            let _ = writeln!(s, "alert {n} {key}");
        }
        for (idx, call_id) in &self.probes {
            let _ = writeln!(s, "probe {idx} {call_id}");
        }
        s
    }

    pub fn from_text(text: &str) -> Result<Manifest, String> {
        let mut m = Manifest::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').ok_or(format!("bad line {line:?}"))?;
            let num = || rest.parse::<u64>().map_err(|e| format!("{line:?}: {e}"));
            match key {
                "workload" => m.workload = rest.to_owned(),
                "seed" => m.seed = num()?,
                "datagrams" => m.datagrams = num()?,
                "sip" => m.sip = num()?,
                "rtp" => m.rtp = num()?,
                "malformed" => m.malformed = num()?,
                "capture_bytes" => m.capture_bytes = num()?,
                "capture_fnv" => {
                    m.capture_fnv =
                        u64::from_str_radix(rest, 16).map_err(|e| format!("{line:?}: {e}"))?
                }
                "alert" | "probe" => {
                    let (n, tail) = rest.split_once(' ').ok_or(format!("bad line {line:?}"))?;
                    let n = n.parse::<u64>().map_err(|e| format!("{line:?}: {e}"))?;
                    if key == "alert" {
                        m.alerts.insert(tail.to_owned(), n);
                    } else {
                        m.probes.push((n, tail.to_owned()));
                    }
                }
                _ => return Err(format!("unknown manifest key {key:?}")),
            }
        }
        Ok(m)
    }

    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    pub fn read_from(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Manifest::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[(&str, u64)]) -> AlertSet {
        items.iter().map(|(k, n)| (k.to_string(), *n)).collect()
    }

    #[test]
    fn diff_counts_missing_and_unexpected_with_multiplicity() {
        let expected = set(&[("a", 2), ("b", 1)]);
        assert_eq!(diff_alerts(&expected, &expected), (0, 0));
        assert_eq!(diff_alerts(&expected, &set(&[("a", 1), ("b", 1)])), (1, 0));
        assert_eq!(
            diff_alerts(&expected, &set(&[("a", 2), ("b", 1), ("c", 3)])),
            (0, 3)
        );
        assert_eq!(diff_alerts(&expected, &AlertSet::new()), (3, 0));
    }

    #[test]
    fn manifest_text_round_trips() {
        let mut m = Manifest::new("invite_flood", 9);
        m.datagrams = 10;
        m.sip = 7;
        m.rtp = 2;
        m.malformed = 1;
        m.capture_bytes = 1234;
        m.capture_fnv = 0xdead_beef_0000_0001;
        m.alerts = set(&[("ATTACK|invite-flood|flood|-", 50)]);
        m.probes = vec![(3, "abc@127.0.0.1".to_owned())];
        assert_eq!(Manifest::from_text(&m.to_text()).unwrap(), m);
    }
}
