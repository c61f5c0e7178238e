//! Parent ⇄ child plumbing: a measurement child is this same executable
//! started with a `child-*` mode; it prints a [`Report`] as plain lines on
//! its standard output and the parent parses them back.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::manifest::AlertSet;

/// What one child measured: named numbers, named sample lists, alerts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub nums: BTreeMap<String, f64>,
    pub lists: BTreeMap<String, Vec<f64>>,
    pub alerts: AlertSet,
}

impl Report {
    pub fn set(&mut self, key: &str, value: impl Into<Num>) {
        self.nums.insert(key.to_owned(), value.into().0);
    }

    /// A number the child must have reported.
    pub fn get(&self, key: &str) -> f64 {
        *self
            .nums
            .get(key)
            .unwrap_or_else(|| panic!("child report lacks {key:?}"))
    }

    pub fn list(&self, key: &str) -> &[f64] {
        self.lists.get(key).map_or(&[], Vec::as_slice)
    }

    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.nums {
            let _ = writeln!(s, "num {k} {v}");
        }
        for (k, vs) in &self.lists {
            let _ = write!(s, "list {k}");
            for v in vs {
                let _ = write!(s, " {v}");
            }
            s.push('\n');
        }
        for (k, n) in &self.alerts {
            let _ = writeln!(s, "alert {n} {k}");
        }
        s
    }

    pub fn from_text(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        for line in text.lines() {
            let bad = || format!("bad child line {line:?}");
            let (tag, rest) = line.split_once(' ').ok_or_else(bad)?;
            match tag {
                "num" => {
                    let (k, v) = rest.split_once(' ').ok_or_else(bad)?;
                    r.nums.insert(k.to_owned(), v.parse().map_err(|_| bad())?);
                }
                "list" => {
                    let mut words = rest.split(' ');
                    let k = words.next().ok_or_else(bad)?;
                    let vs: Result<Vec<f64>, _> = words.map(str::parse).collect();
                    r.lists.insert(k.to_owned(), vs.map_err(|_| bad())?);
                }
                "alert" => {
                    let (n, k) = rest.split_once(' ').ok_or_else(bad)?;
                    r.alerts.insert(k.to_owned(), n.parse().map_err(|_| bad())?);
                }
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }
}

/// A `u64`, `usize` or `f64` going into a [`Report`].
pub struct Num(f64);

impl From<u64> for Num {
    fn from(v: u64) -> Num {
        Num(v as f64)
    }
}
impl From<usize> for Num {
    fn from(v: usize) -> Num {
        Num(v as f64)
    }
}
impl From<f64> for Num {
    fn from(v: f64) -> Num {
        Num(v)
    }
}

/// Starts this executable with `args`, waits for it to end and parses its
/// report. The child's standard error passes through.
pub fn spawn(args: &[&str]) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child {}: {e}", args[0]))?;
    if !out.status.success() {
        return Err(format!("child {} ended with {}", args[0], out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    Report::from_text(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_text_round_trips() {
        let mut r = Report::default();
        r.set("wall_ns", 1_234_567_890_123u64);
        r.set("share", 0.125);
        r.lists.insert("lat_ms".into(), vec![1.5, 2.25, 100.0]);
        r.lists.insert("empty".into(), vec![]);
        r.alerts.insert("ATTACK|spoofed-bye|sip|a b@c".into(), 2);
        assert_eq!(Report::from_text(&r.to_text()).unwrap(), r);
    }
}
