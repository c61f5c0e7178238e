//! Post-run alert reporting for administrators (§5: "vids raises an alert
//! flag and notifies administrators for further analysis").
//!
//! [`AlertReport`] aggregates an alert log into per-label counts, a
//! timeline, and CSV export (no extra dependencies — the alert fields are
//! flat).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use crate::alert::{Alert, AlertKind};

/// An aggregated view over an alert log.
#[derive(Debug, Clone, Default)]
pub struct AlertReport {
    alerts: Vec<Alert>,
}

impl AlertReport {
    /// Builds a report from a log slice.
    pub fn from_alerts(alerts: &[Alert]) -> Self {
        AlertReport {
            alerts: alerts.to_vec(),
        }
    }

    /// Total alerts.
    pub fn total(&self) -> usize {
        self.alerts.len()
    }

    /// Alerts of a given kind.
    pub fn count_kind(&self, kind: AlertKind) -> usize {
        self.alerts.iter().filter(|a| a.kind == kind).count()
    }

    /// Per-label counts, sorted by label.
    pub fn by_label(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for a in &self.alerts {
            *m.entry(a.label.to_string()).or_insert(0) += 1;
        }
        m
    }

    /// Distinct calls implicated by at least one alert.
    pub fn affected_calls(&self) -> Vec<String> {
        let mut calls: Vec<String> = self
            .alerts
            .iter()
            .filter_map(|a| a.call_id.as_deref().map(str::to_owned))
            .collect();
        calls.sort();
        calls.dedup();
        calls
    }

    /// The earliest attack-kind alert, if any — the detection instant the
    /// §7.5 sensitivity analysis cares about.
    pub fn first_attack(&self) -> Option<&Alert> {
        self.alerts.iter().find(|a| a.kind == AlertKind::Attack)
    }

    /// Renders the report as CSV (`time_ms,kind,label,call_id,machine,detail`).
    /// Fields containing commas, quotes or either line-break character are
    /// quoted per RFC 4180.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_ms,kind,label,call_id,machine,detail\n");
        for a in &self.alerts {
            let (time, kind) = (a.time_ms.to_string(), a.kind.to_string());
            let detail = a.detail.to_string();
            let fields = [
                &*time,
                &*kind,
                &*a.label,
                a.call_id.as_deref().unwrap_or_default(),
                &*a.machine,
                &*detail,
            ];
            out.push_str(&fields.map(csv_escape).join(","));
            out.push('\n');
        }
        out
    }
}

fn csv_escape(field: &str) -> Cow<'_, str> {
    // A bare CR splits a record as surely as LF: the SIP parser accepts
    // LF-only line endings, so a Call-ID or detail can carry a lone `\r`.
    if field.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(field)
    }
}

impl fmt::Display for AlertReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "alert report: {} alerts", self.total())?;
        writeln!(
            f,
            "  attacks: {}  deviations: {}  nondeterminism: {}",
            self.count_kind(AlertKind::Attack),
            self.count_kind(AlertKind::Deviation),
            self.count_kind(AlertKind::Nondeterminism)
        )?;
        for (label, count) in self.by_label() {
            writeln!(f, "  {label:<28} {count}")?;
        }
        let calls = self.affected_calls();
        if !calls.is_empty() {
            writeln!(f, "  affected calls: {}", calls.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(time_ms: u64, kind: AlertKind, label: &str, call: Option<&str>) -> Alert {
        Alert {
            time_ms,
            kind,
            label: label.to_owned().into(),
            call_id: call.map(Into::into),
            machine: "sip".into(),
            detail: "".into(),
            trace: Vec::new(),
        }
    }

    #[test]
    fn aggregates_counts_and_calls() {
        let log = [
            alert(10, AlertKind::Attack, "invite-flood", None),
            alert(20, AlertKind::Attack, "media-spam", Some("c1")),
            alert(30, AlertKind::Deviation, "deviation:SIP.BYE", Some("c1")),
            alert(40, AlertKind::Attack, "media-spam", Some("c2")),
        ];
        let report = AlertReport::from_alerts(&log);
        assert_eq!(report.total(), 4);
        assert_eq!(report.count_kind(AlertKind::Attack), 3);
        assert_eq!(report.count_kind(AlertKind::Deviation), 1);
        assert_eq!(report.by_label()["media-spam"], 2);
        assert_eq!(report.affected_calls(), vec!["c1", "c2"]);
        assert_eq!(report.first_attack().unwrap().time_ms, 10);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let log = [alert(5, AlertKind::Attack, "rtp-after-bye", Some("call-9"))];
        let csv = AlertReport::from_alerts(&log).to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "time_ms,kind,label,call_id,machine,detail"
        );
        assert_eq!(lines.next().unwrap(), "5,ATTACK,rtp-after-bye,call-9,sip,");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut a = alert(1, AlertKind::Deviation, "x", None);
        a.detail = "bad, \"quoted\" value".into();
        let csv = AlertReport::from_alerts(&[a]).to_csv();
        assert!(csv.contains("\"bad, \"\"quoted\"\" value\""));
    }

    #[test]
    fn csv_quotes_a_bare_carriage_return() {
        let mut a = alert(1, AlertKind::Deviation, "x", Some("call\r9"));
        a.detail = "lone\rcr".into();
        let csv = AlertReport::from_alerts(&[a]).to_csv();
        assert_eq!(
            csv.lines().nth(1).unwrap(),
            "1,DEVIATION,x,\"call\r9\",sip,\"lone\rcr\""
        );
    }

    #[test]
    fn display_renders_summary() {
        let log = [alert(1, AlertKind::Attack, "call-hijack", Some("c7"))];
        let text = AlertReport::from_alerts(&log).to_string();
        assert!(text.contains("attacks: 1"));
        assert!(text.contains("call-hijack"));
        assert!(text.contains("c7"));
    }

    #[test]
    fn empty_report() {
        let report = AlertReport::from_alerts(&[]);
        assert_eq!(report.total(), 0);
        assert!(report.first_attack().is_none());
        assert!(report.affected_calls().is_empty());
        assert_eq!(report.to_csv().lines().count(), 1);
    }
}
