//! Push-based alert delivery.
//!
//! The original `Vids::process` returned a freshly allocated `Vec<Alert>`
//! per packet — an allocation on the hot path even for the overwhelmingly
//! common no-alert case. The sink API inverts control: callers hand the
//! engine an [`AlertSink`] and alerts are pushed as they are raised.
//! [`CollectSink`] recovers the old collect-into-a-vec behaviour where a
//! caller really wants it; [`NullSink`] is for callers that want none.
//! No engine keeps a copy of what it raised: the sink is the record.

use crate::alert::Alert;
use crate::tenant::TenantId;

/// Receives alerts as the engine raises them.
///
/// Implementations must be cheap: the engine calls [`AlertSink::accept`]
/// inline from the packet path.
pub trait AlertSink {
    /// Delivers one alert.
    fn accept(&mut self, alert: Alert);

    /// Delivers one alert a tenant-mapped pool merged, with the tenant
    /// whose traffic raised it. Sinks that do not track tenants take the
    /// default, which drops the tenant.
    fn accept_from(&mut self, tenant: TenantId, alert: Alert) {
        let _ = tenant;
        self.accept(alert);
    }
}

/// Collects alerts into a `Vec`, preserving raise order.
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    alerts: Vec<Alert>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// The alerts collected so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.alerts.is_empty()
    }

    /// Number of collected alerts.
    pub fn len(&self) -> usize {
        self.alerts.len()
    }

    /// Consumes the collector, yielding its alerts.
    pub fn into_alerts(self) -> Vec<Alert> {
        self.alerts
    }

    /// Removes and returns everything collected so far.
    pub fn drain(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.alerts)
    }
}

impl AlertSink for CollectSink {
    fn accept(&mut self, alert: Alert) {
        self.alerts.push(alert);
    }
}

/// Appending straight into a caller-owned vector.
impl AlertSink for Vec<Alert> {
    fn accept(&mut self, alert: Alert) {
        self.push(alert);
    }
}

/// Discards every alert.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl AlertSink for NullSink {
    fn accept(&mut self, _alert: Alert) {}
}

/// Hands every alert on to `sink`, and a clone of it to `copy` when there
/// is one: how a component that keeps its own record — the testbed's
/// inline tap, a flight-recorder tap awaiting its next dump — sees the
/// stream without standing in its way.
pub struct Tee<'a, C: ?Sized, S: ?Sized> {
    /// Where the clones go.
    pub copy: Option<&'a mut C>,
    /// Where the alerts go.
    pub sink: &'a mut S,
}

impl<C: AlertSink + ?Sized, S: AlertSink + ?Sized> AlertSink for Tee<'_, C, S> {
    fn accept(&mut self, alert: Alert) {
        if let Some(copy) = self.copy.as_deref_mut() {
            copy.accept(alert.clone());
        }
        self.sink.accept(alert);
    }

    fn accept_from(&mut self, tenant: TenantId, alert: Alert) {
        if let Some(copy) = self.copy.as_deref_mut() {
            copy.accept_from(tenant, alert.clone());
        }
        self.sink.accept_from(tenant, alert);
    }
}

/// Adapts a closure into a sink.
pub struct FnSink<F: FnMut(Alert)>(pub F);

impl<F: FnMut(Alert)> AlertSink for FnSink<F> {
    fn accept(&mut self, alert: Alert) {
        (self.0)(alert);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AlertKind;

    fn alert(label: &str) -> Alert {
        Alert {
            time_ms: 1,
            kind: AlertKind::Attack,
            label: label.to_owned().into(),
            call_id: None,
            machine: "test".into(),
            detail: "".into(),
            trace: Vec::new(),
        }
    }

    #[test]
    fn collect_sink_preserves_order() {
        let mut sink = CollectSink::new();
        sink.accept(alert("a"));
        sink.accept(alert("b"));
        assert_eq!(sink.len(), 2);
        let labels: Vec<&str> = sink.alerts().iter().map(|a| &*a.label).collect();
        assert_eq!(labels, ["a", "b"]);
        assert_eq!(sink.drain().len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn a_tee_copies_with_the_tenant_and_an_absent_copy_costs_nothing() {
        struct Tenants(Vec<TenantId>);
        impl AlertSink for Tenants {
            fn accept(&mut self, alert: Alert) {
                self.accept_from(0, alert);
            }
            fn accept_from(&mut self, tenant: TenantId, _alert: Alert) {
                self.0.push(tenant);
            }
        }
        let mut copy = Tenants(Vec::new());
        let mut sink = CollectSink::new();
        let mut tee = Tee {
            copy: Some(&mut copy),
            sink: &mut sink,
        };
        tee.accept_from(2, alert("a"));
        tee.accept(alert("b"));
        assert_eq!(copy.0, [2, 0]);
        assert_eq!(sink.len(), 2);
        let mut plain = Tee::<CollectSink, _> {
            copy: None,
            sink: &mut sink,
        };
        plain.accept(alert("c"));
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn vec_and_fn_sinks_deliver() {
        let mut v: Vec<Alert> = Vec::new();
        v.accept(alert("x"));
        assert_eq!(v.len(), 1);

        let mut count = 0;
        {
            let mut f = FnSink(|_a| count += 1);
            f.accept(alert("y"));
            f.accept(alert("z"));
        }
        assert_eq!(count, 2);
    }
}
