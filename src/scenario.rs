//! The experiment harness: the Fig. 7 testbed, assembled and runnable.
//!
//! Every integration test, example and benchmark builds on [`Testbed`]:
//! it wires the twin-enterprise topology with [`vids_agents::UserAgent`]s
//! driven by a deterministic [`vids_netsim::workload::CallPlan`], proxies
//! for both domains, and — optionally — the vids monitor inline on the tap
//! node. Attackers attach to the Internet core and are armed between
//! simulation phases with identifiers "sniffed" from the victim UAs.

use std::sync::Arc;

use vids_agents::call::{CallState, PlannedCall};
use vids_agents::proxy::Proxy;
use vids_agents::ua::{UaConfig, UaStats, UserAgent};
use vids_agents::{site_domain, ua_uri};
use vids_attacks::{Attacker, DialogSnapshot};
use vids_core::alert::Alert;
use vids_core::cost::CostModel;
use vids_core::sink::CollectSink;
use vids_core::tap::VidsTap;
use vids_core::telemetry::{Registry, Snapshot};
use vids_core::Config;
use vids_netsim::engine::NodeId;
use vids_netsim::node::{Host, PassiveTap, Tap, TapNode};
use vids_netsim::packet::Address;
use vids_netsim::time::SimTime;
use vids_netsim::topology::{proxy_addr, ua_addr, Enterprise, SITE_A, SITE_B};
use vids_netsim::workload::{CallPlan, WorkloadSpec};

/// Configuration of one testbed run.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Simulation seed (workload and network randomness).
    pub seed: u64,
    /// UAs per site (the paper uses 20 per enterprise).
    pub uas_per_site: usize,
    /// The random call workload UAs of site A place toward site B.
    pub workload: WorkloadSpec,
    /// `Some` mounts vids inline with the given detection config and cost
    /// model; `None` runs the passive "without vids" baseline.
    pub vids: Option<(Config, CostModel)>,
    /// Optional billing-fraud misbehavior for site-A UA 0 (§3.1).
    pub fraud_caller_0: Option<SimTime>,
    /// Optional legitimate mid-call re-INVITE for site-A UA 0 (media moves
    /// to a new port this long after establishment).
    pub reinvite_caller_0: Option<SimTime>,
    /// Digest authentication on BYE for every UA (RFC 3261 §22). Off by
    /// default: the paper's threat model assumes no authentication.
    pub bye_auth: bool,
}

impl TestbedConfig {
    /// The paper's §7.1 setup: 20 UAs per site, 120-minute horizon, vids
    /// inline with default thresholds and costs.
    pub fn paper(seed: u64) -> Self {
        TestbedConfig {
            seed,
            uas_per_site: 20,
            workload: WorkloadSpec::default(),
            vids: Some((Config::default(), CostModel::default())),
            fraud_caller_0: None,
            reinvite_caller_0: None,
            bye_auth: false,
        }
    }

    /// A small, fast variant for tests: 2 UAs per site, short horizon,
    /// sparse calls.
    pub fn small(seed: u64) -> Self {
        TestbedConfig {
            seed,
            uas_per_site: 2,
            workload: WorkloadSpec {
                callers: 2,
                callees: 2,
                mean_interarrival_secs: 20.0,
                mean_duration_secs: 10.0,
                horizon: SimTime::from_secs(60),
            },
            vids: Some((Config::default(), CostModel::default())),
            fraud_caller_0: None,
            reinvite_caller_0: None,
            bye_auth: false,
        }
    }

    /// The same scenario without vids (passive tap), for baselines.
    #[must_use]
    pub fn without_vids(mut self) -> Self {
        self.vids = None;
        self
    }
}

/// The assembled testbed.
pub struct Testbed {
    /// The underlying topology and simulator.
    pub ent: Enterprise,
    plan: CallPlan,
    has_vids: bool,
}

impl Testbed {
    /// Builds the testbed. The call plan is drawn deterministically from
    /// `config.seed`, so a with-vids and a without-vids run over the same
    /// seed replay identical call patterns (the paper's Figs. 9–10
    /// comparisons rely on this).
    pub fn build(config: &TestbedConfig) -> Testbed {
        let tap: Box<dyn Tap> = match &config.vids {
            Some((cfg, cost)) => Box::new(VidsTap::with_cost(*cfg, *cost)),
            None => Box::new(PassiveTap),
        };
        let has_vids = config.vids.is_some();
        Testbed::build_with_tap(config, tap, has_vids)
    }

    /// Builds the testbed with a caller-supplied capture tap (e.g. a
    /// recording [`vids_netsim::trace::TraceTap`]) while keeping the full
    /// workload and misbehavior wiring of [`Testbed::build`]. The harness
    /// treats the run as vids-less: [`Testbed::vids`] returns `None` and
    /// the capture is read back by downcasting the tap node directly.
    pub fn build_capture(config: &TestbedConfig, tap: Box<dyn Tap>) -> Testbed {
        Testbed::build_with_tap(config, tap, false)
    }

    fn build_with_tap(config: &TestbedConfig, tap: Box<dyn Tap>, has_vids: bool) -> Testbed {
        let plan = CallPlan::generate(&config.workload, config.seed);
        let fraud = config.fraud_caller_0;
        let reinvite = config.reinvite_caller_0;
        let auth: Option<String> = config.bye_auth.then(|| "s3cret".to_owned());
        let auth_b = auth.clone();
        let plan_ref = &plan;
        let ent = Enterprise::build(
            config.seed,
            config.uas_per_site,
            config.uas_per_site,
            tap,
            move |i, addr| {
                let mut cfg = UaConfig::new(
                    format!("ua{i}"),
                    site_domain(SITE_A),
                    addr,
                    proxy_addr(SITE_A),
                );
                cfg.auth_password = auth.clone();
                if i == 0 {
                    cfg.fraud_media_after_bye = fraud;
                    cfg.reinvite_after = reinvite;
                }
                let calls: Vec<PlannedCall> = plan_ref
                    .for_caller(i)
                    .map(|c| PlannedCall {
                        at: c.start,
                        callee: ua_uri(c.callee, site_domain(SITE_B)),
                        duration: c.duration,
                    })
                    .collect();
                Box::new(UserAgent::new(cfg, calls))
            },
            move |i, addr| {
                let mut cfg = UaConfig::new(
                    format!("ua{i}"),
                    site_domain(SITE_B),
                    addr,
                    proxy_addr(SITE_B),
                );
                cfg.auth_password = auth_b.clone();
                Box::new(UserAgent::new(cfg, Vec::new()))
            },
            |addr| {
                let mut p = Proxy::new(addr, site_domain(SITE_A));
                p.add_remote_domain(site_domain(SITE_B), proxy_addr(SITE_B));
                Box::new(p)
            },
            |addr| {
                let mut p = Proxy::new(addr, site_domain(SITE_B));
                p.add_remote_domain(site_domain(SITE_A), proxy_addr(SITE_A));
                Box::new(p)
            },
        );
        Testbed {
            ent,
            plan,
            has_vids,
        }
    }

    /// Assembles a testbed from pre-built parts — for callers that mount a
    /// custom tap (e.g. a capture-only [`vids_netsim::trace::TraceTap`])
    /// but still want the harness's sniffing and accessor helpers.
    /// `has_vids` tells the harness whether [`Testbed::vids`] may downcast
    /// the tap to a `VidsTap`.
    pub fn from_parts(ent: Enterprise, plan: CallPlan, has_vids: bool) -> Testbed {
        Testbed {
            ent,
            plan,
            has_vids,
        }
    }

    /// The deterministic call plan driving site A's UAs.
    pub fn plan(&self) -> &CallPlan {
        &self.plan
    }

    /// Advances the simulation to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.ent.sim.run_until(t);
    }

    /// Enables telemetry on the inline monitor (`None` when running the
    /// passive baseline); see [`VidsTap::enable_telemetry`].
    pub fn enable_telemetry(&mut self, ring_capacity: usize) -> Option<Arc<Registry>> {
        self.vids_mut().map(|v| v.enable_telemetry(ring_capacity))
    }

    /// Advances the simulation to `until`, taking a telemetry snapshot
    /// every `every` of simulated time (and a final one at `until` when the
    /// horizon is not a multiple of the interval). Returns the sampled
    /// series; empty when vids is not mounted or telemetry is not enabled —
    /// call [`Testbed::enable_telemetry`] first.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn run_sampled(&mut self, until: SimTime, every: SimTime) -> Vec<(SimTime, Snapshot)> {
        assert!(!every.is_zero(), "sampling interval must be positive");
        let mut series = Vec::new();
        let mut now = self.ent.sim.now();
        while now < until {
            now = (now + every).min(until);
            self.run_until(now);
            if let Some(snap) = self.vids().and_then(|v| v.telemetry_snapshot(now)) {
                series.push((now, snap));
            }
        }
        series
    }

    /// A site-A UA by index.
    pub fn ua_a(&self, i: usize) -> &UserAgent {
        self.ent.sim.node_as::<Host>(self.ent.ua_a[i]).app_as()
    }

    /// A site-B UA by index.
    pub fn ua_b(&self, i: usize) -> &UserAgent {
        self.ent.sim.node_as::<Host>(self.ent.ua_b[i]).app_as()
    }

    /// Measurement shortcut: a site-A UA's stats.
    pub fn ua_a_stats(&self, i: usize) -> &UaStats {
        self.ua_a(i).stats()
    }

    /// Site B's proxy (the Fig. 8 observation point).
    pub fn proxy_b(&self) -> &Proxy {
        self.ent.sim.node_as::<Host>(self.ent.proxy_b).app_as()
    }

    /// The inline vids monitor, if mounted.
    pub fn vids(&self) -> Option<&VidsTap> {
        if !self.has_vids {
            return None;
        }
        Some(self.ent.sim.node_as::<TapNode>(self.ent.tap).tap_as())
    }

    /// Mutable access to the inline monitor (flush timers post-run).
    pub fn vids_mut(&mut self) -> Option<&mut VidsTap> {
        if !self.has_vids {
            return None;
        }
        Some(
            self.ent
                .sim
                .node_as_mut::<TapNode>(self.ent.tap)
                .tap_as_mut(),
        )
    }

    /// Alerts raised so far (empty when running without vids).
    pub fn vids_alerts(&self) -> &[Alert] {
        self.vids().map(|v| v.alerts()).unwrap_or(&[])
    }

    /// Flushes vids' idle timers at simulated time `now`, returning the
    /// timer-driven alerts through [`VidsTap::tick`], so they also land in
    /// the tap's record. No-op without vids.
    pub fn flush_vids(&mut self, now: SimTime) -> Vec<Alert> {
        match self.vids_mut() {
            Some(tap) => {
                let mut sink = CollectSink::new();
                tap.tick(now, &mut sink);
                sink.into_alerts()
            }
            None => Vec::new(),
        }
    }

    /// Attaches an [`Attacker`] to the Internet core.
    pub fn add_attacker(&mut self) -> (NodeId, Address) {
        self.ent.add_internet_host(Box::new(Attacker::new()))
    }

    /// Mutable access to an attacker, for arming between phases.
    pub fn attacker_mut(&mut self, node: NodeId) -> &mut Attacker {
        self.ent.sim.node_as_mut::<Host>(node).app_as_mut()
    }

    /// Sniffs the first currently established call placed by site-A UA
    /// `caller`: the dialog/media identifiers an on-path attacker would
    /// capture. `None` when the UA has no established call.
    pub fn sniff_established_call(&self, caller: usize) -> Option<DialogSnapshot> {
        let ua = self.ua_a(caller);
        let call_id = ua
            .calls_in_state(CallState::Established)
            .into_iter()
            .next()?;
        let info = ua.call_info(&call_id)?;
        // The callee address: resolved from the planned callee index via
        // the call's To URI user part (`ua{i}`).
        let callee_ip = info
            .invite
            .uri
            .user()
            .and_then(|u| u.strip_prefix("ua"))
            .and_then(|n| n.parse::<usize>().ok())
            .map(|i| ua_addr(SITE_B, i))?;
        Some(DialogSnapshot::from_caller(
            info,
            ua_addr(SITE_A, caller),
            callee_ip,
        ))
    }

    /// Sniffs a call still in the ringing phase (for CANCEL DoS).
    pub fn sniff_ringing_call(&self, caller: usize) -> Option<DialogSnapshot> {
        let ua = self.ua_a(caller);
        let call_id = ua
            .calls_in_state(CallState::Ringing)
            .into_iter()
            .chain(ua.calls_in_state(CallState::Inviting))
            .next()?;
        let info = ua.call_info(&call_id)?;
        let callee_ip = info
            .invite
            .uri
            .user()
            .and_then(|u| u.strip_prefix("ua"))
            .and_then(|n| n.parse::<usize>().ok())
            .map(|i| ua_addr(SITE_B, i))?;
        Some(DialogSnapshot::from_caller(
            info,
            ua_addr(SITE_A, caller),
            callee_ip,
        ))
    }

    /// Runs until site-A UA `caller` has an established call, checking
    /// every `step`; gives up at `deadline`. Returns the snapshot.
    pub fn run_until_call_established(
        &mut self,
        caller: usize,
        step: SimTime,
        deadline: SimTime,
    ) -> Option<DialogSnapshot> {
        let mut now = self.ent.sim.now();
        while now < deadline {
            now += step;
            self.run_until(now);
            if let Some(snap) = self.sniff_established_call(caller) {
                return Some(snap);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_testbed_runs_clean() {
        let mut config = TestbedConfig::small(11);
        config.workload.horizon = SimTime::from_secs(40);
        let mut tb = Testbed::build(&config);
        tb.run_until(SimTime::from_secs(80));
        let placed: u64 = (0..2).map(|i| tb.ua_a_stats(i).calls_placed).sum();
        assert!(placed >= 1, "workload placed {placed} calls");
        assert!(
            tb.vids_alerts().is_empty(),
            "alerts: {:?}",
            tb.vids_alerts()
        );
        assert!(tb.vids().unwrap().packets_seen() > 100);
    }

    #[test]
    fn baseline_has_no_monitor() {
        let config = TestbedConfig::small(11).without_vids();
        let tb = Testbed::build(&config);
        assert!(tb.vids().is_none());
        assert!(tb.vids_alerts().is_empty());
    }

    #[test]
    fn sampled_run_yields_monotone_snapshots() {
        use vids_core::telemetry::Counter;

        let mut config = TestbedConfig::small(11);
        config.workload.horizon = SimTime::from_secs(40);
        let mut tb = Testbed::build(&config);
        assert!(tb.enable_telemetry(64).is_some());
        let series = tb.run_sampled(SimTime::from_secs(75), SimTime::from_secs(10));
        assert_eq!(series.len(), 8, "10 s interval over 75 s: 7 full + 1 final");
        assert_eq!(series.last().unwrap().0, SimTime::from_secs(75));
        let mut last = 0u64;
        for (t, snap) in &series {
            assert_eq!(snap.time_ms, t.as_millis());
            let sip = snap.merged().counter(Counter::SipPackets);
            assert!(sip >= last, "counters never decrease");
            last = sip;
        }
        assert!(last > 0, "the workload produced SIP traffic");
        // Baseline run samples nothing.
        let mut passive = Testbed::build(&TestbedConfig::small(11).without_vids());
        assert!(passive.enable_telemetry(64).is_none());
        assert!(passive
            .run_sampled(SimTime::from_secs(10), SimTime::from_secs(5))
            .is_empty());
    }

    #[test]
    fn sniffing_finds_established_call() {
        let mut config = TestbedConfig::small(13);
        config.workload.mean_interarrival_secs = 5.0;
        config.workload.mean_duration_secs = 30.0;
        let mut tb = Testbed::build(&config);
        let snap = tb
            .run_until_call_established(0, SimTime::from_secs(1), SimTime::from_secs(60))
            .expect("a call should establish within a minute");
        assert!(!snap.call_id.is_empty());
        assert!(snap.caller_ssrc.is_some());
        assert_eq!(snap.caller_addr, ua_addr(SITE_A, 0));
    }
}
