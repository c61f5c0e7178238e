//! Detection thresholds and timers (§6 and §7.5), plus the placement
//! knobs a pool and an offline replay read.

use vids_netsim::time::SimTime;

/// Tunable parameters of the attack-detection patterns.
///
/// The paper leaves the concrete values operator-tunable and discusses the
/// trade-offs in §7.5 ("the intrusion detection delay is mainly determined
/// by the various timers in attack patterns"); the defaults here are the
/// values used throughout the reproduction's experiments.
///
/// Construct with [`Config::default`] and adjust fields, or use the
/// validating [`Config::builder`]. The struct is `#[non_exhaustive]`:
/// downstream crates cannot build it literally, so fields can be added
/// without a breaking release.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct Config {
    /// INVITE flooding (Fig. 4): alert when more than `invite_flood_n`
    /// INVITEs hit one destination within `invite_flood_t1`. "The setting of
    /// threshold N depends upon the up-limit that a particular type of a
    /// phone can handle."
    pub invite_flood_n: u64,
    /// The T1 window of Fig. 4.
    pub invite_flood_t1: SimTime,
    /// BYE DoS (Fig. 5): how long in-flight RTP may trail a BYE. "Setting
    /// timer T to one round trip time should be long enough" (§7.5); the
    /// testbed RTT is ≈110 ms.
    pub bye_dos_t: SimTime,
    /// Media spamming (Fig. 6): alert when the sequence number jumps by
    /// more than `spam_seq_gap` between consecutive packets of a stream.
    pub spam_seq_gap: i64,
    /// Media spamming: alert when the RTP timestamp jumps by more than this
    /// many codec clock ticks.
    pub spam_ts_gap: i64,
    /// RTP flooding: alert when one direction of a session carries more
    /// than this many packets within `rtp_flood_window`. G.729 legitimately
    /// produces 100 packets/s.
    pub rtp_flood_max_packets: u64,
    /// The RTP-flood counting window.
    pub rtp_flood_window: SimTime,
    /// DRDoS reflection: alert when a destination receives more than this
    /// many responses that belong to no monitored call within
    /// `response_flood_window`.
    pub response_flood_n: u64,
    /// The response-flood counting window.
    pub response_flood_window: SimTime,
    /// Teardown linger: a call whose BYE's 200 (or whose failure
    /// response's ACK) never appears is force-terminated after this long
    /// so its machines can be evicted.
    pub teardown_linger: SimTime,
    /// How long a terminated call's machines stay in memory to absorb
    /// retransmissions before eviction (§7.3: "once the calls have
    /// successfully reached the final state, the corresponding protocol
    /// state machines will be deleted from the memory").
    pub eviction_delay: SimTime,
    /// Ablation switch (experiment E8): disable the δ synchronization
    /// channels between the SIP and RTP machines.
    pub cross_protocol_sync: bool,
    /// How many independent engine shards a [`crate::pool::VidsPool`]
    /// partitions monitored calls across. A plain [`crate::engine::Vids`]
    /// ignores this.
    pub shards: usize,
    /// Offline replay: how far past the last captured packet the final
    /// timer sweep runs, so hanging-call and media-silence timers near the
    /// end of a capture still fire. The historical hard-coded value (30 s)
    /// is the default.
    pub replay_grace: SimTime,
    /// Ceiling on concurrently tracked calls per engine. `0` (the default)
    /// keeps the historical unbounded behaviour. When the ceiling is hit,
    /// new call creation is refused (counted as
    /// `Counter::CallQuotaDrops`); existing calls keep progressing. Used
    /// by the cluster layer to give each tenant a bounded state budget.
    pub max_tracked_calls: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            invite_flood_n: 10,
            invite_flood_t1: SimTime::from_secs(1),
            bye_dos_t: SimTime::from_millis(200),
            spam_seq_gap: 50,
            spam_ts_gap: 4_000,
            rtp_flood_max_packets: 300,
            rtp_flood_window: SimTime::from_secs(1),
            response_flood_n: 10,
            response_flood_window: SimTime::from_secs(1),
            teardown_linger: SimTime::from_secs(8),
            eviction_delay: SimTime::from_secs(5),
            cross_protocol_sync: true,
            shards: 1,
            replay_grace: SimTime::from_secs(30),
            max_tracked_calls: 0,
        }
    }
}

impl Config {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder {
            config: Config::default(),
        }
    }
}

/// A reason [`ConfigBuilder::build`] rejected the configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A counting threshold was zero — the pattern could never stay quiet.
    ZeroThreshold(&'static str),
    /// A counting window or timer was zero — the pattern could never fire.
    ZeroWindow(&'static str),
    /// A pool cannot have zero shards.
    ZeroShards,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroThreshold(field) => {
                write!(f, "threshold `{field}` must be at least 1")
            }
            ConfigError::ZeroWindow(field) => {
                write!(f, "window `{field}` must be non-zero")
            }
            ConfigError::ZeroShards => write!(f, "a pool needs at least 1 shard"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`Config`] with validation at [`ConfigBuilder::build`].
///
/// ```
/// use vids_core::Config;
///
/// let config = Config::builder()
///     .shards(8)
///     .invite_flood_threshold(20)
///     .build()
///     .unwrap();
/// assert_eq!(config.shards, 8);
/// assert_eq!(config.invite_flood_n, 20);
/// ```
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    pub(crate) config: Config,
}

impl ConfigBuilder {
    /// INVITE-flood threshold N (Fig. 4).
    pub fn invite_flood_threshold(mut self, n: u64) -> Self {
        self.config.invite_flood_n = n;
        self
    }

    /// INVITE-flood counting window T1 (Fig. 4).
    pub fn invite_flood_window(mut self, t1: SimTime) -> Self {
        self.config.invite_flood_t1 = t1;
        self
    }

    /// BYE-DoS media linger T (Fig. 5).
    pub fn bye_dos_linger(mut self, t: SimTime) -> Self {
        self.config.bye_dos_t = t;
        self
    }

    /// Media-spam sequence-number jump tolerance (Fig. 6).
    pub fn spam_seq_gap(mut self, gap: i64) -> Self {
        self.config.spam_seq_gap = gap;
        self
    }

    /// Media-spam timestamp jump tolerance, in codec ticks (Fig. 6).
    pub fn spam_ts_gap(mut self, gap: i64) -> Self {
        self.config.spam_ts_gap = gap;
        self
    }

    /// RTP-flood packet budget per window.
    pub fn rtp_flood_max_packets(mut self, max: u64) -> Self {
        self.config.rtp_flood_max_packets = max;
        self
    }

    /// RTP-flood counting window.
    pub fn rtp_flood_window(mut self, window: SimTime) -> Self {
        self.config.rtp_flood_window = window;
        self
    }

    /// DRDoS response-flood threshold.
    pub fn response_flood_threshold(mut self, n: u64) -> Self {
        self.config.response_flood_n = n;
        self
    }

    /// DRDoS response-flood counting window.
    pub fn response_flood_window(mut self, window: SimTime) -> Self {
        self.config.response_flood_window = window;
        self
    }

    /// Force-termination delay for calls whose BYE is never answered.
    pub fn teardown_linger(mut self, linger: SimTime) -> Self {
        self.config.teardown_linger = linger;
        self
    }

    /// Grace period before finished calls are evicted (§7.3).
    pub fn eviction_delay(mut self, delay: SimTime) -> Self {
        self.config.eviction_delay = delay;
        self
    }

    /// Enable or disable SIP↔RTP δ synchronization (ablation E8).
    pub fn cross_protocol_sync(mut self, enabled: bool) -> Self {
        self.config.cross_protocol_sync = enabled;
        self
    }

    /// Number of [`crate::pool::VidsPool`] shards.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Offline replay: grace period the final timer sweep runs past the
    /// last captured packet.
    pub fn replay_grace(mut self, grace: SimTime) -> Self {
        self.config.replay_grace = grace;
        self
    }

    /// Ceiling on concurrently tracked calls per engine (`0` = unbounded).
    pub fn max_tracked_calls(mut self, max: usize) -> Self {
        self.config.max_tracked_calls = max;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<Config, ConfigError> {
        let c = &self.config;
        if c.invite_flood_n == 0 {
            return Err(ConfigError::ZeroThreshold("invite_flood_n"));
        }
        if c.response_flood_n == 0 {
            return Err(ConfigError::ZeroThreshold("response_flood_n"));
        }
        if c.rtp_flood_max_packets == 0 {
            return Err(ConfigError::ZeroThreshold("rtp_flood_max_packets"));
        }
        if c.spam_seq_gap <= 0 {
            return Err(ConfigError::ZeroThreshold("spam_seq_gap"));
        }
        if c.spam_ts_gap <= 0 {
            return Err(ConfigError::ZeroThreshold("spam_ts_gap"));
        }
        if c.invite_flood_t1.is_zero() {
            return Err(ConfigError::ZeroWindow("invite_flood_t1"));
        }
        if c.rtp_flood_window.is_zero() {
            return Err(ConfigError::ZeroWindow("rtp_flood_window"));
        }
        if c.response_flood_window.is_zero() {
            return Err(ConfigError::ZeroWindow("response_flood_window"));
        }
        if c.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if c.replay_grace.is_zero() {
            return Err(ConfigError::ZeroWindow("replay_grace"));
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Config::default();
        assert!(c.invite_flood_n > 1);
        assert!(c.bye_dos_t < c.teardown_linger);
        assert!(c.spam_seq_gap > 0 && c.spam_ts_gap > 0);
        assert!(
            c.rtp_flood_max_packets > 100,
            "must exceed one G.729 second"
        );
        assert!(c.cross_protocol_sync);
        assert_eq!(c.replay_grace, SimTime::from_secs(30));
    }

    #[test]
    fn ingestion_knobs_validate_like_shards() {
        assert_eq!(
            Config::builder().shards(0).build(),
            Err(ConfigError::ZeroShards)
        );
        assert_eq!(
            Config::builder()
                .replay_grace(SimTime::from_secs(5))
                .build()
                .unwrap()
                .replay_grace,
            SimTime::from_secs(5)
        );
        assert_eq!(
            Config::builder().replay_grace(SimTime::ZERO).build(),
            Err(ConfigError::ZeroWindow("replay_grace"))
        );
    }
}
