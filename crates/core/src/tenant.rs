//! Per-tenant namespaces: address-prefix → tenant mapping with per-tenant
//! detection thresholds and state quotas.
//!
//! A multi-tenant monitor watches several customers' VoIP estates through
//! one perimeter. Each tenant is identified by an address prefix, and
//! carries its own [`Config`]: a carrier-grade tenant can tolerate hundreds
//! of INVITEs per second where a small PBX should alert at ten, and each
//! tenant gets a bounded call-table budget (`max_tracked_calls`) so one
//! tenant's flood can never evict another's call state. Tenant 0 is the
//! always-present `default` catch-all.
//!
//! A datagram belongs to the tenant of its *unordered* address pair
//! ([`TenantMap::tenant_of`]), so a request and its response — and a BYE
//! spoofed from either party — land in the same tenant. A
//! [`VidsPool`](crate::pool::VidsPool) built with
//! [`VidsPool::with_tenants`](crate::pool::VidsPool::with_tenants) gives
//! each tenant its own engine group.

use crate::config::{Config, ConfigBuilder};
use vids_netsim::time::SimTime;

/// Index into the tenant table; tenant `0` is the default catch-all.
pub type TenantId = u16;

/// One tenant: an address prefix and the detection configuration its
/// traffic is analyzed under.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Operator-facing name, unique within the map.
    pub name: String,
    /// Network-order IPv4 prefix bits (already masked).
    pub prefix: u32,
    /// Prefix length, `0..=32`; `0` matches everything.
    pub prefix_len: u8,
    /// The tenant's detection thresholds, timers and quotas.
    pub config: Config,
}

impl Tenant {
    fn matches(&self, ip: u32) -> bool {
        if self.prefix_len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - self.prefix_len as u32);
        (ip & mask) == self.prefix
    }
}

/// The tenant table: longest-prefix address matching onto per-tenant
/// configurations. Construct with [`TenantMap::single`] for an untenanted
/// pool or [`TenantMap::parse`] from an operator file.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMap {
    tenants: Vec<Tenant>,
}

impl TenantMap {
    /// A map with only the default tenant: every address belongs to it and
    /// is analyzed under `base`. This is the untenanted spelling — a pool
    /// built on it behaves exactly like a pool built on `base`.
    pub fn single(base: Config) -> Self {
        TenantMap {
            tenants: vec![Tenant {
                name: "default".to_owned(),
                prefix: 0,
                prefix_len: 0,
                config: base,
            }],
        }
    }

    /// Parses an operator tenant file on top of `base`. Line format:
    ///
    /// ```text
    /// # comment
    /// tenant <name> <a.b.c.d/len> [key=value ...]
    /// ```
    ///
    /// Recognized keys: `invite_flood_n`, `invite_flood_t1_ms`,
    /// `bye_dos_t_ms`, `spam_seq_gap`, `spam_ts_gap`,
    /// `rtp_flood_max_packets`, `rtp_flood_window_ms`, `max_calls`.
    /// Unset keys inherit `base`. The name `default` re-configures the
    /// catch-all tenant (its prefix is ignored — it always matches last).
    pub fn parse(text: &str, base: Config) -> Result<Self, String> {
        let mut map = TenantMap::single(base);
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            match words.next() {
                Some("tenant") => {}
                Some(other) => {
                    return Err(format!("line {}: unknown directive `{other}`", lineno + 1))
                }
                None => continue,
            }
            let name = words
                .next()
                .ok_or_else(|| format!("line {}: tenant needs a name", lineno + 1))?;
            let cidr = words
                .next()
                .ok_or_else(|| format!("line {}: tenant `{name}` needs a CIDR", lineno + 1))?;
            let (prefix, prefix_len) = parse_cidr(cidr)
                .map_err(|e| format!("line {}: bad CIDR `{cidr}`: {e}", lineno + 1))?;
            let mut config = base;
            for kv in words {
                apply_override(&mut config, kv).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            }
            let config = ConfigBuilder { config }
                .build()
                .map_err(|e| format!("line {}: tenant `{name}`: {e}", lineno + 1))?;
            if name == "default" {
                map.tenants[0].config = config;
                continue;
            }
            if map.tenants.iter().any(|t| t.name == name) {
                return Err(format!("line {}: duplicate tenant `{name}`", lineno + 1));
            }
            if map.tenants.len() > TenantId::MAX as usize {
                return Err(format!("line {}: too many tenants", lineno + 1));
            }
            map.tenants.push(Tenant {
                name: name.to_owned(),
                prefix,
                prefix_len,
                config,
            });
        }
        Ok(map)
    }

    /// Rebuilds a map from its tenants in id order — the inverse of
    /// [`TenantMap::iter`]; tenant 0 is the default catch-all whatever its
    /// prefix. `None` for an empty list.
    pub fn from_tenants(tenants: Vec<Tenant>) -> Option<Self> {
        (!tenants.is_empty() && tenants.len() <= TenantId::MAX as usize + 1)
            .then_some(TenantMap { tenants })
    }

    /// Which tenant the datagram between `a` and `b` belongs to: the
    /// longest prefix matching *either* address, the lower tenant id on
    /// equal lengths, falling back to the default. Symmetric in `a` and
    /// `b`, so both directions of a call pick the same tenant.
    pub fn tenant_of(&self, a: u32, b: u32) -> TenantId {
        let mut best = 0usize;
        let mut best_len = 0u8;
        for (i, t) in self.tenants.iter().enumerate().skip(1) {
            if t.prefix_len > best_len && (t.matches(a) || t.matches(b)) {
                best = i;
                best_len = t.prefix_len;
            }
        }
        best as TenantId
    }

    /// Number of tenants, default included.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the map holds only the default tenant.
    pub fn is_empty(&self) -> bool {
        false // the default tenant always exists
    }

    /// The tenant with this id.
    pub fn get(&self, id: TenantId) -> &Tenant {
        &self.tenants[id as usize]
    }

    /// All tenants in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.iter()
    }
}

/// `a.b.c.d/len` → masked prefix bits + length.
fn parse_cidr(text: &str) -> Result<(u32, u8), String> {
    let (addr, len) = text
        .split_once('/')
        .ok_or_else(|| "expected a.b.c.d/len".to_owned())?;
    let len: u8 = len.parse().map_err(|_| format!("bad length `{len}`"))?;
    if len > 32 {
        return Err(format!("prefix length {len} > 32"));
    }
    let mut octets = [0u8; 4];
    let mut count = 0;
    for part in addr.split('.') {
        if count == 4 {
            return Err("too many octets".to_owned());
        }
        octets[count] = part.parse().map_err(|_| format!("bad octet `{part}`"))?;
        count += 1;
    }
    if count != 4 {
        return Err("expected four octets".to_owned());
    }
    let ip = u32::from_be_bytes(octets);
    let mask = if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    };
    Ok((ip & mask, len))
}

fn apply_override(config: &mut Config, kv: &str) -> Result<(), String> {
    let (key, value) = kv
        .split_once('=')
        .ok_or_else(|| format!("expected key=value, got `{kv}`"))?;
    let as_u64 = || -> Result<u64, String> {
        value
            .parse()
            .map_err(|_| format!("bad value `{value}` for {key}"))
    };
    let as_i64 = || -> Result<i64, String> {
        value
            .parse()
            .map_err(|_| format!("bad value `{value}` for {key}"))
    };
    match key {
        "invite_flood_n" => config.invite_flood_n = as_u64()?,
        "invite_flood_t1_ms" => config.invite_flood_t1 = SimTime::from_millis(as_u64()?),
        "bye_dos_t_ms" => config.bye_dos_t = SimTime::from_millis(as_u64()?),
        "spam_seq_gap" => config.spam_seq_gap = as_i64()?,
        "spam_ts_gap" => config.spam_ts_gap = as_i64()?,
        "rtp_flood_max_packets" => config.rtp_flood_max_packets = as_u64()?,
        "rtp_flood_window_ms" => config.rtp_flood_window = SimTime::from_millis(as_u64()?),
        "max_calls" => {
            config.max_tracked_calls = value
                .parse()
                .map_err(|_| format!("bad value `{value}` for {key}"))?
        }
        other => return Err(format!("unknown tenant key `{other}`")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    /// An address no tenant below claims.
    const OUTSIDE: u32 = u32::from_be_bytes([203, 0, 113, 66]);

    #[test]
    fn longest_prefix_wins_and_default_catches_the_rest() {
        let text = "\
# two customers
tenant acme 10.1.0.0/16 invite_flood_n=100
tenant acme-pbx 10.1.7.0/24 invite_flood_n=5
tenant globex 10.2.0.0/16
";
        let map = TenantMap::parse(text, Config::default()).unwrap();
        assert_eq!(map.len(), 4);
        assert_eq!(map.tenant_of(ip(10, 1, 3, 9), OUTSIDE), 1, "acme /16");
        assert_eq!(
            map.tenant_of(OUTSIDE, ip(10, 1, 7, 9)),
            2,
            "acme-pbx /24 beats /16"
        );
        assert_eq!(map.tenant_of(ip(10, 2, 0, 1), OUTSIDE), 3, "globex");
        assert_eq!(map.tenant_of(ip(192, 168, 0, 1), OUTSIDE), 0, "default");
        assert_eq!(map.get(1).config.invite_flood_n, 100);
        assert_eq!(map.get(2).config.invite_flood_n, 5);
        assert_eq!(
            map.get(3).config.invite_flood_n,
            Config::default().invite_flood_n
        );
    }

    #[test]
    fn overrides_parse_and_validate() {
        let map = TenantMap::parse(
            "tenant t 10.0.0.0/8 bye_dos_t_ms=500 max_calls=32 spam_seq_gap=9",
            Config::default(),
        )
        .unwrap();
        let c = &map.get(1).config;
        assert_eq!(c.bye_dos_t, SimTime::from_millis(500));
        assert_eq!(c.max_tracked_calls, 32);
        assert_eq!(c.spam_seq_gap, 9);

        assert!(
            TenantMap::parse("tenant t 10.0.0.0/8 invite_flood_n=0", Config::default()).is_err()
        );
        assert!(TenantMap::parse("tenant t 10.0.0.0/33", Config::default()).is_err());
        assert!(TenantMap::parse("tenant t 10.0.0.0/8 nope=1", Config::default()).is_err());
        assert!(TenantMap::parse("widget t 10.0.0.0/8", Config::default()).is_err());
        assert!(TenantMap::parse(
            "tenant t 10.0.0.0/8\ntenant t 10.1.0.0/16",
            Config::default()
        )
        .is_err());
    }

    #[test]
    fn default_tenant_can_be_reconfigured() {
        let map = TenantMap::parse(
            "tenant default 0.0.0.0/0 invite_flood_n=42",
            Config::default(),
        )
        .unwrap();
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(0).config.invite_flood_n, 42);
    }

    #[test]
    fn masked_prefix_bits_are_canonical() {
        // 10.1.7.9/24 must behave as 10.1.7.0/24.
        let map = TenantMap::parse("tenant t 10.1.7.9/24", Config::default()).unwrap();
        assert_eq!(map.tenant_of(ip(10, 1, 7, 200), OUTSIDE), 1);
        assert_eq!(map.tenant_of(ip(10, 1, 8, 9), OUTSIDE), 0);
    }

    #[test]
    fn the_pair_rule_is_symmetric_and_ties_go_to_the_lower_id() {
        let map = TenantMap::parse(
            "tenant acme 10.1.0.0/16\ntenant contoso 10.2.0.0/16\ntenant pbx 10.2.7.0/24",
            Config::default(),
        )
        .unwrap();
        let (a, b) = (ip(10, 1, 0, 7), ip(10, 2, 0, 7));
        assert_eq!(map.tenant_of(a, b), 1, "equal lengths: lower id");
        assert_eq!(map.tenant_of(b, a), 1, "either direction");
        assert_eq!(map.tenant_of(a, ip(10, 2, 7, 1)), 3, "/24 beats /16");
        assert_eq!(map.tenant_of(OUTSIDE, b), 2, "a flood from outside");
        assert_eq!(map.tenant_of(OUTSIDE, OUTSIDE), 0);
        let rebuilt = TenantMap::from_tenants(map.iter().cloned().collect()).unwrap();
        assert_eq!(rebuilt, map);
        assert!(TenantMap::from_tenants(Vec::new()).is_none());
    }
}
