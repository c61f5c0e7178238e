//! The `.vdump` forensic dump format: self-describing, section-framed,
//! checksummed binary — hand-rolled like the pcap reader, no serde.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "VDMP"  u16 version  u16 reserved
//! repeated sections:
//!   [u8;4] tag   u32 len   len payload bytes   u32 crc32(payload)
//! terminated by the END section (len 0)
//! ```
//!
//! Sections of version 2:
//!
//! | tag    | payload                                                     |
//! |--------|-------------------------------------------------------------|
//! | `CONF` | every [`Config`] field, in field order, + the ring size     |
//! | `TNTS` | per tenant: name, prefix and its [`Config`] (optional)      |
//! | `PKTS` | the captured datagram window, oldest → newest               |
//! | `ALRT` | the triggering [`Alert`], via [`encode_alert`]              |
//! | `SNAP` | states and variables of the triggering call (optional)      |
//! | `CTRS` | engine counters + total alerts at dump time                 |
//! | `END`  | empty terminator                                            |
//!
//! `CONF` has one fixed layout: exactly the knobs a replay rebuilds its
//! pool from (the call quota included, `0` when unbounded), then the
//! telemetry ring. `TNTS` is written only by a pool with more than one
//! tenant. Unknown tags are skipped (their CRC is still verified), so a
//! later version can append sections. A dump of another version is
//! refused at byte 4: its verdict is reproducible only on the engine that
//! wrote it. Every decode failure is a [`VdumpError`] carrying the byte
//! offset where parsing stopped, pcap-reader style.

use std::fmt;
use std::net::Ipv4Addr;
use std::path::Path;

use vids_core::alert::{Alert, AlertKind};
use vids_core::config::Config;
use vids_core::engine::VidsCounters;
use vids_core::snapshot::{CallSnapshot, MachineSnapshot};
use vids_core::tenant::{Tenant, TenantMap};
use vids_netsim::time::SimTime;

use crate::crc::crc32;
use crate::ring::{RecordedClass, SlotMeta};

/// Format magic.
pub const MAGIC: &[u8; 4] = b"VDMP";
/// Current format version. Version 2 gave `CONF` its one fixed layout
/// (the call quota a fixed word, no ingestion knobs); a version-1 dump is
/// refused, since its verdict is reproducible only on the engine that
/// wrote it.
pub const VERSION: u16 = 2;

/// One captured datagram inside a dump: the ring's [`SlotMeta`] plus the
/// raw wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedPacket {
    /// Ring metadata (timestamps, addresses, demux verdict, batch id).
    pub meta: SlotMeta,
    /// Raw UDP payload as it arrived on the wire.
    pub payload: Vec<u8>,
}

/// Engine counters frozen at dump time, compared byte-for-byte on replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DumpCounters {
    /// The pool's traffic counters.
    pub counters: VidsCounters,
    /// Alerts the original run had raised up to (and including) the
    /// triggering batch.
    pub alerts_total: u64,
}

/// A parsed (or about-to-be-written) forensic dump.
#[derive(Debug, Clone, PartialEq)]
pub struct Vdump {
    /// The engine configuration the original run used. Replay rebuilds the
    /// pool from exactly this.
    pub config: Config,
    /// The tenant map of a pool with more than one tenant; replay rebuilds
    /// the same tenant-mapped pool from it. `config` is its default
    /// tenant's.
    pub tenants: Option<TenantMap>,
    /// Transition-ring capacity telemetry was enabled with (0 = telemetry
    /// off). Alert traces only reproduce when this matches.
    pub telemetry_ring: u32,
    /// The captured datagram window, oldest → newest.
    pub packets: Vec<RecordedPacket>,
    /// The alert that triggered the dump.
    pub alert: Alert,
    /// Machine states and variables of the triggering call at batch end
    /// (absent when the alert is not call-scoped or the call was already
    /// evicted).
    pub snapshot: Option<CallSnapshot>,
    /// Counters at dump time.
    pub counters: DumpCounters,
}

/// Where and why a dump failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VdumpError {
    /// Byte offset into the dump at which parsing stopped.
    pub offset: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl fmt::Display for VdumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid .vdump at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for VdumpError {}

// ---------------------------------------------------------------- writing

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

fn section(out: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// The knobs a replay rebuilds its pool from, in [`Config`]'s field
/// order: `CONF` is these plus the telemetry ring, and each `TNTS` tenant
/// carries them for its own engine group.
fn encode_config(e: &mut Enc, c: &Config) {
    e.u64(c.invite_flood_n);
    e.u64(c.invite_flood_t1.as_nanos());
    e.u64(c.bye_dos_t.as_nanos());
    e.i64(c.spam_seq_gap);
    e.i64(c.spam_ts_gap);
    e.u64(c.rtp_flood_max_packets);
    e.u64(c.rtp_flood_window.as_nanos());
    e.u64(c.response_flood_n);
    e.u64(c.response_flood_window.as_nanos());
    e.u64(c.teardown_linger.as_nanos());
    e.u64(c.eviction_delay.as_nanos());
    e.u8(c.cross_protocol_sync as u8);
    e.u64(c.shards as u64);
    e.u64(c.replay_grace.as_nanos());
    e.u64(c.max_tracked_calls as u64);
}

fn encode_tenants(tenants: &TenantMap) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.u32(tenants.len() as u32);
    for t in tenants.iter() {
        e.str(&t.name);
        e.u32(t.prefix);
        e.u8(t.prefix_len);
        encode_config(&mut e, &t.config);
    }
    e.buf
}

fn encode_packets(packets: &[RecordedPacket]) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.u32(packets.len() as u32);
    for p in packets {
        e.u64(p.meta.seq);
        e.u64(p.meta.at_ns);
        e.u64(p.meta.batch);
        e.u8(p.meta.class as u8);
        e.u32(p.meta.src_ip);
        e.u16(p.meta.src_port);
        e.u32(p.meta.dst_ip);
        e.u16(p.meta.dst_port);
        e.bytes(&p.payload);
    }
    e.buf
}

/// Canonical byte encoding of one [`Alert`] — the unit of the replay
/// gate's byte-identity comparison (trace lines included).
pub fn encode_alert(a: &Alert) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.u64(a.time_ms);
    e.u8(match a.kind {
        AlertKind::Attack => 0,
        AlertKind::Deviation => 1,
        AlertKind::Nondeterminism => 2,
    });
    e.str(&a.label);
    match &a.call_id {
        None => e.u8(0),
        Some(c) => {
            e.u8(1);
            e.str(c);
        }
    }
    e.str(&a.machine);
    e.str(&a.detail.to_string());
    e.u32(a.trace.len() as u32);
    for line in &a.trace {
        e.str(line);
    }
    e.buf
}

fn encode_snapshot(s: &CallSnapshot) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.str(&s.call_id);
    e.u32(s.machines.len() as u32);
    for m in &s.machines {
        e.str(&m.name);
        e.str(&m.state);
        e.u32(m.locals.len() as u32);
        for (k, v) in &m.locals {
            e.str(k);
            e.str(v);
        }
    }
    e.u32(s.globals.len() as u32);
    for (k, v) in &s.globals {
        e.str(k);
        e.str(v);
    }
    e.buf
}

fn encode_counters(c: &DumpCounters) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.u64(c.counters.sip_packets);
    e.u64(c.counters.rtp_packets);
    e.u64(c.counters.malformed);
    e.u64(c.counters.ignored);
    e.u64(c.counters.unassociated_rtp);
    e.u64(c.counters.unassociated_sip_requests);
    e.u64(c.counters.unassociated_sip_responses);
    e.u64(c.alerts_total);
    e.buf
}

impl Vdump {
    /// Serializes the dump to its wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        let mut conf = Enc { buf: Vec::new() };
        encode_config(&mut conf, &self.config);
        conf.u32(self.telemetry_ring);
        section(&mut out, b"CONF", &conf.buf);
        if let Some(tenants) = &self.tenants {
            section(&mut out, b"TNTS", &encode_tenants(tenants));
        }
        section(&mut out, b"PKTS", &encode_packets(&self.packets));
        section(&mut out, b"ALRT", &encode_alert(&self.alert));
        if let Some(s) = &self.snapshot {
            section(&mut out, b"SNAP", &encode_snapshot(s));
        }
        section(&mut out, b"CTRS", &encode_counters(&self.counters));
        section(&mut out, b"END\0", &[]);
        out
    }

    /// Writes the dump to `path` (creating parent directories).
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.encode())
    }

    /// Reads and parses a dump file.
    pub fn read_from(path: &Path) -> Result<Vdump, VdumpReadError> {
        let bytes = std::fs::read(path).map_err(VdumpReadError::Io)?;
        Vdump::parse(&bytes).map_err(VdumpReadError::Format)
    }

    /// Parses a dump from its wire form.
    pub fn parse(bytes: &[u8]) -> Result<Vdump, VdumpError> {
        let mut d = Dec::new(bytes);
        if d.take(4)? != MAGIC {
            return Err(d.err_at(0, "bad magic (not a .vdump file)"));
        }
        let version = d.u16()?;
        if version != VERSION {
            return Err(d.err_at(4, "unsupported version"));
        }
        d.u16()?; // reserved

        let mut config = None;
        let mut tenants = None;
        let mut telemetry_ring = 0u32;
        let mut packets = None;
        let mut alert = None;
        let mut snapshot = None;
        let mut counters = None;
        loop {
            let tag_off = d.off;
            let tag: [u8; 4] = d.take(4)?.try_into().unwrap();
            let len = d.u32()? as usize;
            let payload_off = d.off;
            let payload = d.take(len)?;
            let stored_crc = d.u32()?;
            if crc32(payload) != stored_crc {
                return Err(d.err_at(payload_off, "section checksum mismatch"));
            }
            let mut s = Dec::at(payload, payload_off);
            match &tag {
                b"CONF" => {
                    config = Some(parse_config(&mut s)?);
                    telemetry_ring = s.u32()?;
                }
                b"TNTS" => tenants = Some(parse_tenants(&mut s)?),
                b"PKTS" => packets = Some(parse_packets(&mut s)?),
                b"ALRT" => alert = Some(parse_alert(&mut s)?),
                b"SNAP" => snapshot = Some(parse_snapshot(&mut s)?),
                b"CTRS" => counters = Some(parse_counters(&mut s)?),
                b"END\0" => break,
                _ if tag.iter().all(|b| b.is_ascii_graphic() || *b == 0) => {
                    // Future section: checksum verified above, skip.
                }
                _ => return Err(d.err_at(tag_off, "garbage section tag")),
            }
        }
        Ok(Vdump {
            config: config.ok_or(VdumpError {
                offset: bytes.len(),
                reason: "missing CONF section",
            })?,
            tenants,
            telemetry_ring,
            packets: packets.ok_or(VdumpError {
                offset: bytes.len(),
                reason: "missing PKTS section",
            })?,
            alert: alert.ok_or(VdumpError {
                offset: bytes.len(),
                reason: "missing ALRT section",
            })?,
            snapshot,
            counters: counters.ok_or(VdumpError {
                offset: bytes.len(),
                reason: "missing CTRS section",
            })?,
        })
    }

    /// One-paragraph human summary (the `vids inspect` body).
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let span_ns = match (self.packets.first(), self.packets.last()) {
            (Some(a), Some(b)) => b.meta.at_ns.saturating_sub(a.meta.at_ns),
            _ => 0,
        };
        let batches = {
            let mut n = 0u64;
            let mut last = None;
            for p in &self.packets {
                if last != Some(p.meta.batch) {
                    n += 1;
                    last = Some(p.meta.batch);
                }
            }
            n
        };
        let bytes: usize = self.packets.iter().map(|p| p.payload.len()).sum();
        writeln!(
            out,
            "window:   {} datagrams, {} bytes, {} batch(es), spanning {:.3}s",
            self.packets.len(),
            bytes,
            batches,
            span_ns as f64 / 1e9,
        )
        .unwrap();
        writeln!(
            out,
            "engine:   {} shard(s), telemetry ring {}",
            self.config.shards, self.telemetry_ring
        )
        .unwrap();
        if let Some(tenants) = &self.tenants {
            let names: Vec<String> = tenants
                .iter()
                .skip(1)
                .map(|t| format!("{} {}/{}", t.name, Ipv4Addr::from(t.prefix), t.prefix_len))
                .collect();
            writeln!(out, "tenants:  default, {}", names.join(", ")).unwrap();
        }
        writeln!(out, "alert:    {}", self.alert).unwrap();
        for line in &self.alert.trace {
            writeln!(out, "  trace:  {line}").unwrap();
        }
        match &self.snapshot {
            Some(s) => {
                writeln!(out, "call:     {}", s.call_id).unwrap();
                for m in &s.machines {
                    let vars: Vec<String> =
                        m.locals.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    writeln!(out, "  {:<6} state={} {}", m.name, m.state, vars.join(" ")).unwrap();
                }
                if !s.globals.is_empty() {
                    let vars: Vec<String> =
                        s.globals.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    writeln!(out, "  globals {}", vars.join(" ")).unwrap();
                }
            }
            None => writeln!(out, "call:     (no snapshot — not call-scoped)").unwrap(),
        }
        let c = self.counters.counters;
        writeln!(
            out,
            "counters: sip={} rtp={} malformed={} ignored={} unassoc={}|{}|{} alerts={}",
            c.sip_packets,
            c.rtp_packets,
            c.malformed,
            c.ignored,
            c.unassociated_rtp,
            c.unassociated_sip_requests,
            c.unassociated_sip_responses,
            self.counters.alerts_total
        )
        .unwrap();
        out
    }
}

/// Error reading a dump from disk: I/O or format.
#[derive(Debug)]
pub enum VdumpReadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The bytes were not a valid dump.
    Format(VdumpError),
}

impl fmt::Display for VdumpReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VdumpReadError::Io(e) => write!(f, "cannot read dump: {e}"),
            VdumpReadError::Format(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VdumpReadError {}

// ---------------------------------------------------------------- parsing

struct Dec<'a> {
    bytes: &'a [u8],
    /// Offset within `bytes`.
    pos: usize,
    /// Global offset of `bytes[0]` in the original file (for errors).
    base: usize,
    /// Global offset of the next unread byte.
    off: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec {
            bytes,
            pos: 0,
            base: 0,
            off: 0,
        }
    }

    fn at(bytes: &'a [u8], base: usize) -> Self {
        Dec {
            bytes,
            pos: 0,
            base,
            off: base,
        }
    }

    fn err(&self, reason: &'static str) -> VdumpError {
        VdumpError {
            offset: self.off,
            reason,
        }
    }

    fn err_at(&self, offset: usize, reason: &'static str) -> VdumpError {
        VdumpError { offset, reason }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], VdumpError> {
        if self.bytes.len() - self.pos < n {
            return Err(self.err("truncated"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        self.off = self.base + self.pos;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, VdumpError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, VdumpError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, VdumpError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, VdumpError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, VdumpError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn time(&mut self) -> Result<SimTime, VdumpError> {
        Ok(SimTime::from_nanos(self.u64()?))
    }

    fn blob(&mut self) -> Result<&'a [u8], VdumpError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<String, VdumpError> {
        let at = self.off;
        let raw = self.blob()?;
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(self.err_at(at, "string is not UTF-8")),
        }
    }
}

/// Reads [`encode_config`]'s layout through the validating builder.
fn parse_config(d: &mut Dec) -> Result<Config, VdumpError> {
    let config = Config::builder()
        .invite_flood_threshold(d.u64()?)
        .invite_flood_window(d.time()?)
        .bye_dos_linger(d.time()?)
        .spam_seq_gap(d.i64()?)
        .spam_ts_gap(d.i64()?)
        .rtp_flood_max_packets(d.u64()?)
        .rtp_flood_window(d.time()?)
        .response_flood_threshold(d.u64()?)
        .response_flood_window(d.time()?)
        .teardown_linger(d.time()?)
        .eviction_delay(d.time()?)
        .cross_protocol_sync(d.u8()? != 0)
        .shards(d.u64()? as usize)
        .replay_grace(d.time()?)
        .max_tracked_calls(d.u64()? as usize);
    let at = d.off;
    config.build().map_err(|_| VdumpError {
        offset: at,
        reason: "recorded configuration fails validation",
    })
}

fn parse_tenants(d: &mut Dec) -> Result<TenantMap, VdumpError> {
    let count = d.u32()? as usize;
    let mut tenants = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let name = d.string()?;
        let prefix = d.u32()?;
        let prefix_len = d.u8()?;
        if prefix_len > 32 {
            return Err(d.err("tenant prefix longer than 32 bits"));
        }
        let config = parse_config(d)?;
        tenants.push(Tenant {
            name,
            prefix,
            prefix_len,
            config,
        });
    }
    TenantMap::from_tenants(tenants).ok_or_else(|| d.err("tenant map without tenants"))
}

fn parse_packets(d: &mut Dec) -> Result<Vec<RecordedPacket>, VdumpError> {
    let count = d.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let seq = d.u64()?;
        let at_ns = d.u64()?;
        let batch = d.u64()?;
        let class_at = d.off;
        let class = RecordedClass::from_u8(d.u8()?)
            .ok_or_else(|| d.err_at(class_at, "unknown demux class"))?;
        let src_ip = d.u32()?;
        let src_port = d.u16()?;
        let dst_ip = d.u32()?;
        let dst_port = d.u16()?;
        let payload = d.blob()?.to_vec();
        out.push(RecordedPacket {
            meta: SlotMeta {
                seq,
                at_ns,
                batch,
                src_ip,
                src_port,
                dst_ip,
                dst_port,
                class,
            },
            payload,
        });
    }
    Ok(out)
}

fn parse_alert(d: &mut Dec) -> Result<Alert, VdumpError> {
    let time_ms = d.u64()?;
    let kind_at = d.off;
    let kind = match d.u8()? {
        0 => AlertKind::Attack,
        1 => AlertKind::Deviation,
        2 => AlertKind::Nondeterminism,
        _ => return Err(d.err_at(kind_at, "unknown alert kind")),
    };
    let label = d.string()?;
    let call_id = match d.u8()? {
        0 => None,
        _ => Some(d.string()?),
    };
    let machine = d.string()?;
    let detail = d.string()?;
    let trace_len = d.u32()? as usize;
    let mut trace = Vec::with_capacity(trace_len.min(1 << 12));
    for _ in 0..trace_len {
        trace.push(d.string()?);
    }
    Ok(Alert {
        time_ms,
        kind,
        label: label.into(),
        call_id: call_id.map(Into::into),
        machine: machine.into(),
        detail: detail.into(),
        trace,
    })
}

fn parse_snapshot(d: &mut Dec) -> Result<CallSnapshot, VdumpError> {
    let call_id = d.string()?;
    let machine_count = d.u32()? as usize;
    let mut machines = Vec::with_capacity(machine_count.min(64));
    for _ in 0..machine_count {
        let name = d.string()?;
        let state = d.string()?;
        let local_count = d.u32()? as usize;
        let mut locals = Vec::with_capacity(local_count.min(1 << 10));
        for _ in 0..local_count {
            locals.push((d.string()?, d.string()?));
        }
        machines.push(MachineSnapshot {
            name,
            state,
            locals,
        });
    }
    let global_count = d.u32()? as usize;
    let mut globals = Vec::with_capacity(global_count.min(1 << 10));
    for _ in 0..global_count {
        globals.push((d.string()?, d.string()?));
    }
    Ok(CallSnapshot {
        call_id,
        machines,
        globals,
    })
}

fn parse_counters(d: &mut Dec) -> Result<DumpCounters, VdumpError> {
    Ok(DumpCounters {
        counters: VidsCounters {
            sip_packets: d.u64()?,
            rtp_packets: d.u64()?,
            malformed: d.u64()?,
            ignored: d.u64()?,
            unassociated_rtp: d.u64()?,
            unassociated_sip_requests: d.u64()?,
            unassociated_sip_responses: d.u64()?,
        },
        alerts_total: d.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vdump {
        Vdump {
            config: Config::builder().shards(2).build().unwrap(),
            tenants: None,
            telemetry_ring: 256,
            packets: vec![
                RecordedPacket {
                    meta: SlotMeta {
                        seq: 0,
                        at_ns: 1_000_000,
                        batch: 1,
                        src_ip: 0x0a01_000a,
                        src_port: 5060,
                        dst_ip: 0x0a02_000a,
                        dst_port: 5060,
                        class: RecordedClass::Sip,
                    },
                    payload: b"INVITE sip:bob@b SIP/2.0\r\n\r\n".to_vec(),
                },
                RecordedPacket {
                    meta: SlotMeta {
                        seq: 1,
                        at_ns: 2_000_000,
                        batch: 2,
                        src_ip: 0,
                        src_port: 0,
                        dst_ip: 0,
                        dst_port: 0,
                        class: RecordedClass::NonIp,
                    },
                    payload: Vec::new(),
                },
            ],
            alert: Alert {
                time_ms: 42,
                kind: AlertKind::Attack,
                label: "invite-flood".into(),
                call_id: Some("c1".into()),
                machine: "flood".into(),
                detail: "dst=10.2.0.10".into(),
                trace: vec!["t=0ms flood: a -> b".to_owned()],
            },
            snapshot: Some(CallSnapshot {
                call_id: "c1".to_owned(),
                machines: vec![MachineSnapshot {
                    name: "sip".to_owned(),
                    state: "calling".to_owned(),
                    locals: vec![("n".to_owned(), "3".to_owned())],
                }],
                globals: vec![("shared".to_owned(), "1".to_owned())],
            }),
            counters: DumpCounters {
                counters: VidsCounters {
                    sip_packets: 11,
                    ..VidsCounters::default()
                },
                alerts_total: 1,
            },
        }
    }

    #[test]
    fn encode_parse_round_trip() {
        let d = sample();
        let bytes = d.encode();
        let back = Vdump::parse(&bytes).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn round_trip_without_snapshot() {
        let mut d = sample();
        d.snapshot = None;
        d.alert.call_id = None;
        let back = Vdump::parse(&d.encode()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn corruption_is_caught_with_an_offset() {
        let mut bytes = sample().encode();
        // Flip a byte inside the PKTS payload (past header + CONF).
        let idx = bytes.len() / 2;
        bytes[idx] ^= 0xff;
        let err = Vdump::parse(&bytes).unwrap_err();
        assert!(
            err.reason.contains("checksum") || err.reason.contains("truncated"),
            "unexpected reason: {err}"
        );
    }

    #[test]
    fn truncation_is_caught() {
        let bytes = sample().encode();
        for cut in [3, 7, 20, bytes.len() - 1] {
            let err = Vdump::parse(&bytes[..cut]).unwrap_err();
            assert!(err.offset <= bytes.len(), "offset within file: {err}");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        let err = Vdump::parse(&bytes).unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.reason.contains("magic"));
    }

    #[test]
    fn a_version_1_dump_is_refused_at_its_version() {
        let mut bytes = sample().encode();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let err = Vdump::parse(&bytes).unwrap_err();
        assert_eq!(err.offset, 4);
        assert_eq!(err.reason, "unsupported version");
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let d = sample();
        let mut bytes = d.encode();
        // Splice an unknown (but well-formed) section just before END.
        let end_tag = b"END\0";
        let end_pos = bytes
            .windows(4)
            .rposition(|w| w == end_tag)
            .expect("END present");
        let mut extra = Vec::new();
        section(&mut extra, b"XTRA", b"future data");
        bytes.splice(end_pos..end_pos, extra);
        let back = Vdump::parse(&bytes).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn the_tenant_map_round_trips_in_its_own_section() {
        let untenanted = sample().encode();
        let mut d = sample();
        let base = d.config;
        d.tenants = Some(
            TenantMap::parse(
                "tenant acme 10.1.0.0/16 invite_flood_n=5 max_calls=10000\n\
                 tenant contoso 10.2.0.0/16 bye_dos_t_ms=500",
                base,
            )
            .unwrap(),
        );
        let bytes = d.encode();
        assert_eq!(Vdump::parse(&bytes).unwrap(), d);
        assert!(d.describe().contains("contoso 10.2.0.0/16"));
        // The section is all that changed, so dropping it (what a reader
        // that predates it does) leaves the untenanted dump.
        let at = bytes.windows(4).position(|w| w == b"TNTS").unwrap();
        let len = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize;
        let mut stripped = bytes;
        stripped.drain(at..at + 12 + len);
        assert_eq!(stripped, untenanted);
    }

    #[test]
    fn describe_mentions_the_alert_and_window() {
        let text = sample().describe();
        assert!(text.contains("invite-flood"));
        assert!(text.contains("2 datagrams"));
        assert!(text.contains("state=calling"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("vids-vdump-test");
        let path = dir.join("sample.vdump");
        let d = sample();
        d.write_to(&path).unwrap();
        let back = Vdump::read_from(&path).unwrap();
        assert_eq!(back, d);
        std::fs::remove_dir_all(&dir).ok();
    }
}
