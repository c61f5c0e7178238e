//! Bridge between the flight recorder and the fuzz harness.
//!
//! A `.vdump` forensic dump is exactly what a mutation fuzzer wants for
//! breakfast: a window of real wire bytes that drove the engine all the
//! way to an alert. This module loads dumps as corpus seeds — SIP text
//! and RTP wire bytes, split by the recorded demux verdict — and
//! re-exports the drop-one-packet [`minimize`] pass so regression dumps
//! checked in under [`corpus_dir`] stay as small as the alert allows.
//!
//! The committed corpus lives in `crates/harness/corpus/*.vdump`. Tests
//! load every dump found there; `VIDS_REGEN_CORPUS=1` regenerates the
//! pinned files (see `tests/record_gate.rs`).

use std::path::{Path, PathBuf};

pub use vids_record::{minimize, replay_vdump, MinimizeReport};
use vids_record::{RecordedClass, Vdump};

/// The directory of committed regression dumps, resolved relative to
/// this crate so tests find it regardless of the cargo invocation dir.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Every `.vdump` under `dir`, sorted by file name for determinism.
/// Unreadable or unparseable files are an error — a corrupt committed
/// dump should fail loudly, not silently shrink the corpus.
pub fn load_dumps(dir: &Path) -> Result<Vec<(PathBuf, Vdump)>, String> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "vdump"))
            .collect(),
        Err(_) => Vec::new(), // no corpus directory yet — empty corpus
    };
    paths.sort();
    let mut dumps = Vec::with_capacity(paths.len());
    for path in paths {
        let dump = Vdump::read_from(&path)
            .map_err(|e| format!("corpus dump {} is unreadable: {e}", path.display()))?;
        dumps.push((path, dump));
    }
    Ok(dumps)
}

/// SIP payloads from a dump's packet window, for the SIP text fuzzer.
/// Only packets the live demux classified as SIP and that decode as
/// UTF-8 qualify — the fuzzer mutates text, not arbitrary bytes.
pub fn sip_seeds_from_dump(dump: &Vdump) -> Vec<String> {
    dump.packets
        .iter()
        .filter(|p| p.meta.class == RecordedClass::Sip)
        .filter_map(|p| String::from_utf8(p.payload.clone()).ok())
        .collect()
}

/// RTP wire payloads from a dump's packet window, for the byte fuzzers.
pub fn rtp_seeds_from_dump(dump: &Vdump) -> Vec<Vec<u8>> {
    dump.packets
        .iter()
        .filter(|p| p.meta.class == RecordedClass::Rtp)
        .map(|p| p.payload.clone())
        .collect()
}

/// The committed corpus flattened into extra fuzzer seeds: every SIP
/// payload from every dump under [`corpus_dir`].
pub fn corpus_sip_seeds() -> Vec<String> {
    load_dumps(&corpus_dir())
        .unwrap_or_default()
        .iter()
        .flat_map(|(_, d)| sip_seeds_from_dump(d))
        .collect()
}

/// The committed corpus flattened into extra byte-fuzzer seeds: every RTP
/// payload from every dump under [`corpus_dir`]. Empty while the checked-in
/// dumps record signaling-only attacks; a media-window dump feeds in
/// automatically once committed.
pub fn corpus_rtp_seeds() -> Vec<Vec<u8>> {
    load_dumps(&corpus_dir())
        .unwrap_or_default()
        .iter()
        .flat_map(|(_, d)| rtp_seeds_from_dump(d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vids_record::{RecordedPacket, SlotMeta};

    fn packet(class: RecordedClass, payload: &[u8]) -> RecordedPacket {
        RecordedPacket {
            meta: SlotMeta {
                seq: 0,
                at_ns: 0,
                batch: 1,
                src_ip: 0x0a01_000a,
                src_port: 5060,
                dst_ip: 0x0a02_000a,
                dst_port: 5060,
                class,
            },
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn seeds_split_by_recorded_class() {
        let dump = Vdump {
            config: vids_core::config::Config::default(),
            tenants: None,
            telemetry_ring: 0,
            packets: vec![
                packet(RecordedClass::Sip, b"OPTIONS sip:x SIP/2.0\r\n\r\n"),
                packet(RecordedClass::Sip, &[0xFF, 0xFE]), // not UTF-8: skipped
                packet(RecordedClass::Rtp, &[0x80, 18, 0, 1]),
                packet(RecordedClass::Unknown, b"noise"),
            ],
            alert: vids_core::alert::Alert {
                time_ms: 0,
                kind: vids_core::alert::AlertKind::Attack,
                label: "x".into(),
                call_id: None,
                machine: "m".into(),
                detail: "".into(),
                trace: Vec::new(),
            },
            snapshot: None,
            counters: vids_record::DumpCounters::default(),
        };
        let sip = sip_seeds_from_dump(&dump);
        assert_eq!(sip, vec!["OPTIONS sip:x SIP/2.0\r\n\r\n".to_owned()]);
        let rtp = rtp_seeds_from_dump(&dump);
        assert_eq!(rtp, vec![vec![0x80, 18, 0, 1]]);
    }

    #[test]
    fn missing_corpus_dir_is_an_empty_corpus() {
        let dumps = load_dumps(Path::new("/nonexistent/vids-corpus")).unwrap();
        assert!(dumps.is_empty());
    }
}
