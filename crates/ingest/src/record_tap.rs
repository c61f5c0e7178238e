//! Bridges the ingest pipeline to the `vids-record` flight recorder.
//!
//! Both ingest paths (offline [`crate::replay`] and the live
//! [`crate::server`]) accept an optional [`RecordTap`]. When present,
//! every datagram is mirrored into the recorder's rings *before* it
//! reaches the engine (allocation-free), batch boundaries are marked as
//! the engine sees them, and the alerts a batch raises trigger `.vdump`s
//! of the surrounding window. Both paths find a batch's alerts the same
//! way: a tap that dumps tees the alert stream on its way to the caller's
//! sink ([`teed`]) and dumps what it caught since its last dump while the
//! engine is quiescent. The pool keeps no alert of its own.

use std::path::{Path, PathBuf};

use vids_core::pool::VidsPool;
use vids_core::{Alert, AlertSink, Tee};
use vids_netsim::time::SimTime;
use vids_record::{RecordedClass, Recorder};

use crate::demux::WireClass;

/// Maps the live demux verdict onto the dump's frozen class byte.
pub fn recorded_class(class: WireClass) -> RecordedClass {
    match class {
        WireClass::Sip => RecordedClass::Sip,
        WireClass::Rtp => RecordedClass::Rtp,
        WireClass::Rtcp => RecordedClass::Rtcp,
        // The dump format has no v6 class byte; v6 drops freeze as Unknown
        // (both are engine-ignored, so replay verdicts are unaffected).
        WireClass::Ipv6 | WireClass::Unknown => RecordedClass::Unknown,
    }
}

/// A flight-recorder tap on an ingest run. The recorder is borrowed by
/// shared reference, so the serve daemon's receiver threads record into
/// their own lanes while the coordinator holds the tap.
///
/// `dump_dir = None` keeps the rings hot (stats, overhead measurement)
/// without ever writing dumps. A dump that fails to write is counted in
/// `io_errors` and the run goes on.
pub struct RecordTap<'a> {
    /// The recorder holding the rings.
    pub recorder: &'a Recorder,
    /// Where alert-triggered dumps go; `None` disables dumping.
    pub dump_dir: Option<&'a Path>,
    /// Dump files written during the run, in order.
    pub written: Vec<PathBuf>,
    /// Dump writes that failed.
    pub io_errors: u64,
    /// Alerts teed off the stream since the last dump; filled only when
    /// there is a dump directory.
    pending: Vec<Alert>,
}

impl<'a> RecordTap<'a> {
    /// Taps `recorder`, dumping alerts into `dump_dir` when given.
    pub fn new(recorder: &'a Recorder, dump_dir: Option<&'a Path>) -> Self {
        RecordTap {
            recorder,
            dump_dir,
            written: Vec::new(),
            io_errors: 0,
            pending: Vec::new(),
        }
    }

    /// Dumps the window for every alert teed since the last dump, then
    /// forgets them. `pool` must be quiescent.
    pub(crate) fn dump_new(&mut self, pool: &VidsPool) {
        let Some(dir) = self.dump_dir else { return };
        match self.recorder.dump_alerts(pool, dir, &self.pending) {
            Ok(paths) => self.written.extend(paths),
            Err(_) => self.io_errors += 1,
        }
        self.pending.clear();
    }

    /// Writes an operator-requested snapshot of the rings (`SIGUSR1`).
    pub(crate) fn snapshot(&mut self, pool: &VidsPool, at: SimTime) {
        let Some(dir) = self.dump_dir else { return };
        match self.recorder.dump_snapshot(pool, dir, at) {
            // `None`: the dump cap declined it, which is not an error.
            Ok(path) => self.written.extend(path),
            Err(_) => self.io_errors += 1,
        }
    }
}

/// `sink`, with a tee into the tap's pending alerts when there is a tap
/// with a dump directory; without one the alerts pass straight through.
pub(crate) fn teed<'s, S: AlertSink + ?Sized>(
    tap: &'s mut Option<&mut RecordTap<'_>>,
    sink: &'s mut S,
) -> Tee<'s, Vec<Alert>, S> {
    let copy = tap
        .as_deref_mut()
        .filter(|t| t.dump_dir.is_some())
        .map(|t| &mut t.pending);
    Tee { copy, sink }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demux_classes_map_one_to_one() {
        assert_eq!(recorded_class(WireClass::Sip), RecordedClass::Sip);
        assert_eq!(recorded_class(WireClass::Rtp), RecordedClass::Rtp);
        assert_eq!(recorded_class(WireClass::Rtcp), RecordedClass::Rtcp);
        assert_eq!(recorded_class(WireClass::Unknown), RecordedClass::Unknown);
        assert_eq!(recorded_class(WireClass::Ipv6), RecordedClass::Unknown);
    }
}
