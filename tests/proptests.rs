//! Property-based tests over the protocol substrates and the EFSM engine.

use proptest::prelude::*;

use vids::efsm::machine::MachineDef;
use vids::efsm::{Event, MachineInstance, VarMap};
use vids::rtp::packet::RtpPacket;
use vids::rtp::seq::{seq_distance, seq_greater, ExtendedSeq};
use vids::rtp::JitterEstimator;
use vids::sdp::{Codec, SessionDescription};
use vids::sip::headers::{CSeq, NameAddr, Via};
use vids::sip::parse::parse_message;
use vids::sip::{Message, Method, Request, SipUri, StatusCode};

fn arb_user() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,8}"
}

fn arb_host() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,6}(\\.[a-z]{2,5}){1,2}"
}

fn arb_uri() -> impl Strategy<Value = SipUri> {
    (arb_user(), arb_host(), proptest::option::of(1024u16..65535)).prop_map(|(user, host, port)| {
        let uri = SipUri::new(user, host);
        match port {
            Some(p) => uri.with_port(p),
            None => uri,
        }
    })
}

proptest! {
    #[test]
    fn sip_uri_display_parse_round_trips(uri in arb_uri()) {
        let text = uri.to_string();
        let parsed: SipUri = text.parse().unwrap();
        prop_assert_eq!(parsed, uri);
    }

    #[test]
    fn via_round_trips(host in arb_host(), port in 1024u16..65535, branch in "[A-Za-z0-9]{4,20}") {
        let via = Via::udp(host, port, format!("z9hG4bK{branch}"));
        let parsed: Via = via.to_string().parse().unwrap();
        prop_assert_eq!(parsed, via);
    }

    #[test]
    fn name_addr_round_trips(uri in arb_uri(), name in proptest::option::of("[A-Za-z ]{1,12}"), tag in proptest::option::of("[a-z0-9]{1,10}")) {
        let mut na = NameAddr::new(uri);
        if let Some(n) = name { na = na.with_display_name(n); }
        if let Some(t) = tag { na = na.with_tag(t); }
        let parsed: NameAddr = na.to_string().parse().unwrap();
        prop_assert_eq!(parsed, na);
    }

    #[test]
    fn cseq_round_trips(seq in 0u32..u32::MAX, idx in 0usize..13) {
        let cseq = CSeq::new(seq, Method::ALL[idx]);
        prop_assert_eq!(cseq.to_string().parse::<CSeq>().unwrap(), cseq);
    }

    #[test]
    fn generated_requests_round_trip(from in arb_uri(), to in arb_uri(), call in "[a-z0-9-]{3,24}", cseq in 1u32..1000) {
        let invite = Request::invite(&from, &to, &call);
        let ack = Request::in_dialog(Method::Ack, &invite, cseq, Some("tt"));
        let bye = Request::in_dialog(Method::Bye, &invite, cseq, Some("tt"));
        for req in [invite, ack, bye] {
            let parsed = parse_message(&req.to_string()).unwrap();
            prop_assert_eq!(parsed, Message::Request(req));
        }
    }

    #[test]
    fn generated_responses_round_trip(from in arb_uri(), to in arb_uri(), code in 100u16..700) {
        let invite = Request::invite(&from, &to, "prop-resp");
        let resp = invite.response(StatusCode::new(code).unwrap()).with_to_tag("tag9");
        let parsed = parse_message(&resp.to_string()).unwrap();
        prop_assert_eq!(parsed, Message::Response(resp));
    }

    #[test]
    fn parser_never_panics_on_arbitrary_text(text in ".{0,400}") {
        let _ = parse_message(&text);
    }

    #[test]
    fn sdp_round_trips(user in arb_user(), a in 1u8..255, b in 0u8..255, port in 1024u16..65535, codecs in proptest::sample::subsequence(Codec::ALL.to_vec(), 1..5)) {
        let addr = format!("10.{a}.0.{b}");
        let sdp = SessionDescription::audio_offer(&user, &addr, port, &codecs);
        let parsed: SessionDescription = sdp.to_string().parse().unwrap();
        prop_assert_eq!(parsed, sdp);
    }

    #[test]
    fn sdp_parser_never_panics(text in ".{0,300}") {
        let _ = text.parse::<SessionDescription>();
    }

    #[test]
    fn rtp_round_trips(pt in 0u8..128, seq in any::<u16>(), ts in any::<u32>(), ssrc in any::<u32>(), payload in proptest::collection::vec(any::<u8>(), 0..200), marker in any::<bool>()) {
        let mut pkt = RtpPacket::new(pt, seq, ts, ssrc).with_payload(payload);
        if marker { pkt = pkt.with_marker(); }
        prop_assert_eq!(RtpPacket::parse(&pkt.to_bytes()).unwrap(), pkt);
    }

    #[test]
    fn rtp_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = RtpPacket::parse(&bytes);
    }

    #[test]
    fn seq_greater_is_antisymmetric(a in any::<u16>(), b in any::<u16>()) {
        if a != b {
            // Exactly one direction wins unless they sit exactly half the
            // space apart (the RFC 1982 undefined case).
            let forward = seq_greater(a, b);
            let backward = seq_greater(b, a);
            if a.wrapping_sub(b) == 0x8000 {
                prop_assert!(!forward && !backward);
            } else {
                prop_assert!(forward != backward);
            }
        } else {
            prop_assert!(!seq_greater(a, b));
        }
    }

    #[test]
    fn seq_distance_inverts(a in any::<u16>(), b in any::<u16>()) {
        let d = seq_distance(a, b);
        prop_assert_eq!(b.wrapping_add(d as u16), a);
    }

    #[test]
    fn extended_seq_is_monotone_for_small_steps(start in any::<u16>(), steps in proptest::collection::vec(1u16..100, 1..60)) {
        let mut ext = ExtendedSeq::new();
        let mut seq = start;
        let mut last = ext.update(seq);
        for step in steps {
            seq = seq.wrapping_add(step);
            let v = ext.update(seq);
            prop_assert!(v > last, "extended seq must strictly grow: {v} after {last}");
            last = v;
        }
    }

    #[test]
    fn jitter_is_nonnegative_and_bounded(arrival_noise in proptest::collection::vec(0u32..20_000, 2..100)) {
        // Arrivals: nominal 10 ms spacing with bounded added noise (µs).
        let mut j = JitterEstimator::new(8_000);
        let mut ts = 0u32;
        for (i, noise) in arrival_noise.iter().enumerate() {
            let arrival = i as f64 * 0.010 + *noise as f64 * 1e-6;
            j.on_packet(arrival, ts);
            ts = ts.wrapping_add(80);
        }
        let jit = j.jitter_secs();
        prop_assert!(jit >= 0.0);
        // Noise ≤ 20 ms per packet bounds deviation to ≤ 30 ms per step.
        prop_assert!(jit < 0.040, "jitter {jit}");
    }

    #[test]
    fn efsm_counter_never_miscounts(events in proptest::collection::vec(0u8..3, 1..80)) {
        // A machine counting "a" events; arbitrary interleavings of a/b/c
        // must leave the counter equal to the number of "a"s delivered.
        let mut def = MachineDef::new("m");
        let s = def.add_state("S");
        def.add_transition(s, "a", s).action(|ctx| { ctx.locals.increment("n"); });
        def.add_transition(s, "b", s);
        def.set_unmatched_policy(vids::efsm::machine::UnmatchedPolicy::Ignore);
        let def = def.build().unwrap();
        let mut m = MachineInstance::new(&def);
        let mut globals = VarMap::new();
        let mut expected = 0u64;
        for e in &events {
            let name = ["a", "b", "c"][*e as usize];
            m.step(&def, &Event::data(name), &mut globals);
            if *e == 0 { expected += 1; }
        }
        prop_assert_eq!(m.locals().uint("n").unwrap_or(0), expected);
    }

    #[test]
    fn classifier_never_panics_on_random_payloads(sip in ".{0,200}", rtp in proptest::collection::vec(any::<u8>(), 0..100)) {
        use vids::netsim::packet::{Address, Packet, Payload};
        use vids::netsim::time::SimTime;
        for payload in [Payload::Sip(sip.clone()), Payload::Rtp(rtp.clone()), Payload::Raw(rtp.clone())] {
            let pkt = Packet {
                src: Address::new(10, 0, 0, 1, 5060),
                dst: Address::new(10, 2, 0, 1, 5060),
                payload,
                id: 0,
                sent_at: SimTime::ZERO,
            };
            let _ = vids::core::classify::classify(&pkt);
        }
    }

    #[test]
    fn vids_engine_never_panics_on_random_sip(texts in proptest::collection::vec(".{0,150}", 1..20)) {
        use vids::netsim::packet::{Address, Packet, Payload};
        use vids::netsim::time::SimTime;
        let mut vids = vids::core::Vids::new(vids::core::Config::default());
        for (i, t) in texts.iter().enumerate() {
            let pkt = Packet {
                src: Address::new(10, 0, 0, 1, 5060),
                dst: Address::new(10, 2, 0, 1, 5060),
                payload: Payload::Sip(t.clone()),
                id: i as u64,
                sent_at: SimTime::ZERO,
            };
            vids.process(&pkt, SimTime::from_millis(i as u64 * 10), &mut vids::core::NullSink);
        }
    }
}

/// Model-based test of the monitor: random *valid* call flows — arbitrary
/// retransmission counts, optional ringing, interleaved in-profile media,
/// lossy teardown — must never trip the specification machines.
mod valid_flows {
    use proptest::prelude::*;
    use vids::core::{Config, CostModel, Vids};
    use vids::netsim::packet::{Address, Packet, Payload};
    use vids::netsim::time::SimTime;
    use vids::rtp::packet::RtpPacket;
    use vids::sdp::{Codec, SessionDescription};
    use vids::sip::{Method, Request, StatusCode};

    const CALLER: Address = Address::new(10, 1, 0, 10, 5060);
    const CALLEE: Address = Address::new(10, 2, 0, 10, 5060);

    #[derive(Debug, Clone)]
    struct FlowShape {
        invite_retrans: usize,
        ringing_count: usize,
        ok_retrans: usize,
        media_packets: u16,
        media_loss_stride: u16,
        bye_retrans: usize,
        drop_bye_ok: bool,
    }

    fn arb_flow() -> impl Strategy<Value = FlowShape> {
        (
            0usize..3,
            0usize..4,
            0usize..3,
            1u16..60,
            2u16..20,
            0usize..3,
            any::<bool>(),
        )
            .prop_map(
                |(
                    invite_retrans,
                    ringing_count,
                    ok_retrans,
                    media_packets,
                    media_loss_stride,
                    bye_retrans,
                    drop_bye_ok,
                )| FlowShape {
                    invite_retrans,
                    ringing_count,
                    ok_retrans,
                    media_packets,
                    media_loss_stride,
                    bye_retrans,
                    drop_bye_ok,
                },
            )
    }

    fn run_flow(shape: &FlowShape) -> Vec<vids::core::Alert> {
        let mut vids = Vids::with_cost(Config::default(), CostModel::free());
        let mut t = 0u64;
        let mut step = |vids: &mut Vids, src: Address, dst: Address, payload: Payload| {
            t += 20;
            let mut sink = vids::core::CollectSink::new();
            vids.process(
                &Packet {
                    src,
                    dst,
                    payload,
                    id: t,
                    sent_at: SimTime::ZERO,
                },
                SimTime::from_millis(t),
                &mut sink,
            );
            sink.into_alerts()
        };

        let sdp = SessionDescription::audio_offer("a", "10.1.0.10", 20_000, &[Codec::G729]);
        let invite = Request::invite(
            &vids::sip::SipUri::new("a", "a.example.com"),
            &vids::sip::SipUri::new("b", "b.example.com"),
            "prop-flow",
        )
        .with_body(vids::sdp::MIME_TYPE, sdp.to_string());
        for _ in 0..=shape.invite_retrans {
            step(&mut vids, CALLER, CALLEE, Payload::Sip(invite.to_string()));
        }
        for _ in 0..shape.ringing_count {
            let ringing = invite.response(StatusCode::RINGING).with_to_tag("tt");
            step(&mut vids, CALLEE, CALLER, Payload::Sip(ringing.to_string()));
        }
        let answer = SessionDescription::audio_offer("b", "10.2.0.10", 30_000, &[Codec::G729]);
        let ok = invite
            .response(StatusCode::OK)
            .with_to_tag("tt")
            .with_body(vids::sdp::MIME_TYPE, answer.to_string());
        for _ in 0..=shape.ok_retrans {
            step(&mut vids, CALLEE, CALLER, Payload::Sip(ok.to_string()));
        }
        let ack = Request::in_dialog(Method::Ack, &invite, 1, Some("tt"));
        step(&mut vids, CALLER, CALLEE, Payload::Sip(ack.to_string()));

        // In-profile media with occasional single-packet loss.
        for i in 0..shape.media_packets {
            if i % shape.media_loss_stride == 0 && i > 0 {
                continue; // a lost packet: small seq/ts gap downstream
            }
            let rtp = RtpPacket::new(18, 100 + i, i as u32 * 80, 7).with_payload(vec![0; 10]);
            step(
                &mut vids,
                CALLER.with_port(20_000),
                CALLEE.with_port(30_000),
                Payload::Rtp(rtp.to_bytes()),
            );
        }

        let bye = Request::in_dialog(Method::Bye, &invite, 2, Some("tt"));
        for _ in 0..=shape.bye_retrans {
            step(&mut vids, CALLER, CALLEE, Payload::Sip(bye.to_string()));
        }
        if !shape.drop_bye_ok {
            let bye_ok = bye.response(StatusCode::OK);
            step(&mut vids, CALLEE, CALLER, Payload::Sip(bye_ok.to_string()));
        }
        // Flush timers far past every linger.
        vids.tick(SimTime::from_secs(60), &mut vids::core::NullSink);
        vids.tick(SimTime::from_secs(120), &mut vids::core::NullSink);
        vids.alerts().to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn valid_flows_never_alert(shape in arb_flow()) {
            let alerts = run_flow(&shape);
            prop_assert!(alerts.is_empty(), "{shape:?} -> {alerts:?}");
        }
    }
}

/// Properties of the telemetry log₂ histogram: the bucket map is monotone,
/// recording conserves the total count, and merging is associative and
/// commutative (the pool merges shard histograms in arbitrary groupings, so
/// the grouping must never show in a snapshot).
mod telemetry_hist {
    use proptest::prelude::*;
    use vids::telemetry::{AtomicHistogram, HistSnapshot};

    fn record_all(values: &[u64]) -> HistSnapshot {
        let h = AtomicHistogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    proptest! {
        #[test]
        fn bucket_of_is_monotone(a in any::<u64>(), b in any::<u64>()) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(
                vids::telemetry::bucket_of(lo) <= vids::telemetry::bucket_of(hi),
                "bucket_of({lo}) > bucket_of({hi})"
            );
        }

        #[test]
        fn every_value_lands_at_or_above_its_bucket_lower_bound(v in any::<u64>()) {
            let b = vids::telemetry::bucket_of(v);
            prop_assert!(vids::telemetry::bucket_lower_bound(b) <= v);
            if b + 1 < vids::telemetry::LOG2_BUCKETS {
                prop_assert!(v < vids::telemetry::bucket_lower_bound(b + 1));
            }
        }

        #[test]
        fn recording_conserves_the_total(values in proptest::collection::vec(any::<u64>(), 0..200)) {
            let snap = record_all(&values);
            prop_assert_eq!(snap.total(), values.len() as u64);
            let nonzero_sum: u64 = snap.nonzero().iter().map(|(_, n)| n).sum();
            prop_assert_eq!(nonzero_sum, values.len() as u64);
        }

        #[test]
        fn merge_is_associative_and_commutative(
            xs in proptest::collection::vec(any::<u64>(), 0..60),
            ys in proptest::collection::vec(any::<u64>(), 0..60),
            zs in proptest::collection::vec(any::<u64>(), 0..60),
        ) {
            let (x, y, z) = (record_all(&xs), record_all(&ys), record_all(&zs));

            // (x ∪ y) ∪ z == x ∪ (y ∪ z)
            let mut left = x.clone();
            left.merge(&y);
            left.merge(&z);
            let mut yz = y.clone();
            yz.merge(&z);
            let mut right = x.clone();
            right.merge(&yz);
            prop_assert_eq!(&left, &right);

            // x ∪ y == y ∪ x
            let mut xy = x.clone();
            xy.merge(&y);
            let mut yx = y.clone();
            yx.merge(&x);
            prop_assert_eq!(&xy, &yx);

            // And both equal one histogram fed the concatenation.
            let mut all = xs.clone();
            all.extend(&ys);
            all.extend(&zs);
            prop_assert_eq!(left, record_all(&all));
        }
    }
}

/// Model test for the tentpole data structure: `VarMap` — a sorted inline
/// small-vec keyed by interned symbols that spills to the heap past
/// [`vids::efsm::value::VARMAP_INLINE`] entries — must agree with a plain
/// `BTreeMap<String, Value>` under any op sequence. Twenty distinct keys
/// guarantee sequences that cross the inline→spill boundary.
mod varmap_model {
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use vids::efsm::{Value, VarMap};

    proptest! {
        #[test]
        fn varmap_matches_btreemap_model(
            ops in proptest::collection::vec((0u8..4, 0usize..20, any::<u64>()), 0..80)
        ) {
            let keys: Vec<String> = (0..20).map(|i| format!("pv_{i:02}")).collect();
            let mut map = VarMap::new();
            let mut model: BTreeMap<&str, Value> = BTreeMap::new();
            for (kind, key, val) in ops {
                let name = keys[key].as_str();
                match kind {
                    0 => {
                        map.set(name, val);
                        model.insert(name, Value::Uint(val));
                    }
                    1 => {
                        // `&str` and `String` intern to the same value.
                        let s = format!("v{}", val % 50);
                        map.set(name, s.as_str());
                        model.insert(name, Value::from(s));
                    }
                    2 => {
                        let got = map.remove(name);
                        let want = model.remove(name);
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        let next = map.increment(name);
                        let want = model.get(name).and_then(Value::as_uint).unwrap_or(0) + 1;
                        model.insert(name, Value::Uint(want));
                        prop_assert_eq!(next, want);
                    }
                }
                prop_assert_eq!(map.len(), model.len());
            }
            for name in &keys {
                prop_assert_eq!(map.get(name.as_str()), model.get(name.as_str()));
            }
            // Same contents under iteration, whatever the internal order.
            let flat: BTreeMap<&str, &Value> = map.iter().collect();
            let model_ref: BTreeMap<&str, &Value> = model.iter().map(|(k, v)| (*k, v)).collect();
            prop_assert_eq!(flat, model_ref);
        }
    }
}

/// The interner stores text on byte slabs and indexes it by id; whatever
/// the bytes — any length up to the 255-byte bound, multi-byte UTF-8
/// anywhere, so copies end at every offset of a slab — a symbol gives its
/// text back, interning is idempotent, a lookup never interns, and ids
/// only grow. Other tests intern concurrently, so ids are checked for
/// order here and for density in `crates/efsm/tests/interner.rs`.
mod interner {
    use proptest::prelude::*;
    use vids::efsm::intern::{InternError, MAX_SYMBOL_LEN};
    use vids::efsm::Sym;

    /// The longest prefix of `text` that is at most `max` bytes.
    fn prefix(text: &str, max: usize) -> &str {
        let mut end = text.len().min(max);
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        &text[..end]
    }

    proptest! {
        #[test]
        fn symbols_round_trip_whatever_the_bytes(
            texts in proptest::collection::vec("[a-z0-9@.:;=é√世🎉 -]{0,255}", 1..12)
        ) {
            let mut last_fresh_id = None;
            for text in &texts {
                let text = prefix(text, MAX_SYMBOL_LEN);
                let probe = format!("{text}\u{1}never-interned");
                prop_assert_eq!(Sym::lookup(&probe), None);

                let known = Sym::lookup(text);
                let sym = Sym::intern(text);
                prop_assert_eq!(sym.as_str(), text);
                prop_assert_eq!(Sym::intern(text), sym);
                prop_assert_eq!(Sym::try_intern(text), Ok(sym));
                prop_assert_eq!(Sym::lookup(text), Some(sym));
                match known {
                    Some(earlier) => prop_assert_eq!(earlier, sym),
                    None => {
                        prop_assert!(!sym.is_preseeded());
                        prop_assert!(last_fresh_id < Some(sym.id()));
                        last_fresh_id = Some(sym.id());
                    }
                }
                // The failed lookup interned nothing.
                prop_assert_eq!(Sym::lookup(&probe), None);
            }
        }

        #[test]
        fn text_past_the_bound_is_refused(
            text in "[a-zé世]{256,300}"
        ) {
            prop_assert!(text.len() > MAX_SYMBOL_LEN);
            prop_assert_eq!(Sym::try_intern(&text), Err(InternError::TooLong));
            prop_assert_eq!(Sym::lookup(&text), None);
            // Its longest admissible prefix is an ordinary symbol.
            let head = prefix(&text, MAX_SYMBOL_LEN);
            prop_assert_eq!(Sym::try_intern(head).map(Sym::as_str), Ok(head));
        }
    }
}

/// The order in which a network fires its due timers is part of its
/// contract — alert order depends on it: earliest deadline first; on a tie
/// the lower machine index, then the lower timer symbol. The reference
/// model keeps one `BTreeMap<Sym, u64>` per machine and scans them in
/// machine order for the strictly earliest deadline, which is how
/// `Network` stored and fired timers before they moved inline. Three
/// machines and six timer names cross both spill boundaries (two machines,
/// four timers); one timer re-arms another when it fires, so arming during
/// a sweep is covered too.
mod timer_order {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use proptest::prelude::*;
    use vids::efsm::{Event, MachineDef, Network, Sym, TransitionObserver};

    const MACHINES: [&str; 3] = ["pm0", "pm1", "pm2"];
    const TIMERS: [&str; 6] = ["pt_T0", "pt_T1", "pt_T2", "pt_T3", "pt_T4", "pt_T5"];
    /// When `pt_T0` fires it (re-)arms `pt_T1` this far past its deadline.
    const REARM_MS: u64 = 7;

    fn machine(name: &str) -> Arc<MachineDef> {
        let mut def = MachineDef::new(name);
        let s = def.add_state("S");
        def.add_transition(s, "arm", s).action(|ctx| {
            let timer = ctx.event.sym_arg("timer").unwrap();
            ctx.set_timer(timer, ctx.event.uint_arg("delay").unwrap());
        });
        def.add_transition(s, "cancel", s).action(|ctx| {
            let timer = ctx.event.sym_arg("timer").unwrap();
            ctx.cancel_timer(timer);
        });
        def.add_transition(s, TIMERS[0], s)
            .action(|ctx| ctx.set_timer(TIMERS[1], REARM_MS));
        for timer in &TIMERS[1..] {
            def.add_transition(s, *timer, s);
        }
        Arc::new(def.build().unwrap())
    }

    /// `(fired at, machine index, timer)` for every timer transition.
    #[derive(Default)]
    struct Fired(Vec<(u64, usize, Sym)>);

    impl TransitionObserver for Fired {
        fn on_transition(
            &mut self,
            time_ms: u64,
            machine: Sym,
            event: Sym,
            _: Sym,
            _: Sym,
            _: Option<Sym>,
        ) {
            let machine = MACHINES.iter().position(|m| machine == *m).unwrap();
            self.0.push((time_ms, machine, event));
        }
    }

    #[derive(Default)]
    struct Model {
        timers: [BTreeMap<Sym, u64>; 3],
    }

    impl Model {
        fn advance(&mut self, now_ms: u64) -> Vec<(u64, usize, Sym)> {
            let mut fired = Vec::new();
            loop {
                let mut due: Option<(usize, Sym, u64)> = None;
                for (i, timers) in self.timers.iter().enumerate() {
                    for (name, deadline) in timers {
                        if *deadline <= now_ms && due.is_none_or(|(_, _, best)| *deadline < best) {
                            due = Some((i, *name, *deadline));
                        }
                    }
                }
                let Some((machine, name, deadline)) = due else {
                    return fired;
                };
                self.timers[machine].remove(&name);
                fired.push((deadline, machine, name));
                if name == TIMERS[0] {
                    self.timers[machine].insert(Sym::intern(TIMERS[1]), deadline + REARM_MS);
                }
            }
        }

        fn next_deadline(&self) -> Option<u64> {
            self.timers.iter().flat_map(|t| t.values()).min().copied()
        }
    }

    proptest! {
        #[test]
        fn inline_timers_fire_in_the_reference_order(
            ops in proptest::collection::vec((0u8..4, 0usize..3, 0usize..6, 0u64..40), 0..80)
        ) {
            let mut net = Network::new();
            let ids: Vec<_> = MACHINES.iter().map(|m| net.add_machine(machine(m))).collect();
            let mut model = Model::default();
            let mut now = 0u64;
            for (kind, m, t, amount) in ops {
                let timer = Sym::intern(TIMERS[t]);
                match kind {
                    0 | 1 => {
                        // Small delays on a slow clock: ties are common.
                        let arm = Event::data("arm").with_sym("timer", timer).with_uint("delay", amount / 4);
                        net.deliver(ids[m], arm, now);
                        model.timers[m].insert(timer, now + amount / 4);
                    }
                    2 => {
                        net.deliver(ids[m], Event::data("cancel").with_sym("timer", timer), now);
                        model.timers[m].remove(&timer);
                    }
                    _ => {
                        now += amount / 2;
                        let mut fired = Fired::default();
                        net.advance_time_observed(now, &mut fired);
                        prop_assert_eq!(fired.0, model.advance(now));
                    }
                }
                prop_assert_eq!(net.next_timer_deadline(), model.next_deadline());
            }
            // Flush: everything still armed fires, in order, and nothing is left.
            let mut fired = Fired::default();
            net.advance_time_observed(u64::MAX / 2, &mut fired);
            prop_assert_eq!(fired.0, model.advance(u64::MAX / 2));
            prop_assert_eq!(net.next_timer_deadline(), None);
        }
    }
}
