//! Property-based tests over the protocol substrates and the EFSM engine.

use proptest::prelude::*;

use vids::efsm::machine::MachineDef;
use vids::efsm::{Event, SoloNetwork, Var};
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
        let n: Var<u64> = def.local("n");
        let s = def.add_state("S");
        def.add_transition(s, "a", s).action(move |ctx| { ctx.increment(n); });
        def.add_transition(s, "b", s);
        def.set_unmatched_policy(vids::efsm::machine::UnmatchedPolicy::Ignore);
        let mut m = SoloNetwork::new(std::sync::Arc::new(def.build().unwrap()));
        let mut expected = 0u64;
        for e in &events {
            let name = ["a", "b", "c"][*e as usize];
            m.deliver_observed(Event::data(name), 0, &mut vids::efsm::NoopObserver);
            if *e == 0 { expected += 1; }
        }
        prop_assert_eq!(m.locals().uint("n").unwrap_or(0), expected);
    }

    /// The bytes decide, not the tag: on a SIP and on a media port pair,
    /// the same bytes tagged `Rtp`, `Raw` or (when UTF-8) `Sip` classify
    /// alike, and as the wire path classifies the same datagram.
    #[test]
    fn classifier_never_panics_on_random_payloads(sip in ".{0,200}", rtp in proptest::collection::vec(any::<u8>(), 0..100)) {
        use vids::core::classify::classify;
        use vids::ingest::datagram::Datagram;
        use vids::ingest::demux::classify_datagram;
        use vids::netsim::packet::{Address, Packet, Payload};
        use vids::netsim::time::SimTime;
        let ends = [(5060, 5060), (20_000, 30_000)];
        for bytes in [sip.clone().into_bytes(), rtp.clone()] {
            for (sport, dport) in ends {
                let src = Address::new(10, 0, 0, 1, sport);
                let dst = Address::new(10, 2, 0, 1, dport);
                let classified = |payload| {
                    classify(&Packet { src, dst, payload, id: 0, sent_at: SimTime::ZERO })
                };
                let wire = Datagram {
                    src: src.to_string().parse().unwrap(),
                    dst: dst.to_string().parse().unwrap(),
                    at: SimTime::ZERO,
                    payload: &bytes,
                };
                let want = classify_datagram(&wire).1;
                prop_assert_eq!(&classified(Payload::Rtp(bytes.clone())), &want);
                prop_assert_eq!(&classified(Payload::Raw(bytes.clone())), &want);
                if let Ok(text) = String::from_utf8(bytes.clone()) {
                    prop_assert_eq!(&classified(Payload::Sip(text)), &want);
                }
            }
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
        let mut raised = vids::core::CollectSink::new();
        let mut step = |vids: &mut Vids, src: Address, dst: Address, payload: Payload| {
            t += 20;
            vids.process(
                &Packet {
                    src,
                    dst,
                    payload,
                    id: t,
                    sent_at: SimTime::ZERO,
                },
                SimTime::from_millis(t),
                &mut raised,
            );
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
        vids.tick(SimTime::from_secs(60), &mut raised);
        vids.tick(SimTime::from_secs(120), &mut raised);
        raised.into_alerts()
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

/// Model test for an event's argument vector: random sets and reads over
/// the SIP schema's declared arguments — by handle and by name — must agree
/// with a `BTreeMap` keyed by symbol id, an argument never set must read
/// as absent, and `Display` must be that map rendered in ascending
/// symbol-id order: the text deviation alerts, their deduplication and
/// `.vdump` ALRT sections carry.
mod event_args_model {
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use vids::core::machines::SipArgs;
    use vids::efsm::{Fingerprint, Sym, Value, VarKind};

    proptest! {
        #[test]
        fn event_args_match_btreemap_model(
            ops in proptest::collection::vec((0u8..3, 0usize..16, any::<u64>()), 0..60)
        ) {
            let schema = SipArgs::schema();
            let declared: Vec<(Sym, VarKind)> = schema.iter().collect();
            prop_assert_eq!(declared.len(), 16);
            let mut event = SipArgs::event("SIP.INVITE");
            let mut model: BTreeMap<u32, (Sym, Value)> = BTreeMap::new();
            for (op, slot, raw) in ops {
                let (name, kind) = declared[slot];
                match op {
                    0 | 1 => {
                        let value = match kind {
                            VarKind::Uint => Value::Uint(raw),
                            VarKind::Int => Value::Int(raw as i64),
                            VarKind::Bool => Value::Bool(raw % 2 == 0),
                            VarKind::Sym => Value::from(format!("ea-{}", raw % 40)),
                            VarKind::Ip => Value::Ip((raw as u32).into()),
                            VarKind::Fingerprint => {
                                Value::from(Fingerprint::of(&format!("ea-{}", raw % 40)))
                            }
                        };
                        event = event.with_named(name.as_str(), value);
                        model.insert(name.id(), (name, value));
                    }
                    _ => {
                        let want = model.get(&name.id()).map(|&(_, v)| v);
                        prop_assert_eq!(event.args().get(name), want);
                    }
                }
                prop_assert_eq!(event.args().len(), model.len());
            }
            // Typed handles read the same words as names.
            let a = SipArgs::get();
            let sym_of = |name: Sym| model.get(&name.id()).and_then(|(_, v)| v.as_sym());
            let uint_of = |name: Sym| model.get(&name.id()).and_then(|(_, v)| v.as_uint());
            prop_assert_eq!(event.get(a.call_id), sym_of(Sym::intern("call_id")));
            prop_assert_eq!(event.get(a.sdp_port), uint_of(Sym::intern("sdp_port")));
            prop_assert_eq!(
                event.get(a.has_sdp),
                model.get(&Sym::intern("has_sdp").id()).and_then(|(_, v)| v.as_bool())
            );
            for (name, _) in &declared {
                if !model.contains_key(&name.id()) {
                    prop_assert_eq!(event.args().get(*name), None);
                }
            }
            let rendered: Vec<String> = model.values().map(|(k, v)| format!("{k}={v}")).collect();
            prop_assert_eq!(
                event.to_string(),
                format!("data?SIP.INVITE({})", rendered.join(", "))
            );
        }
    }
}

/// Model test for the tentpole data structure: a network's frame. Two
/// machines share four globals and declare up to nine locals each, so the
/// frame stays inline for some cases and spills for others; random set,
/// remove, increment and get through the declared handles must agree with
/// a `BTreeMap` keyed by name, and the forensic snapshot — rendered from
/// the schemas — must be that map sorted by name.
mod frame_model {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use std::sync::LazyLock;

    use proptest::prelude::*;
    use vids::core::snapshot::CallSnapshot;
    use vids::efsm::{Arg, Event, MachineDef, Network, Schema, Var};

    const GLOBALS: usize = 4;

    /// The `slot` and `value` arguments of the model's events.
    static ARGS: LazyLock<(Schema, Arg<u64>, Arg<u64>)> = LazyLock::new(|| {
        let mut args = Schema::args();
        let slot = args.arg("fm_slot");
        let value = args.arg("fm_value");
        (args, slot, value)
    });

    /// A one-state machine whose `set`/`remove`/`inc` events apply to the
    /// variable at index `slot` of its locals followed by the globals.
    fn machine(
        name: &str,
        locals: usize,
        globals: &Arc<Schema>,
        shared: &[Var<u64>],
    ) -> (Arc<MachineDef>, Vec<Var<u64>>) {
        let mut def = MachineDef::new(name);
        def.share_globals(globals);
        def.reads(&ARGS.0);
        let (arg_slot, arg_value) = (ARGS.1, ARGS.2);
        let mut vars: Vec<Var<u64>> = (0..locals)
            .map(|i| def.local(format!("{name}_l{i}")))
            .collect();
        vars.extend_from_slice(shared);
        let s = def.add_state("S");
        let slot = move |ctx: &vids::efsm::machine::ActionCtx<'_>| {
            ctx.event.get(arg_slot).unwrap() as usize
        };
        let v = vars.clone();
        def.add_transition(s, "set", s).action(move |ctx| {
            let value = ctx.event.get(arg_value).unwrap();
            ctx.set(v[slot(ctx)], value);
        });
        let v = vars.clone();
        def.add_transition(s, "remove", s).action(move |ctx| {
            ctx.remove(v[slot(ctx)]);
        });
        let v = vars.clone();
        def.add_transition(s, "inc", s).action(move |ctx| {
            ctx.increment(v[slot(ctx)]);
        });
        (Arc::new(def.build().unwrap()), vars)
    }

    fn name_of(machine: &str, locals: usize, slot: usize) -> String {
        if slot < locals {
            format!("{machine}_l{slot}")
        } else {
            format!("fm_g{}", slot - locals)
        }
    }

    proptest! {
        #[test]
        fn frame_matches_btreemap_model(
            locals in (0usize..10, 0usize..10),
            ops in proptest::collection::vec((0u8..4, 0usize..2, 0usize..13, any::<u32>()), 0..120)
        ) {
            let mut schema = Schema::globals();
            let shared: Vec<Var<u64>> = (0..GLOBALS).map(|i| schema.declare(format!("fm_g{i}"))).collect();
            let schema = Arc::new(schema);
            let names = ["fm_a", "fm_b"];
            let counts = [locals.0, locals.1];
            let mut net = Network::new();
            let mut ids = Vec::new();
            let mut handles = Vec::new();
            for (name, count) in names.iter().zip(counts) {
                let (def, vars) = machine(name, count, &schema, &shared);
                ids.push(net.add_machine(def));
                handles.push(vars);
            }
            let mut model: BTreeMap<String, u64> = BTreeMap::new();
            for (kind, m, slot, value) in ops {
                let slot = slot % (counts[m] + GLOBALS);
                let name = name_of(names[m], counts[m], slot);
                let event = |op: &str| Event::new(op, &ARGS.0).with(ARGS.1, slot as u64);
                match kind {
                    0 => {
                        net.deliver(ids[m], event("set").with(ARGS.2, value as u64), 0);
                        model.insert(name.clone(), value as u64);
                    }
                    1 => {
                        net.deliver(ids[m], event("remove"), 0);
                        model.remove(&name);
                    }
                    2 => {
                        net.deliver(ids[m], event("inc"), 0);
                        *model.entry(name.clone()).or_insert(0) += 1;
                    }
                    _ => {}
                }
                prop_assert_eq!(net.get(ids[m], handles[m][slot]), model.get(&name).copied());
            }
            let render = |prefix: &str| -> Vec<(String, String)> {
                model
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .map(|(k, v)| (k.clone(), v.to_string()))
                    .collect()
            };
            let snap = CallSnapshot::of_network("frame-model", &net);
            prop_assert_eq!(&snap.globals, &render("fm_g"));
            for (machine, name) in snap.machines.iter().zip(names) {
                prop_assert_eq!(&machine.locals, &render(&format!("{name}_l")));
            }
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

    use std::sync::LazyLock;

    use proptest::prelude::*;
    use vids::efsm::{Arg, Event, MachineDef, Network, Schema, Sym, TransitionObserver};

    const MACHINES: [&str; 3] = ["pm0", "pm1", "pm2"];
    const TIMERS: [&str; 6] = ["pt_T0", "pt_T1", "pt_T2", "pt_T3", "pt_T4", "pt_T5"];
    /// When `pt_T0` fires it (re-)arms `pt_T1` this far past its deadline.
    const REARM_MS: u64 = 7;

    /// The `timer` and `delay` arguments of `arm` and `cancel`.
    static ARGS: LazyLock<(Schema, Arg<Sym>, Arg<u64>)> = LazyLock::new(|| {
        let mut args = Schema::args();
        let timer = args.arg("pt_timer");
        let delay = args.arg("pt_delay");
        (args, timer, delay)
    });

    fn machine(name: &str) -> Arc<MachineDef> {
        let (timer, delay) = (ARGS.1, ARGS.2);
        let mut def = MachineDef::new(name);
        def.reads(&ARGS.0);
        let s = def.add_state("S");
        def.add_transition(s, "arm", s).action(move |ctx| {
            let timer = ctx.event.get(timer).unwrap();
            ctx.set_timer(timer, ctx.event.get(delay).unwrap());
        });
        def.add_transition(s, "cancel", s).action(move |ctx| {
            let timer = ctx.event.get(timer).unwrap();
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
                        let arm = Event::new("arm", &ARGS.0)
                            .with(ARGS.1, timer)
                            .with(ARGS.2, amount / 4);
                        net.deliver(ids[m], arm, now);
                        model.timers[m].insert(timer, now + amount / 4);
                    }
                    2 => {
                        let cancel = Event::new("cancel", &ARGS.0).with(ARGS.1, timer);
                        net.deliver(ids[m], cancel, now);
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

/// An address is a value, and it renders as its quoted dotted quad: the
/// text alert details and `.vdump` ALRT sections carried for it when it was
/// an interned string. Checked for every address against text built from
/// the octets and against std's own rendering, and end to end against a
/// deviation alert's detail pinned from the engine that interned addresses.
mod address_rendering {
    use std::net::Ipv4Addr;

    use proptest::prelude::*;
    use vids::core::config::Config;
    use vids::core::engine::Vids;
    use vids::core::sink::CollectSink;
    use vids::efsm::Value;
    use vids::netsim::packet::{Address, Packet, Payload};
    use vids::netsim::time::SimTime;

    fn check(ip: u32) {
        let [a, b, c, d] = ip.to_be_bytes();
        let addr = Ipv4Addr::from(ip);
        let rendered = Value::Ip(addr).to_string();
        assert_eq!(rendered, format!("\"{a}.{b}.{c}.{d}\""));
        assert_eq!(rendered, format!("{:?}", addr.to_string()));
    }

    proptest! {
        #[test]
        fn an_address_renders_as_its_quoted_dotted_quad(ip in any::<u32>()) {
            check(ip);
        }
    }

    #[test]
    fn both_ends_and_every_octet_width_render_as_dotted_quads() {
        for octets in [
            [0, 0, 0, 0],
            [255, 255, 255, 255],
            [1, 20, 100, 109],
            [10, 0, 200, 9],
        ] {
            check(u32::from_be_bytes(octets));
        }
    }

    #[test]
    fn a_deviation_on_an_addressed_event_keeps_its_detail() {
        let caller = Address::new(10, 1, 0, 10, 5060);
        let callee = Address::new(192, 168, 200, 7, 5060);
        let body = "v=0\r\no=alice 1 1 IN IP4 10.1.0.10\r\ns=-\r\nc=IN IP4 10.1.0.10\r\n\
                    t=0 0\r\nm=audio 20000 RTP/AVP 18\r\n";
        let invite = format!(
            "INVITE sip:bob@b.example.com SIP/2.0\r\n\
             Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bK-dev\r\n\
             From: <sip:alice@a.example.com>;tag=dev-from\r\n\
             To: <sip:bob@b.example.com>\r\n\
             Call-ID: dev-call\r\n\
             CSeq: 1 INVITE\r\n\
             Content-Type: application/sdp\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        // A BYE while the INVITE is still unanswered: no transition takes it.
        let bye = "BYE sip:bob@b.example.com SIP/2.0\r\n\
                   Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bK-dev-bye\r\n\
                   From: <sip:alice@a.example.com>;tag=dev-from\r\n\
                   To: <sip:bob@b.example.com>;tag=dev-to\r\n\
                   Call-ID: dev-call\r\n\
                   CSeq: 2 BYE\r\n\
                   Content-Length: 0\r\n\r\n";
        let packet = |text: String| Packet {
            src: caller,
            dst: callee,
            payload: Payload::Sip(text),
            id: 0,
            sent_at: SimTime::ZERO,
        };
        let mut vids = Vids::new(Config::default());
        let mut sink = CollectSink::new();
        vids.process(&packet(invite), SimTime::from_millis(1), &mut sink);
        vids.process(&packet(bye.to_owned()), SimTime::from_millis(2), &mut sink);
        let [alert] = sink.alerts() else {
            panic!("one deviation: {:?}", sink.alerts());
        };
        assert_eq!(alert.label, "deviation:SIP.BYE");
        // Tags and the branch are keyed fingerprints: they render as `#`.
        assert_eq!(
            alert.detail.to_string(),
            "data?SIP.BYE(src_ip=\"10.1.0.10\", dst_ip=\"192.168.200.7\", \
             call_id=\"dev-call\", from_tag=#, to_tag=#, \
             branch=#, cseq=2, cseq_method=\"BYE\")"
        );
    }
}
