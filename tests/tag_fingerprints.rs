//! SIP tags and Via branches never reach the symbol table.
//!
//! The SIP machine only tests a dialog's tags and a transaction's branch for
//! equality, so the classifier hands it keyed fingerprints of them and
//! interns only what the engine keys on: the Call-ID and a REGISTER's
//! address-of-record. One complete call and one REGISTER, through a plain
//! engine and through a two-shard pool, must leave every tag and branch
//! text unknown to the interner and the Call-IDs and the AOR known. The
//! check is by lookup, not by counting symbols, so other tests interning
//! in the same process cannot disturb it.

use vids::core::{CollectSink, Config, CostModel, Vids, VidsPool};
use vids::efsm::Sym;
use vids::netsim::packet::{Address, Packet, Payload};
use vids::netsim::time::SimTime;

const CALLER: Address = Address::new(10, 1, 0, 10, 5060);
const CALLEE: Address = Address::new(10, 2, 0, 10, 5060);

/// The identifiers of one run's call and REGISTER, every one unique to the
/// run: `(Call-IDs and the AOR, tags and branches)`.
fn identifiers(run: &str) -> ([String; 3], [String; 7]) {
    (
        [
            format!("fp-{run}-call"),
            format!("fp-{run}-reg"),
            format!("fp-{run}-roamer@b.example.com"),
        ],
        [
            format!("fp-{run}-from-tag"),
            format!("fp-{run}-to-tag"),
            format!("z9hG4bK-fp-{run}-invite"),
            format!("z9hG4bK-fp-{run}-ack"),
            format!("z9hG4bK-fp-{run}-bye"),
            format!("fp-{run}-reg-tag"),
            format!("z9hG4bK-fp-{run}-reg"),
        ],
    )
}

fn message(
    start: &str,
    branch: &str,
    from_tag: &str,
    to_tag: &str,
    call_id: &str,
    cseq: &str,
) -> String {
    let to_tag = if to_tag.is_empty() {
        String::new()
    } else {
        format!(";tag={to_tag}")
    };
    format!(
        "{start}\r\n\
         Via: SIP/2.0/UDP 10.1.0.10:5060;branch={branch}\r\n\
         From: <sip:alice@a.example.com>;tag={from_tag}\r\n\
         To: <sip:bob@b.example.com>{to_tag}\r\n\
         Call-ID: {call_id}\r\n\
         CSeq: {cseq}\r\n\
         Content-Length: 0\r\n\r\n"
    )
}

/// INVITE, 180, 200, ACK, BYE and its 200, then a REGISTER: every message
/// with its own tags and branches.
fn traffic(run: &str) -> Vec<Packet> {
    let ([call, reg, aor], [from, to, b_inv, b_ack, b_bye, reg_tag, b_reg]) = identifiers(run);
    let invite = "INVITE sip:bob@b.example.com SIP/2.0";
    let bye = "BYE sip:bob@b.example.com SIP/2.0";
    let ack = "ACK sip:bob@b.example.com SIP/2.0";
    let sip = |src, dst, text: String| Packet {
        src,
        dst,
        payload: Payload::Sip(text),
        id: 0,
        sent_at: SimTime::ZERO,
    };
    let (user, host) = aor.split_once('@').expect("user@host");
    let register = format!(
        "REGISTER sip:{host} SIP/2.0\r\n\
         Via: SIP/2.0/UDP 10.1.0.20:5060;branch={b_reg}\r\n\
         From: <sip:{aor}>;tag={reg_tag}\r\n\
         To: <sip:{user}@{host}>\r\n\
         Call-ID: {reg}\r\n\
         CSeq: 1 REGISTER\r\n\
         Contact: <sip:{user}@10.1.0.20>\r\n\
         Expires: 600\r\n\
         Content-Length: 0\r\n\r\n"
    );
    vec![
        sip(
            CALLER,
            CALLEE,
            message(invite, &b_inv, &from, "", &call, "1 INVITE"),
        ),
        sip(
            CALLEE,
            CALLER,
            message("SIP/2.0 180 Ringing", &b_inv, &from, &to, &call, "1 INVITE"),
        ),
        sip(
            CALLEE,
            CALLER,
            message("SIP/2.0 200 OK", &b_inv, &from, &to, &call, "1 INVITE"),
        ),
        sip(
            CALLER,
            CALLEE,
            message(ack, &b_ack, &from, &to, &call, "1 ACK"),
        ),
        sip(
            CALLER,
            CALLEE,
            message(bye, &b_bye, &from, &to, &call, "2 BYE"),
        ),
        sip(
            CALLEE,
            CALLER,
            message("SIP/2.0 200 OK", &b_bye, &from, &to, &call, "2 BYE"),
        ),
        sip(Address::new(10, 1, 0, 20, 5060), CALLEE, register),
    ]
}

fn assert_only_keys_are_symbols(run: &str) {
    let (keys, compared) = identifiers(run);
    for text in &keys {
        assert!(
            Sym::lookup(text).is_some(),
            "{run}: {text} is a key, so a symbol"
        );
    }
    for text in &compared {
        assert_eq!(Sym::lookup(text), None, "{run}: {text} is only compared");
    }
}

#[test]
fn a_plain_engine_interns_no_tag_or_branch() {
    let mut vids = Vids::new(Config::default());
    let mut sink = CollectSink::new();
    for (t, packet) in traffic("plain").iter().enumerate() {
        vids.process(packet, SimTime::from_millis(10 * t as u64), &mut sink);
    }
    assert!(
        sink.alerts().is_empty(),
        "a clean call: {:?}",
        sink.alerts()
    );
    assert_eq!(vids.counters().malformed, 0);
    assert_only_keys_are_symbols("plain");
}

#[test]
fn a_two_shard_pool_interns_no_tag_or_branch() {
    let config = Config::builder().shards(2).build().unwrap();
    let mut pool = VidsPool::with_cost(config, CostModel::free());
    let mut sink = CollectSink::new();
    for (t, packet) in traffic("pool").iter().enumerate() {
        pool.process_batch(
            std::slice::from_ref(packet),
            SimTime::from_millis(10 * t as u64),
            &mut sink,
        );
    }
    pool.tick(SimTime::from_secs(30), &mut sink);
    assert!(
        sink.alerts().is_empty(),
        "a clean call: {:?}",
        sink.alerts()
    );
    assert_eq!(pool.counters().malformed, 0);
    assert_only_keys_are_symbols("pool");
}
