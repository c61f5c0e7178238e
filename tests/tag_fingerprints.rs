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

use vids::efsm::Sym;
use vids::netsim::packet::{Address, Payload};
use vids_harness::matrix::{plain, pool, run, Placement};
use vids_harness::traffic::{pkt, Trace};

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

/// INVITE, 180, 200, ACK, BYE and its 200, then a REGISTER, 10 ms apart:
/// every message with its own tags and branches.
fn traffic(run: &str) -> Trace {
    let ([call, reg, aor], [from, to, b_inv, b_ack, b_bye, reg_tag, b_reg]) = identifiers(run);
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
    let (forward, back) = ((CALLER, CALLEE), (CALLEE, CALLER));
    let request = |method| format!("{method} sip:bob@b.example.com SIP/2.0");
    let (invite, ack, bye) = (request("INVITE"), request("ACK"), request("BYE"));
    let (ringing, ok) = ("SIP/2.0 180 Ringing", "SIP/2.0 200 OK");
    let in_call = |start, branch, to, cseq| message(start, branch, &from, to, &call, cseq);
    let messages = [
        (forward, in_call(&invite, &b_inv, "", "1 INVITE")),
        (back, in_call(ringing, &b_inv, &to, "1 INVITE")),
        (back, in_call(ok, &b_inv, &to, "1 INVITE")),
        (forward, in_call(&ack, &b_ack, &to, "1 ACK")),
        (forward, in_call(&bye, &b_bye, &to, "2 BYE")),
        (back, in_call(ok, &b_bye, &to, "2 BYE")),
        ((Address::new(10, 1, 0, 20, 5060), CALLEE), register),
    ];
    let timed = messages.into_iter().zip(0..);
    let packet = |(((src, dst), text), t): (_, u64)| pkt(src, dst, Payload::Sip(text), 10 * t);
    timed.map(packet).collect()
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

/// The run's traffic through one placement: a clean call and a
/// registration raise nothing, and only their keys are symbols.
fn interns_only_keys(run_name: &str, placement: Placement) {
    let out = run(&traffic(run_name), 1, &placement);
    assert!(out.alerts.is_empty(), "a clean call: {:?}", out.alerts);
    assert_eq!(out.counters.malformed, 0);
    assert_only_keys_are_symbols(run_name);
}

#[test]
fn a_plain_engine_interns_no_tag_or_branch() {
    interns_only_keys("plain", plain());
}

#[test]
fn a_two_shard_pool_interns_no_tag_or_branch() {
    interns_only_keys("pool", pool(2));
}
