//! Framing and admission fuzz for the serving tier's connection layer:
//! arbitrary byte streams, split into arbitrary reads, through
//! `net::Framer` and `wire::admit` — the path every daemon and router
//! connection runs before a request reaches serving.
//!
//! The bar: never panic; every complete, non-blank line yields exactly
//! one parsed request or one typed error reply; and how the stream is
//! split into reads never changes the result. The streams mix
//! well-formed requests with oversize lines, truncated JSON,
//! wrong-typed fields, requests from a future protocol version, raw
//! binary and escape-heavy strings.

use bpmf::serve::net::{Framer, ReadEnd, MAX_LINE};
use bpmf::serve::wire::{self, Request, Response};
use proptest::prelude::*;

/// What admission made of one line.
type Admitted = Result<Request, Response>;

/// Feed `stream` through a fresh framer in reads of the sizes in `cuts`
/// (cycled), admitting every line the framer hands out.
fn run(stream: &[u8], cuts: &[usize]) -> (Vec<Admitted>, Option<ReadEnd>) {
    let mut framer = Framer::default();
    let mut admitted = Vec::new();
    let mut rest = stream;
    let mut sizes = cuts.iter().cycle();
    while !rest.is_empty() {
        let n = (*sizes.next().expect("at least one cut")).clamp(1, rest.len());
        let (read, tail) = rest.split_at(n);
        rest = tail;
        let end = framer.feed(read, |line| {
            admitted.push(wire::admit(line, wire::ROLE_DAEMON));
            true
        });
        if end.is_some() {
            return (admitted, end);
        }
    }
    (admitted, None)
}

/// Counted straight off the bytes, independently of the framer: the
/// complete, non-blank lines before the first oversize one (each owes
/// exactly one admission outcome), and whether an oversize line — complete
/// or still unterminated — ends the stream.
fn owed(stream: &[u8]) -> (usize, bool) {
    let segments: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
    let (complete, tail) = segments.split_at(segments.len() - 1);
    let mut lines = 0;
    for line in complete {
        if line.len() > MAX_LINE {
            return (lines, true);
        }
        if !String::from_utf8_lossy(line).trim().is_empty() {
            lines += 1;
        }
    }
    (lines, tail[0].len() > MAX_LINE)
}

const POLICIES: [&str; 5] = ["", "mean", "ucb:0.5", "thompson:7", "argmax"];

const COMMANDS: [&str; 8] = [
    wire::CMD_PING,
    wire::CMD_HEALTH,
    wire::CMD_STATS,
    wire::CMD_SHUTDOWN,
    wire::CMD_RELOAD,
    wire::CMD_FOLD_IN,
    "",
    "reboot",
];

/// Syntactically valid JSON that does not fit a request's field types.
const WRONG_TYPED: [&str; 12] = [
    "{\"user\":\"forty-two\"}",
    "{\"id\":-1,\"user\":3}",
    "{\"top_n\":1.5}",
    "{\"user\":4294967296}",
    "{\"exclude_seen\":3}",
    "{\"ratings\":{\"item\":1}}",
    "{\"ratings\":[{\"item\":1,\"rating\":\"high\"}]}",
    "{\"v\":-1}",
    "{\"cmd\":7}",
    "[1,2,3]",
    "null",
    "\"just a string\"",
];

/// Escapes, surrogates, duplicates and extreme numbers.
const AWKWARD: [&str; 8] = [
    "{\"policy\":\"\\ud83d\\ude00\",\"user\":1}",
    "{\"cmd\":\"\\ud800\"}",
    "{\"cmd\":\"\\udc00\\u0041\"}",
    "{\"path\":\"\\u00zz\"}",
    "{\"user\":1,\"user\":2}",
    "{\"ratings\":[{\"item\":1,\"rating\":1e999}]}",
    "{\"id\":18446744073709551616}",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
];

/// splitmix64, for the bytes of a raw piece.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One line of a given kind, parameterized by `x`.
fn piece(kind: u8, x: u64) -> Vec<u8> {
    let id = x % 1000;
    let user = ((x >> 10) % 64) as u32;
    let text = match kind {
        0 => wire::encode(&Request {
            v: (x & 1) as u32,
            id,
            user: Some(user),
            top_n: (x >> 16) as usize % 20,
            policy: POLICIES[(x >> 20) as usize % POLICIES.len()].to_string(),
            exclude_seen: [None, Some(true), Some(false)][(x >> 24) as usize % 3],
            ..Request::default()
        }),
        1 => wire::encode(&Request {
            id,
            ..Request::command(COMMANDS[(x >> 28) as usize % COMMANDS.len()])
        }),
        2 => {
            let full = wire::encode(&Request::recommend(id, user));
            full[..(x >> 32) as usize % full.len()].to_string()
        }
        3 => WRONG_TYPED[(x >> 8) as usize % WRONG_TYPED.len()].to_string(),
        // A future version, some of them past `u32` itself.
        4 => format!("{{\"v\":{},\"id\":{id},\"user\":{user}}}", 2 + (x >> 8)),
        5 => {
            // Raw bytes, newlines and invalid UTF-8 included; no newline
            // of its own, so it runs into the next piece.
            return (0..(x % 48)).map(|i| mix(x, i) as u8).collect();
        }
        6 => " \t\r".repeat(x as usize % 3),
        _ => AWKWARD[(x >> 8) as usize % AWKWARD.len()].to_string(),
    };
    let mut line = text.into_bytes();
    line.push(b'\n');
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn framing_and_admission_are_typed_total_and_chunking_blind(
        pieces in collection::vec((0u8..8, any::<u64>()), 1..24),
        cuts in collection::vec(1usize..3000, 1..16),
        long in (0u8..6, any::<u32>()),
    ) {
        let mut stream: Vec<u8> = Vec::new();
        let at = long.1 as usize % pieces.len();
        for (i, &(kind, x)) in pieces.iter().enumerate() {
            if i == at {
                match long.0 {
                    // A complete line one byte past the limit.
                    0 => stream.extend(std::iter::repeat_n(b'x', MAX_LINE + 1).chain([b'\n'])),
                    // A line exactly at the limit is still answered.
                    1 => stream.extend(std::iter::repeat_n(b' ', MAX_LINE - 1).chain(*b"{\n")),
                    _ => {}
                }
            }
            stream.extend(piece(kind, x));
        }
        if long.0 == 2 {
            // An unterminated oversize tail.
            stream.extend(std::iter::repeat_n(b'{', MAX_LINE + 1));
        }

        let whole = run(&stream, &[stream.len().max(1)]);
        let (lines, oversize) = owed(&stream);
        prop_assert_eq!(whole.0.len(), lines, "one outcome per complete line");
        prop_assert_eq!(whole.1, oversize.then_some(ReadEnd::Oversize));
        for outcome in &whole.0 {
            match outcome {
                Ok(req) => prop_assert!(req.v <= wire::WIRE_VERSION, "{req:?}"),
                Err(reply) => {
                    prop_assert!(reply.error.is_some(), "{reply:?}");
                    prop_assert!(reply.items.is_empty());
                    prop_assert!(
                        matches!(
                            reply.code.as_deref(),
                            Some(wire::CODE_BAD_REQUEST | wire::CODE_UNSUPPORTED_VERSION)
                        ),
                        "{reply:?}"
                    );
                }
            }
        }
        prop_assert_eq!(run(&stream, &cuts), whole, "chunking changed the result");
        if stream.len() < 1 << 16 {
            prop_assert_eq!(run(&stream, &[1]), whole, "byte-at-a-time changed the result");
        }
    }

    #[test]
    fn encoded_requests_parse_identically_under_any_chunking(
        reqs in collection::vec(
            (any::<u64>(), 0u32..1000, 0usize..50, 0usize..5, 0usize..3, 0u32..=1),
            1..32,
        ),
        cuts in collection::vec(1usize..200, 1..16),
    ) {
        let sent: Vec<Request> = reqs
            .iter()
            .map(|&(id, user, top_n, policy, exclude, v)| Request {
                v,
                id,
                user: Some(user),
                top_n,
                policy: POLICIES[policy].to_string(),
                exclude_seen: [None, Some(true), Some(false)][exclude],
                ..Request::default()
            })
            .collect();
        let stream: Vec<u8> = sent
            .iter()
            .flat_map(|req| format!("{}\n", wire::encode(req)).into_bytes())
            .collect();
        let (admitted, end) = run(&stream, &cuts);
        prop_assert_eq!(end, None);
        let parsed: Vec<Request> = admitted.into_iter().map(|a| a.expect("admitted")).collect();
        prop_assert_eq!(parsed, sent);
    }
}
