//! Property tests of the one input parser behind both front ends:
//! arbitrary text fed to `query::parse_uint`, to `QueryParams::set`
//! through `Args::parse`, and to the daemon's query-string and body
//! paths always comes back as `Ok` or a structured error, never a
//! panic — and a value either front end rejects gets the same message
//! from the other.

use apx_cache::Cache;
use apx_cli::args::Args;
use apx_core::query::{self, QueryParams};
use apx_engine::Engine;
use apx_serve::{Server, ServerConfig};
use proptest::prelude::*;
use proptest::TestRng;
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The six shared query parameters.
const PARAMS: [&str; 6] = ["samples", "vectors", "seed", "size", "sets", "points"];

/// Arbitrary text shaped like a number about half the time: decimal
/// digits, `0x`-hex digits, or a free mix that adds signs, blanks, dots,
/// quotes, escapes, control and multi-byte characters. Up to 24
/// characters, so decimal text overflows a `u64` now and then.
struct Text;

impl Strategy for Text {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        const MIXED: &[char] = &[
            '0', '1', '9', 'a', 'F', 'x', 'X', '+', '-', ' ', '.', '%', '&', '=', '"', '\\', '{',
            '\0', '\n', 'é', '😀',
        ];
        let (prefix, alphabet): (&str, &[char]) = match rng.next_u64() % 3 {
            0 => ("", &['0', '1', '2', '3', '4', '5', '6', '7', '8', '9']),
            1 => ("0x", &['0', '7', 'a', 'B', 'f', 'F']),
            _ => ("", MIXED),
        };
        let len = (rng.next_u64() % 25) as usize;
        let mut text = prefix.to_owned();
        for _ in 0..len {
            text.push(alphabet[(rng.next_u64() % alphabet.len() as u64) as usize]);
        }
        text
    }
}

fn error_body(message: &str) -> String {
    let error = Value::Object(vec![(
        "error".to_owned(),
        Value::String(message.to_owned()),
    )]);
    serde_json::to_string(&error).expect("JSON rendering is infallible") + "\n"
}

fn percent_encode(text: &str) -> String {
    text.bytes().map(|b| format!("%{b:02X}")).collect()
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("daemon accepts connections");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("daemon responds");
    let text = String::from_utf8(raw).expect("responses are UTF-8");
    let (head, payload) = text.split_once("\r\n\r\n").expect("full response");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, payload.to_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse_uint` accepts exactly the decimal and `0x`-hex renderings
    /// of a `u64`, and names the input in every rejection.
    #[test]
    fn parse_uint_is_total(text in Text) {
        match query::parse_uint("--seed", &text) {
            Ok(n) => prop_assert!(
                text.parse::<u64>() == Ok(n)
                    || text.strip_prefix("0x").or_else(|| text.strip_prefix("0X"))
                        .and_then(|hex| u64::from_str_radix(hex, 16).ok()) == Some(n),
                "{text:?} -> {n}"
            ),
            Err(message) => prop_assert_eq!(message, format!("--seed: `{text}` is not an integer")),
        }
    }

    /// Every numeric flag of the CLI parses or fails cleanly, and the six
    /// shared ones are exactly `QueryParams::set`.
    #[test]
    fn cli_numeric_flags_are_total(
        flag in sample::select(vec![
            "samples", "vectors", "seed", "size", "sets", "points",
            "threads", "queue", "max-bytes", "cache-capacity",
        ]),
        text in Text,
    ) {
        let argv = vec![format!("--{flag}"), text.clone()];
        let parsed = Args::parse(&argv, &[flag], 0);
        if PARAMS.contains(&flag) {
            let mut params = QueryParams::default();
            match (params.set(flag, &text), parsed) {
                (Ok(known), Ok(args)) => {
                    prop_assert!(known);
                    prop_assert_eq!(args.params, params);
                }
                (Err(expected), Err(message)) => prop_assert_eq!(message, expected),
                (set, parsed) => panic!("--{flag} {text:?}: set {set:?}, Args {:?}", parsed.map(|a| a.params)),
            }
        }
    }
}

/// The daemon's query-string and body paths answer arbitrary values with
/// a structured `400`: the CLI's message when the value is malformed,
/// and otherwise the request's next error. No request here is valid, so
/// nothing is characterized and no job is queued.
#[test]
fn serve_parameter_paths_are_total() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache: Cache::default(),
        engine: Engine::new(1),
        ..ServerConfig::default()
    })
    .expect("ephemeral bind succeeds");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    let mut rng = TestRng::new(proptest::seed_for("serve_parameter_paths_are_total"));
    for _ in 0..256 {
        let key = sample::select(PARAMS.to_vec()).sample(&mut rng);
        let text = Text.sample(&mut rng);
        let rejected = QueryParams::default().set(key, &text).err();

        if ["samples", "vectors", "seed"].contains(&key) {
            let path = format!("/report/NOPE?{key}={}", percent_encode(&text));
            let (status, body) = request(addr, "GET", &path, "");
            assert_eq!(status, 400, "{path}: {body}");
            match &rejected {
                Some(message) => assert_eq!(body, error_body(message), "{path}"),
                None => assert!(body.contains("invalid operator"), "{path}: {body}"),
            }
        }

        // as a JSON string, as raw JSON text, and as the whole body; a
        // pareto body without a workload is never enqueued
        let quoted = serde_json::to_string(&Value::String(text.clone())).unwrap();
        let (status, reply) = request(addr, "POST", "/pareto", &format!("{{\"{key}\":{quoted}}}"));
        assert_eq!(status, 400, "{key}={text:?}: {reply}");
        match &rejected {
            Some(message) => assert_eq!(reply, error_body(message), "{key}={text:?}"),
            None => assert!(
                reply.contains("needs a `workload`"),
                "{key}={text:?}: {reply}"
            ),
        }
        for body in [format!("{{\"{key}\":{text}}}"), text] {
            let (status, reply) = request(addr, "POST", "/pareto", &body);
            assert_eq!(status, 400, "{body:?}: {reply}");
            assert!(reply.starts_with("{\"error\":"), "{body:?}: {reply}");
        }
    }

    let (_, stats) = request(addr, "GET", "/stats", "");
    assert!(stats.contains("\"queued\": 0"), "{stats}");
    assert!(stats.contains("\"done\": 0"), "{stats}");
    assert!(stats.contains("\"failed\": 0"), "{stats}");
    handle.request_shutdown();
    thread.join().expect("server thread exits cleanly");
}
