//! Black-box tests of `apxperf serve` as a real subprocess: ephemeral
//! `--addr 127.0.0.1:0` binding with `--port-file` discovery, response
//! bodies byte-identical to the CLI's stdout, and graceful shutdown —
//! both via `POST /shutdown` and via a real SIGTERM — exiting 0.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn apxperf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_apxperf"))
}

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("apxperf_srv_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir is creatable");
        TempDir(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp path is UTF-8")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The daemon subprocess; killed on drop so a failing test never leaks
/// a listener.
struct DaemonProcess {
    child: Child,
    addr: SocketAddr,
}

impl DaemonProcess {
    fn start(tmp: &TempDir) -> DaemonProcess {
        let port_file = tmp.0.join("port");
        let child = apxperf()
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--port-file",
                port_file.to_str().unwrap(),
                "--samples",
                "800",
                "--vectors",
                "40",
                "--cache-dir",
                &format!("{}/cache", tmp.path()),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("apxperf serve must spawn");
        // the port file appears atomically once the socket is bound
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                break text.trim().parse().expect("port file holds HOST:PORT");
            }
            assert!(Instant::now() < deadline, "port file never appeared");
            std::thread::sleep(Duration::from_millis(10));
        };
        DaemonProcess { child, addr }
    }

    /// Waits for a clean exit, returning (exit-ok, stdout).
    fn wait(mut self, deadline: Duration) -> (bool, String) {
        let start = Instant::now();
        loop {
            match self.child.try_wait().expect("try_wait works") {
                Some(status) => {
                    let mut stdout = String::new();
                    if let Some(mut pipe) = self.child.stdout.take() {
                        pipe.read_to_string(&mut stdout).ok();
                    }
                    return (status.success(), stdout);
                }
                None => {
                    assert!(
                        start.elapsed() < deadline,
                        "daemon did not exit within {deadline:?}"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn request(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
    request_with_body(addr, method, path, "")
}

fn request_with_body(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("daemon accepts connections");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("daemon responds");
    let text = String::from_utf8(raw).expect("responses are UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("full response");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_owned())
}

#[test]
fn served_reports_match_the_cli_stdout_and_shutdown_exits_zero() {
    let tmp = TempDir::new("bytes");
    let daemon = DaemonProcess::start(&tmp);

    // the exact stdout of the equivalent CLI invocation (fresh cache
    // directory so both sides compute cold)
    let cli = apxperf()
        .args([
            "report",
            "ADDt(16,12)",
            "--samples",
            "800",
            "--vectors",
            "40",
            "--no-cache",
        ])
        .output()
        .expect("apxperf report runs");
    assert!(cli.status.success(), "{cli:?}");

    let (status, body) = request(daemon.addr, "GET", "/report/ADDt(16,12)");
    assert_eq!(status, 200);
    assert_eq!(
        body.as_bytes(),
        &cli.stdout[..],
        "served body must be byte-identical to the CLI stdout"
    );

    // an input the CLI rejects is a 400 at submission carrying the CLI's
    // message, not an accepted job that fails later
    for (path, body, flags) in [
        (
            "/sweep",
            r#"{"workload":"jpeg","size":7}"#,
            ["sweep", "--workload", "jpeg", "--size", "7"],
        ),
        (
            "/pareto",
            r#"{"workload":"kmeans","sets":0}"#,
            ["pareto", "--workload", "kmeans", "--sets", "0"],
        ),
    ] {
        let cli = apxperf()
            .args(flags)
            .arg("--no-cache")
            .output()
            .expect("apxperf runs");
        assert_eq!(cli.status.code(), Some(1), "{cli:?}");
        let stderr = String::from_utf8(cli.stderr).expect("stderr is UTF-8");
        let message = stderr
            .strip_prefix("error: ")
            .and_then(|rest| rest.strip_suffix('\n'))
            .unwrap_or_else(|| panic!("one error line: {stderr:?}"));
        let error = serde::Value::Object(vec![(
            "error".to_owned(),
            serde::Value::String(message.to_owned()),
        )]);
        let (status, reply) = request_with_body(daemon.addr, "POST", path, body);
        assert_eq!(status, 400, "{path} {body}: {reply}");
        assert_eq!(reply, serde_json::to_string(&error).unwrap() + "\n");
    }

    let (status, reply) = request(daemon.addr, "POST", "/shutdown");
    assert_eq!(status, 200);
    assert!(reply.contains("draining"), "{reply}");
    let (ok, stdout) = daemon.wait(Duration::from_secs(30));
    assert!(ok, "POST /shutdown must end in exit code 0");
    // the startup announcement carries the actual ephemeral address
    assert!(
        stdout.contains("listening on http://127.0.0.1:"),
        "{stdout}"
    );
    assert!(!stdout.contains(":0/"), "announced port must be resolved");
    assert!(stdout.contains("drained, bye"), "{stdout}");
}

#[cfg(unix)]
#[test]
fn sigterm_drains_and_exits_zero() {
    let tmp = TempDir::new("sigterm");
    let daemon = DaemonProcess::start(&tmp);
    let (status, _) = request(daemon.addr, "GET", "/healthz");
    assert_eq!(status, 200);

    let terminate = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("kill(1) is available");
    assert!(terminate.success());

    let (ok, stdout) = daemon.wait(Duration::from_secs(30));
    assert!(ok, "SIGTERM must end in a graceful exit code 0");
    assert!(stdout.contains("drained, bye"), "{stdout}");
}
