//! The shipped binary's start-up report: `alicoco-serve` records how long
//! loading the snapshot and building the serving pack took and, where
//! `/proc` exists, its resident and peak memory after each, on its stderr
//! "loaded" line and as gauges `/metrics` lists.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

use alicoco::snapshot::binary;
use alicoco_obs::json::Json;
use common::{demo_net, read_reply};

#[cfg(target_os = "linux")]
#[test]
fn startup_memory_is_on_the_loaded_line_and_in_metrics() {
    let path = std::env::temp_dir().join(format!("alicoco-startup-{}.alcc", std::process::id()));
    let mut bytes = Vec::new();
    binary::save(&demo_net(), &mut bytes).unwrap();
    std::fs::write(&path, bytes).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_alicoco-serve"))
        .arg(&path)
        .args(["--addr", "127.0.0.1:0", "--shutdown-on-stdin"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn alicoco-serve");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut loaded = String::new();
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            stderr.read_line(&mut line).unwrap() > 0,
            "server exited early"
        );
        if line.contains(": loaded ") {
            loaded = line.clone();
        }
        if let Some(addr) = line.trim().split("listening on http://").nth(1) {
            break addr.to_string();
        }
    };
    std::fs::remove_file(&path).unwrap();
    for stage in ["after load: rss ", "after pack: rss "] {
        assert!(loaded.contains(stage), "{stage:?} missing from {loaded:?}");
    }
    for stage in ["load", "pack"] {
        let secs = loaded
            .split(&format!(", {stage} "))
            .nth(1)
            .and_then(|rest| rest.split(" s").next())
            .and_then(|secs| secs.parse::<f64>().ok());
        assert!(
            secs.is_some_and(|s| s >= 0.0),
            "no {stage} duration on {loaded:?}"
        );
    }

    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    let body = read_reply(&mut conn).unwrap().body_text();
    Json::parse(&body).expect("/metrics must be valid JSON");
    for gauge in [
        "serve.startup.load.seconds",
        "serve.startup.pack.seconds",
        "serve.startup.load.rss_mb",
        "serve.startup.load.hwm_mb",
        "serve.startup.pack.rss_mb",
        "serve.startup.pack.hwm_mb",
    ] {
        assert!(body.contains(gauge), "/metrics is missing {gauge}");
    }

    drop(child.stdin.take());
    assert!(child.wait().unwrap().success());
}
