//! Shared fixture for the serve integration suites: a demo net covering
//! every serving path, a server factory with test-sized limits, and a
//! raw-socket HTTP client that reads exactly one response at a time
//! (keep-alive safe).
#![allow(dead_code)]

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use alicoco::AliCoCo;
use alicoco_obs::Registry;
use alicoco_serve::{EngineConfig, PackSlot, ServeConfig, Server, ServingPack};

/// The suite's demo net: one interpreted scenario concept with stocked
/// items, so `/search`, `/qa`, `/recommend`, and `/relevance` all have
/// non-trivial answers.
pub fn demo_net() -> AliCoCo {
    let mut kg = AliCoCo::new();
    let root = kg.add_class("concept", None);
    let loc = kg.add_class("Location", Some(root));
    let event = kg.add_class("Event", Some(root));
    let outdoor = kg.add_primitive("outdoor", loc);
    let bbq = kg.add_primitive("barbecue", event);
    let grill_prim = kg.add_primitive("grill", event);
    kg.add_primitive_is_a(grill_prim, bbq);
    let c1 = kg.add_concept("outdoor barbecue");
    kg.link_concept_primitive(c1, outdoor);
    kg.link_concept_primitive(c1, bbq);
    let _c2 = kg.add_concept("indoor yoga");
    let grill = kg.add_item(&["brand".into(), "grill".into()]);
    let charcoal = kg.add_item(&["best".into(), "charcoal".into()]);
    let skewers = kg.add_item(&["steel".into(), "skewers".into()]);
    kg.link_concept_item(c1, grill, 0.9);
    kg.link_concept_item(c1, charcoal, 0.8);
    kg.link_item_primitive(grill, bbq);
    kg.link_item_primitive(skewers, bbq);
    kg
}

/// Config with deadlines short enough to test against but long enough
/// that a healthy exchange never trips them.
pub fn test_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 8,
        read_timeout: Duration::from_millis(800),
        write_timeout: Duration::from_millis(800),
        drain_deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    }
}

/// Start a server over the demo net.
pub fn start_server(cfg: ServeConfig) -> Server {
    start_server_on(Arc::new(demo_net()), cfg)
}

/// Start a server over a given net.
pub fn start_server_on(kg: Arc<AliCoCo>, cfg: ServeConfig) -> Server {
    let metrics = Registry::new();
    let pack = ServingPack::build_with_ann(kg, None, &EngineConfig::default(), &metrics);
    let slot = Arc::new(PackSlot::new(pack));
    Server::start(slot, cfg, metrics).expect("bind test server")
}

/// One parsed response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub head: String,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).to_string()
    }

    pub fn header(&self, name: &str) -> Option<String> {
        self.head.lines().find_map(|l| {
            let (n, v) = l.split_once(':')?;
            (n.eq_ignore_ascii_case(name)).then(|| v.trim().to_string())
        })
    }
}

pub fn connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// Read exactly one response (status line, headers, `Content-Length`
/// body) without consuming bytes of any pipelined successor: the head
/// is read byte-wise up to the blank line, the body with `read_exact`,
/// so a second response sitting in the same TCP segment stays buffered
/// for the next call.
pub fn read_reply(stream: &mut TcpStream) -> io::Result<Reply> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        if buf.ends_with(b"\r\n\r\n") {
            break;
        }
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "eof before response head: {:?}",
                    String::from_utf8_lossy(&buf)
                ),
            ));
        }
        buf.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&buf).to_string();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head:?}"));
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (n, v) = l.split_once(':')?;
            n.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .expect("response must carry content-length");
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| io::Error::new(io::ErrorKind::UnexpectedEof, format!("eof mid-body: {e}")))?;
    Ok(Reply { status, head, body })
}

/// Open a fresh connection, send raw bytes, read one reply.
pub fn roundtrip(server: &Server, raw: &[u8]) -> Reply {
    let mut s = connect(server);
    s.write_all(raw).expect("send");
    read_reply(&mut s).expect("read reply")
}

/// A plain closing GET on a fresh connection.
pub fn get(server: &Server, target: &str) -> Reply {
    roundtrip(
        server,
        format!("GET {target} HTTP/1.1\r\nconnection: close\r\n\r\n").as_bytes(),
    )
}
