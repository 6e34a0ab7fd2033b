//! Fault-injection and lifecycle suite: overload, slow-loris shedding,
//! graceful shutdown, and the connection-accounting identity
//! `accepted = completed + rejected + shed` checked against `/metrics`.

mod common;

use std::io::{Read, Write};
use std::time::Duration;

use alicoco_obs::json::Json;
use alicoco_serve::ServeConfig;
use common::{connect, get, read_reply, start_server, test_cfg};

#[test]
fn slow_loris_is_shed_at_the_read_deadline_without_pinning_a_worker() {
    let server = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        read_timeout: Duration::from_millis(150),
        ..test_cfg()
    });
    let mut loris = connect(&server);
    loris.write_all(b"GET /hea").unwrap(); // ...and then silence.
                                           // The single worker must shed the stalled client at the deadline:
                                           // it answers 408 and frees itself.
    let reply = read_reply(&mut loris).unwrap();
    assert_eq!(reply.status, 408);
    // Worker is free again: a healthy request is served promptly.
    assert_eq!(get(&server, "/healthz").status, 200);
    assert_eq!(server.metrics().counter("serve.shed").get(), 1);
    let report = server.shutdown();
    assert_eq!(report.shed, 1);
    assert_eq!(
        report.accepted,
        report.completed + report.rejected + report.shed
    );
}

#[test]
fn queue_full_rejects_with_503_while_in_flight_work_completes() {
    let server = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(3),
        ..test_cfg()
    });
    // A occupies the single worker mid-request.
    let mut a = connect(&server);
    a.write_all(b"GET /search?q=barbecue HTTP/1.1\r\nconnec")
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));
    // B fills the one queue slot.
    let mut b = connect(&server);
    std::thread::sleep(Duration::from_millis(100));
    // C finds the queue full and is bounced immediately with 503.
    let mut c = connect(&server);
    let rejected = read_reply(&mut c).unwrap();
    assert_eq!(rejected.status, 503);
    assert_eq!(rejected.header("connection").as_deref(), Some("close"));
    // A finishes its request and still gets its answer.
    a.write_all(b"tion: close\r\n\r\n").unwrap();
    let done = read_reply(&mut a).unwrap();
    assert_eq!(done.status, 200);
    assert!(done.body_text().contains("outdoor barbecue"));
    // The worker then drains B from the queue.
    b.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    assert_eq!(read_reply(&mut b).unwrap().status, 200);
    let report = server.shutdown();
    assert_eq!(report.rejected, 1);
    assert_eq!(report.accepted, 3);
    assert_eq!(
        report.accepted,
        report.completed + report.rejected + report.shed
    );
}

#[test]
fn graceful_shutdown_drains_in_flight_and_refuses_new_connections() {
    let server = start_server(ServeConfig {
        workers: 2,
        read_timeout: Duration::from_secs(3),
        drain_deadline: Duration::from_secs(5),
        ..test_cfg()
    });
    let addr = server.local_addr();
    // A is mid-request when the shutdown starts.
    let mut a = connect(&server);
    a.write_all(b"GET /search?q=barbecue HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(200));
    // New connections are refused (or accepted by the backlog and then
    // dropped unanswered) once the accept loop has stopped.
    match std::net::TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            late.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let _ = late.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut sink = Vec::new();
            // Must see EOF/reset, never a served response.
            if late.read_to_end(&mut sink).is_ok() {
                assert!(sink.is_empty(), "late connection was served");
            }
        }
    }
    // A finishes sending; the drain serves it and closes the connection.
    a.write_all(b"\r\n").unwrap();
    let reply = read_reply(&mut a).unwrap();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("connection").as_deref(), Some("close"));
    let report = shutdown.join().unwrap();
    assert!(report.drained, "drain must finish inside the deadline");
    assert_eq!(report.accepted, 1);
    assert_eq!(report.completed, 1);
    assert_eq!(
        report.accepted,
        report.completed + report.rejected + report.shed
    );
}

#[test]
fn metrics_route_reconciles_with_the_final_report() {
    // No step waits on a clock. The single worker is known to hold A
    // because it answered A, and to have left the queue empty because it
    // answered B; the read deadline is far longer than the few socket
    // operations that must fit inside it, even on a loaded machine.
    let server = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(1),
        ..test_cfg()
    });
    // A mixed workload: two clean requests...
    assert_eq!(get(&server, "/search?q=barbecue").status, 200);
    assert_eq!(
        get(&server, "/qa?q=what+do+i+need+for+outdoor+barbecue").status,
        200
    );
    // ...one slow-loris shed...
    let mut loris = connect(&server);
    loris.write_all(b"GET /sl").unwrap();
    assert_eq!(read_reply(&mut loris).unwrap().status, 408);
    drop(loris);
    // ...and one queue rejection. Once A's first request is answered, the
    // single worker is serving A: B fills the queue and C is bounced.
    let mut a = connect(&server);
    a.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(read_reply(&mut a).unwrap().status, 200);
    a.write_all(b"GET /he").unwrap();
    let mut b = connect(&server);
    let mut c = connect(&server);
    assert_eq!(read_reply(&mut c).unwrap().status, 503);
    // Let A's stall shed too and B be served, so the queue is empty when
    // the metrics route itself is read.
    assert_eq!(read_reply(&mut a).unwrap().status, 408);
    b.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    assert_eq!(read_reply(&mut b).unwrap().status, 200);
    let body = get(&server, "/metrics").body_text();
    let doc = Json::parse(&body).expect("/metrics must be valid JSON");
    let _ = &doc;
    for family in [
        "serve.accepted",
        "serve.completed",
        "serve.rejected",
        "serve.shed",
        "serve.queue_depth",
        "serve.search.latency_ns",
        "serve.search.status_2xx",
        "serve.other.status_5xx",
    ] {
        assert!(body.contains(family), "metrics export missing {family}");
    }
    let report = server.shutdown();
    assert!(report.drained);
    assert_eq!(report.rejected, 1);
    assert_eq!(report.shed, 2);
    assert_eq!(
        report.accepted,
        report.completed + report.rejected + report.shed,
        "accounting identity: {report:?}"
    );
}
